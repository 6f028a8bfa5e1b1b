// mfbo — hierarchical span profiler with phase attribution.
//
// The paper's headline claim is wall-clock efficiency. Flat counters
// (common/telemetry.h) cannot say *where* an iteration's time goes — GP
// refit, MC integration, the MSP search, or the simulator. Spans can:
//
//   * ScopedSpan — RAII frame on a thread-local span stack. Spans with the
//     same name under the same parent aggregate into one node (call count,
//     total wall time); distinct call paths stay distinct, so the snapshot
//     is a tree of phases, not a flat list. Self time is derived at
//     serialization: total minus the children's totals.
//   * Per-span counters — addCounter() attributes an event the node count
//     does not already record (a Cholesky jitter retry) to the innermost
//     open span.
//   * Off-by-default behind a single branch — when disabled (the default),
//     ScopedSpan's constructor is one relaxed atomic load plus a null test
//     of its optional latency Histogram (the session step-latency feed).
//   * Memory attribution — every span boundary snapshots the thread-local
//     allocation counters of common/memstats.h and attributes the delta
//     to the innermost span as `alloc_count`/`alloc_bytes`. The profiler's
//     own allocations run under memstats::PauseScope, so the values are
//     workload-only, deterministic, and merge like user counters.
//   * Timeline dispatch — while a recording (common/timeline.h) is active
//     each span open/close emits a begin/end trace event; both features
//     share one flags word, so the disabled path stays one relaxed load.
//   * Deterministic under the parallel pool — pool workers record into
//     per-thread arenas that common/parallel.h merges into the *calling
//     thread's* innermost span at region end (the detail:: hooks below);
//     with timing omitted, snapshots are byte-identical at 1 and N
//     threads (children and counters serialize sorted by name).
//   * Session arenas — a SpanArena is a span tree owned by a *session*;
//     an ArenaScope makes it the calling thread's recording target
//     (flushing the allocation mark at both swap boundaries). The service
//     layer installs one per session step, keeping N interleaved sessions'
//     trees — worker captures included — byte-identical to solo runs.
//
// Contract: enable/disable only while no span is open and no ArenaScope is
// installed (before the run, from the harness). Span names must outlive
// the process — nodes store the pointer.
#pragma once

#include <chrono>
#include <cstdint>

#include "common/json.h"

namespace mfbo {
namespace telemetry {
class Histogram;
}  // namespace telemetry

namespace spans {

struct SpanNode;  // opaque; defined in spans.cpp

/// Turn the profiler on or off (off by default). Toggle only while no span
/// is open. Enabling eagerly creates the calling thread's arena and starts
/// its allocation attribution mark, so everything this thread allocates from
/// here on is attributed (to the root when no span is open) — deterministic
/// regardless of which thread later opens the first span.
void setEnabled(bool on);

/// True when the aggregating profiler is on. Instrumentation sites pay one
/// relaxed atomic load (shared with the timeline flag) when everything is
/// off.
bool enabled();

/// RAII span frame: opens a child of the calling thread's innermost span on
/// construction, closes it (accumulating wall time and the allocation delta
/// since the previous span boundary) on destruction. While a timeline
/// recording is active (common/timeline.h) it also emits begin/end trace
/// events. A non-null @p latency receives the scope's wall time in seconds
/// on destruction, profiler on or off; it must outlive the span. When both
/// features are disabled at construction time and @p latency is null the
/// object is inert.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name,
                      telemetry::Histogram* latency = nullptr);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

 private:
  SpanNode* node_ = nullptr;
  const char* timeline_name_ = nullptr;
  telemetry::Histogram* latency_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

/// Add @p n to the named counter of the calling thread's innermost open
/// span (the thread root when none is open). No-op when disabled.
void addCounter(const char* name, std::uint64_t n = 1);

/// Serialize the calling thread's span tree:
/// {"counters":{...},"children":{name:{"count":..,"total_s":..,"self_s":..,
/// "counters":{...},"children":{...}}}} with children and counters sorted
/// by name and empty sections omitted. Every node that allocated carries
/// the memory-attribution counters `alloc_count`/`alloc_bytes` (self, not
/// subtree: deltas are attributed to the innermost span). With
/// include_timing=false the total_s/self_s fields are dropped, leaving only
/// the deterministic count/counter fields — including the alloc counters —
/// that the bench --no-timing artifacts compare byte-exactly. self_s is
/// clamped at zero: children that ran on pool workers accumulate CPU time
/// that can exceed the parent's wall time.
Json snapshot(bool include_timing = true);

/// Discard the calling thread's span tree (keeps the enabled flag). Call
/// only while no span is open on this thread.
void reset();

/// A span tree owned by a session rather than a thread. The tree persists
/// across ArenaScope installs, so a session stepped many times — possibly
/// interleaved with other sessions on the same thread — accumulates one
/// continuous tree, exactly as if it had run solo. Inert (and empty) while
/// the profiler is disabled.
class SpanArena {
 public:
  SpanArena();
  ~SpanArena();
  SpanArena(const SpanArena&) = delete;
  SpanArena& operator=(const SpanArena&) = delete;

 private:
  friend class ArenaScope;
  SpanNode* root_ = nullptr;  ///< owned; lazily created at first install
};

/// RAII arena swap: while alive, the calling thread records spans, span
/// counters, and allocation attribution into @p arena instead of its own
/// tree (snapshot()/reset() operate on the installed arena too). The
/// allocation mark is flushed at both boundaries — the pending delta before
/// installation is attributed to the previous tree, the session tail at
/// uninstall to the arena root — so two sessions interleaving on one thread
/// (or on shared pool workers, whose captures merge into the installed
/// arena at region end) never cross-charge a byte. Requires no open span at
/// either boundary (MFBO_CHECK) and does not nest-own: the arena must
/// outlive the scope. No-op while the profiler is disabled.
class ArenaScope {
 public:
  explicit ArenaScope(SpanArena& arena);
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;
  ~ArenaScope() noexcept(false);

 private:
  SpanArena* arena_ = nullptr;  ///< null when installed while disabled
  SpanNode* saved_root_ = nullptr;
  SpanNode* saved_current_ = nullptr;
};

namespace detail {

/// Hooks for common/parallel.h: a pool worker swaps in a fresh capture
/// arena before draining a job and hands the recorded tree back afterwards;
/// the job's calling thread merges every captured tree into its innermost
/// open span once the region completes. All three are no-ops (and return
/// null) while the profiler is disabled.
struct WorkerCapture {
  SpanNode* saved_root = nullptr;
  SpanNode* saved_current = nullptr;
  SpanNode* capture_root = nullptr;
};

WorkerCapture beginWorkerCapture();
/// Restores the worker's previous arena; returns the captured tree (null
/// when nothing was recorded). Ownership passes to the caller.
SpanNode* endWorkerCapture(const WorkerCapture& capture);
/// Merge a captured tree into the calling thread's innermost span, then
/// free it. Accepts null.
void mergeCapturedTree(SpanNode* tree);

/// Flip the timeline-dispatch bit in the shared flags word. Called only by
/// timeline::start()/stop() (common/timeline.cpp), never directly.
void setTimelineRecording(bool on);

}  // namespace detail

}  // namespace spans
}  // namespace mfbo
