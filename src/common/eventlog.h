// mfbo — flight recorder: a fixed-capacity ring-buffer journal of
// structured service events, with a crash-time black-box dump.
// Metrics, spans, and the timeline answer "how much" and "where did the
// time go"; none answers the operator's first post-mortem question:
// *what was the fleet doing right before it died?* This header adds that
// operations layer, a flight recorder in the avionics sense:
//
//   * Structured events, not log lines. Sites record an EventKind (the
//     service narrative: session lifecycle, engine transitions, fidelity
//     decisions, checkpoint persist/restore, pool dispatch, contract
//     violations) plus a fixed-size payload: two static-string details
//     (pointers must outlive the process, like span names), two integers,
//     and the session id of the innermost ScopedSession.
//   * Fixed-capacity per-thread rings, allocated on a thread's first
//     event under memstats::PauseScope and never resized or freed —
//     recording never allocates, so it is hot-path-safe and the rings
//     stay readable from a fatal-signal handler. A full ring overwrites
//     its oldest slot and counts the loss (stats().dropped): the journal
//     is always the *most recent* window.
//   * Deterministic by default. Events carry a global sequence number and
//     no timestamp; in deterministic mode (wall_clock=false) records from
//     inside a parallel region are skipped (stats().skipped_in_region),
//     so the journal is byte-identical at 1 and N threads, like spans.
//     wall_clock=true stamps every event (steady-clock ns since enable())
//     and keeps in-region records — maximum forensics, under the same
//     audited D002 clock exemption as common/timeline.cpp.
//   * Disabled cost is one inline relaxed atomic load and a branch.
//   * Black-box dump. dumpFlightRecorder() merges every ring in sequence
//     order into `<dump_dir>/flightrec.<pid>.jsonl` (header line + one
//     event per line) using async-signal-safe primitives only —
//     open/write/close, no allocation, no locks, no stdio — because the
//     same path runs from the optional SIGSEGV/SIGABRT handler
//     (Options::install_signal_handler) and from the ContractViolation
//     hook in common/check.cpp. SessionManager::persist() also snapshots
//     the journal, so a killed fleet leaves its last persisted window on
//     disk even without a signal.
//
// Contract: enable()/disable() only from the serial harness; detail
// strings have static storage duration; long session ids are truncated.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/json.h"

namespace mfbo {
namespace eventlog {

/// What happened. kindName() gives the stable serialization tag.
enum class EventKind : unsigned char {
  kSessionCreate,      ///< Session constructed (a = algo)
  kSessionStep,        ///< Session::step entered (v0 = steps so far)
  kSessionDone,        ///< session completed (v0 = total steps)
  kSessionDestroy,     ///< SessionManager::destroy
  kEngineTransition,   ///< Engine::transition (a = from, b = to)
  kFidelityDecision,   ///< eq. (11)/(12) choice (a = fidelity,
                       ///< b = "downgraded" when budget-forced,
                       ///< v0 = iteration, v1 = batch slot)
  kCheckpointPersist,  ///< SessionManager persisted a boundary
                       ///< (a = "checkpoint"|"result", v0 = steps)
  kCheckpointRestore,  ///< Session::restore / adoptResult
                       ///< (a = "checkpoint"|"result", v0 = steps)
  kPoolDispatch,       ///< parallel region entered (v0 = n)
  kContractViolation,  ///< MFBO_CHECK failed (a = file, v0 = line)
  kCustom,             ///< tests and embedders
};

/// Stable lowercase tag ("session_step", "engine_transition", ...).
const char* kindName(EventKind kind);

/// Longest session id stored per event, terminator included; longer ids
/// are truncated at record time (no allocation).
constexpr std::size_t kSessionIdCap = 24;

/// One journal slot. Plain data: safe to read from a signal handler.
struct Event {
  std::uint64_t seq = 0;   ///< global order; assigned at record()
  std::int64_t ts_ns = -1; ///< steady ns since enable(); -1 = unstamped
  std::int64_t v0 = 0;
  std::int64_t v1 = 0;
  const char* a = nullptr;  ///< static detail string (or null)
  const char* b = nullptr;  ///< static detail string (or null)
  EventKind kind = EventKind::kCustom;
  char session[kSessionIdCap] = {0};  ///< innermost ScopedSession id
};

struct Options {
  /// Slots per recording thread (clamped to [8, 65536]). The journal
  /// window is the last `ring_capacity` events of each thread.
  std::size_t ring_capacity = 256;
  /// Stamp events with steady-clock ns and keep in-region records: the
  /// wall-clock dump mode, outside the byte-determinism boundary. Off =
  /// deterministic mode (sequence numbers only, in-region records
  /// skipped, byte-identical at 1 vs N threads).
  bool wall_clock = false;
  /// Directory for flightrec.<pid>.jsonl. Empty disables automatic dumps
  /// (explicit dumpFlightRecorder(path) still works).
  std::string dump_dir;
  /// Install a SIGSEGV/SIGABRT handler that writes the dump (async-
  /// signal-safely) before re-raising with the default disposition.
  /// Requires a non-empty dump_dir.
  bool install_signal_handler = false;
};

/// Turn the recorder on. Resets sequence numbers, stats, and every ring;
/// (re)allocates rings at the configured capacity lazily per thread.
/// Enabling while already enabled is a ContractViolation.
void enable(const Options& options = {});

/// Turn the recorder off (journal contents stay readable until the next
/// enable()). The signal handler, if installed, becomes a pass-through.
void disable();

namespace detail {
/// Shared on/off flag; record() inlines the load.
extern std::atomic<bool> g_enabled;
void recordSlow(EventKind kind, const char* a, const char* b,
                std::int64_t v0, std::int64_t v1);
/// Hook for common/check.cpp: journal the violation and, when a dump
/// directory is configured, write the black box before the throw
/// unwinds. Never throws; reentrancy-guarded.
void noteContractViolation(const char* file, long line);
}  // namespace detail

/// True while the recorder is on.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Append one event. One relaxed load + branch when disabled; never
/// allocates when enabled (the thread's ring is created on its first
/// record under memstats::PauseScope). @p a and @p b must be static
/// strings (or null).
inline void record(EventKind kind, const char* a = nullptr,
                   const char* b = nullptr, std::int64_t v0 = 0,
                   std::int64_t v1 = 0) {
  if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
  detail::recordSlow(kind, a, b, v0, v1);
}

/// RAII session label: while alive, events recorded by this thread carry
/// @p id (truncated to kSessionIdCap-1 bytes). Scopes nest and restore;
/// the service layer installs one per session entry so engine events are
/// attributable to the session that caused them.
class ScopedSession {
 public:
  explicit ScopedSession(std::string_view id);
  ScopedSession(const ScopedSession&) = delete;
  ScopedSession& operator=(const ScopedSession&) = delete;
  ~ScopedSession();

 private:
  char saved_[kSessionIdCap];
};

struct Stats {
  std::uint64_t recorded = 0;  ///< events written to a ring
  std::uint64_t dropped = 0;   ///< oldest slots overwritten (ring wrap)
  std::uint64_t skipped_in_region = 0;  ///< deterministic-mode skips
};

/// Current counters. All three are deterministic for a fixed seed at any
/// thread count in deterministic mode.
Stats stats();

/// Merged journal window, sequence-ordered:
/// {"format":"mfbo-flightrec","version":1,"deterministic":...,
///  "ring_capacity":...,"recorded":...,"dropped":...,
///  "skipped_in_region":...,"events":[{...}]}.
/// In deterministic mode the dump() bytes are identical at 1 vs N
/// threads. Callable while disabled (serializes the last journal).
Json journalJson();

/// Write the merged window to `<dump_dir>/flightrec.<pid>.jsonl`.
/// Returns false (never throws) when no dump directory is configured or
/// the write fails. The non-signal path additionally runs under the
/// "flightrec_dump" span.
bool dumpFlightRecorder();

/// Same, to an explicit path.
bool dumpFlightRecorder(const char* path);

/// The path automatic dumps go to ("" when no dump_dir is configured).
std::string dumpPath();

}  // namespace eventlog
}  // namespace mfbo
