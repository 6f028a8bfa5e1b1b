// mfbo — telemetry: scoped counter registries and a latency histogram.
//
// The BO loop makes many decisions silently — MSP restart outcomes,
// first-feasible switching, Cholesky jitter retries, incremental versus
// retrained surrogate updates. This header provides the two primitives
// that count them:
//
//   * Metrics — always-on named monotonic Counters in a MetricsRegistry
//     (scopes are timed by the span profiler, common/spans.h). There is one
//     process-wide default registry (globalMetrics()); a TelemetryScope
//     points the calling thread's counter() lookups at a private registry,
//     which is how the session layer (src/service) keeps N concurrent
//     engines from interleaving their counters in one shared store. Sites
//     look their counter up once per *call*, never once per *process*: a
//     `static Counter&` would pin the registry active at first touch
//     forever, the cross-session interleaving bug the scoping exists to
//     fix (lint rule D005 rejects it). `metricsSnapshot()` serializes the
//     active registry for the bench `--out` artifacts; `resetMetrics()`
//     zeroes its values (references stay valid).
//
//   * Histogram — a plain value type, not a registry metric: a Session
//     owns one, fed by its step span, for the health snapshot.
//
// Per-iteration events (the eq. (11)/(12) fidelity decision) are not
// telemetry: they go to the run's own bo::IterationObserver, and
// bo::iterationJson serializes them (bo/common.h).
//
// Everything here is thread-safe: instrumented sites run inside the
// deterministic parallel regions of common/parallel.h, so counter updates
// and histogram records are relaxed atomics, and registry lookups are
// mutex-protected (references stay stable and valid forever).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "common/json.h"

namespace mfbo {
namespace telemetry {

/// Monotonic event counter. add() is a relaxed atomic: totals are exact at
/// any thread count, only the interleaving is unordered.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Fixed-bucket log-scale latency histogram for the service health layer
/// (src/service/health.h); a ScopedSpan given its address records each
/// scope's wall time into it (common/spans.h). It answers the operator's
/// SLO question — p50/p90/p99 over an unbounded stream — with
/// *bucket-exact* quantiles at a fixed resolution of kBucketsPerDecade
/// buckets per decade over [100ns, 1000s], plus an underflow and an
/// overflow bucket. record() is lock-free (three relaxed
/// atomic bumps, no allocation ever), so it is safe on every hot path and
/// readable mid-flight by a health scrape. Quantiles report the upper
/// edge of the covering bucket: deterministic for fixed counts, never
/// underestimates the tail.
class Histogram {
 public:
  static constexpr std::size_t kBucketsPerDecade = 5;
  static constexpr int kMinExponent = -7;  ///< first edge: 1e-7 s (100 ns)
  static constexpr int kMaxExponent = 3;   ///< last edge: 1e3 s
  /// Log-spaced buckets plus underflow (index 0) and overflow (last).
  static constexpr std::size_t kBuckets =
      kBucketsPerDecade *
          static_cast<std::size_t>(kMaxExponent - kMinExponent) +
      2;

  /// Count one observation. Negative and NaN values clamp into the
  /// underflow bucket. Lock-free; never allocates.
  void record(double seconds);
  std::uint64_t count() const;
  double totalSeconds() const;
  /// Upper bucket edge covering the nearest-rank quantile; q in [0, 1].
  /// 0 when nothing was recorded; overflow reports the last finite edge.
  double quantileSeconds(double q) const;
  void reset();

 private:
  static std::size_t bucketIndex(double seconds);
  static double bucketUpperEdge(std::size_t index);

  std::atomic<std::uint64_t> counts_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> total_ns_{0};
};

/// An isolated named-counter store. Lookups create the counter on first use
/// and return references that stay valid for the registry's lifetime
/// (reset() zeroes values without invalidating references). The process has
/// one default instance — globalMetrics() — backing the free counter()
/// function; the session layer gives every concurrent optimization run a
/// private instance via TelemetryScope so snapshots never mix two runs'
/// counters.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);

  /// Zero every registered counter (references stay valid).
  void reset();

  /// Serialize this registry's counters, sorted by name:
  /// {"counters":{...}}. Counters are deterministic for a fixed seed at any
  /// thread count, so the document is byte-reproducible.
  Json metricsJson() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The process-wide default registry: what counter() resolves against when no TelemetryScope is active on the calling thread.
MetricsRegistry& globalMetrics();

/// RAII registry scoping: while alive, the constructing thread's free
/// counter()/metricsSnapshot()/resetMetrics() calls
/// resolve against @p registry instead of globalMetrics(). Scopes nest
/// (restore the previous registry on destruction) and are thread-local —
/// the parallel pool propagates the active registry into its workers per
/// region, so instrumentation inside parallelFor bodies lands in the
/// scoping session's registry too (common/parallel.cpp). The registry is borrowed, not owned:
/// it must outlive the scope and every reference handed out through it.
class TelemetryScope {
 public:
  explicit TelemetryScope(MetricsRegistry& registry);
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;
  ~TelemetryScope();

 private:
  MetricsRegistry* previous_;
};

namespace detail {
/// Registry the calling thread currently resolves metrics against:
/// the innermost TelemetryScope's registry, or globalMetrics() without one.
/// The parallel pool captures this at region submission and installs it on
/// its workers for the duration of the region (common/parallel.cpp).
MetricsRegistry* activeRegistry();
/// Install @p registry (nullptr = back to globalMetrics()) as the calling
/// thread's active registry; returns the previous raw slot value for
/// restoration. Used by TelemetryScope and the pool workers only.
MetricsRegistry* exchangeActiveRegistry(MetricsRegistry* registry);
}  // namespace detail

/// Lookup in the calling thread's active registry; creates the counter on
/// first use. The reference stays valid for the registry's lifetime, so a
/// call site that bumps in a loop hoists the lookup into a *function-local*
/// reference:
///
///   telemetry::Counter& retries =
///       telemetry::counter("linalg.cholesky.jitter_retries");
///   retries.add();
///
/// Never cache the reference in a `static` — that pins whichever registry
/// was active at first call for the process lifetime, silently routing
/// later sessions' metrics into the wrong store (lint rule D005).
Counter& counter(std::string_view name);

/// Serialize the active registry (MetricsRegistry::metricsJson) and append
/// process-level observability state:
/// {"counters":{...},"peak_rss_bytes":...}.
/// When the span profiler is enabled (common/spans.h) the calling thread's
/// span tree is appended under a "spans" key. With include_timing=false the
/// nondeterministic process peak-RSS sample (common/memstats.h) is omitted
/// and the span tree drops its total_s/self_s fields — counters, span
/// counts, and the per-span allocation counters are deterministic for a
/// fixed seed at any thread count, so the remaining snapshot is
/// byte-reproducible (the bench --no-timing artifacts rely on this).
Json metricsSnapshot(bool include_timing = true);

/// Zero every counter in the active registry (references stay valid).
void resetMetrics();

}  // namespace telemetry
}  // namespace mfbo
