// mfbo — deterministic parallel execution layer.
//
// The reproduction's hot loops — MSP multi-start acquisition optimization
// (§4.1), GP hyperparameter training restarts (§2.2), and per-repeat bench
// runs — are embarrassingly parallel: every task is an independent pure
// computation whose inputs are fixed before the loop starts. This header
// provides the one primitive they all share, parallelFor over a
// lazily-initialized process-wide thread pool with *deterministic*
// semantics. (The Monte-Carlo integration of eq. 10 is not among them: one
// fused prediction is far too short to pay for a fan-out, and the MSP
// search already calls it from inside its own region.)
//
//   * Slot-indexed results. parallelFor/parallelMap write each task's output
//     into a pre-sized slot keyed by its index; callers reduce (argmin,
//     accumulate) serially in index order afterwards. Because every task's
//     floating-point work is independent and the reduction order is fixed,
//     results are byte-identical at 1 thread and N threads.
//   * No shared RNG. Parallel bodies must not draw from a shared generator;
//     call sites either pre-draw their streams serially (the GP restart
//     start list) or derive a per-index stream with linalg::Rng::split(i).
//   * Ordered exception propagation. When bodies throw, every task still
//     runs (side effects stay deterministic) and the exception from the
//     lowest failing index is rethrown on the calling thread.
//   * Nested calls run serially. A parallelFor issued from inside a worker
//     (or from the caller's share of an active region) executes inline on
//     the current thread, so composed parallel code cannot deadlock or
//     oversubscribe.
//   * Telemetry scope propagation. The caller's active metrics registry
//     (telemetry::TelemetryScope) is captured per region and installed on
//     every worker for the job's duration, so counters bumped inside
//     parallel bodies land in the scoping session's registry — not the
//     global one — even though the pool threads are shared by all sessions.
//
// Thread count resolution, per region: setMaxThreads(n) override (the bench
// --threads flag) > the MFBO_THREADS environment variable > hardware
// concurrency. A count of 1 bypasses the pool entirely — the serial
// reference path that the determinism tests compare against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace mfbo {
namespace parallel {

/// Body run once per index.
using IndexBody = std::function<void(std::size_t)>;

/// Threads a new parallel region may use (>= 1): the setMaxThreads override
/// when set, else a valid positive MFBO_THREADS value, else
/// hardware_concurrency (1 when unknown). Re-resolved per call, so tests
/// can flip the environment variable between regions.
std::size_t maxThreads();

/// Override the thread count for subsequent regions; 0 restores automatic
/// resolution (MFBO_THREADS / hardware). The count is re-resolved at every
/// region start, so calling this *between* regions — even while other
/// sessions are mid-run — is safe and takes effect at the next region.
/// Calling it from inside a parallel region (a pool worker or a parallelFor
/// body) is rejected with ContractViolation: a region resizing the pool
/// that is executing it has no coherent meaning.
void setMaxThreads(std::size_t n);

/// True on a pool worker, or on the caller while it executes its share of
/// an active region. parallelFor uses this to run nested regions serially.
bool inParallelRegion();

/// Number of pool workers currently alive (0 until the first region that
/// actually needs the pool; lifecycle observability for tests).
std::size_t poolWorkers();

/// Point-in-time pool gauges for the service health layer
/// (src/service/health.h). regions/chunks are cumulative totals since
/// process start; a chunk is one index, on the serial path as in the pool.
/// queue_depth is the unclaimed-index backlog of the job in flight right
/// now (0 between regions — the interesting reads come from a concurrent
/// scrape or a crash dump). regions and chunks are
/// deterministic for a fixed workload; pooled_regions and workers depend
/// on the thread count, which is why they live here and not in an
/// artifact.
struct PoolStats {
  std::size_t workers = 0;          ///< pool threads currently alive
  std::uint64_t regions = 0;        ///< parallel regions entered (any path)
  std::uint64_t pooled_regions = 0; ///< regions dispatched to the pool
  std::uint64_t chunks = 0;         ///< indices executed across all regions
  std::uint64_t queue_depth = 0;    ///< unclaimed indices of the live job
};
PoolStats poolStats();

/// Run fn(i) for every i in [0, n), one index per task, distributed
/// dynamically over maxThreads() threads (the caller participates). Index
/// *assignment* to threads is nondeterministic; the work done per index is
/// not, so slot-indexed outputs are deterministic. Serial (1 thread,
/// nested, or n == 1) runs the indices in order on the calling thread.
void parallelFor(std::size_t n, const IndexBody& fn);

/// Evaluate fn(i) for every i in [0, n) and return the results in index
/// order. The element type must be default-constructible (slots are
/// pre-sized) and move-assignable.
template <typename Fn>
// mfbo-lint: allow(C001) — any n is a valid task count; out(n) is the deal
auto parallelMap(std::size_t n, Fn&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
  std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> out(n);
  parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace parallel
}  // namespace mfbo
