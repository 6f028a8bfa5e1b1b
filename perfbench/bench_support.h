// Helpers of the service benchmark (service_bench.cpp): sample statistics,
// ratio bases, the windows of the end-to-end figures, the quality guards'
// ranking of designs, and the layer decorators the traced run wraps around
// the library's extension points. Everything here is header-only so the
// self-test binary (selftest.cpp) exercises exactly the code the benchmark
// runs.
//
// The decorators time calls into a layer from the outside. Each forwards
// every call unchanged to the wrapped object and only adds clock reads and
// relaxed atomic increments, so a decorated session's result bytes equal an
// undecorated one's — the benchmark checks this on every traced run and the
// self-test pins it on a small session.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bo/mfbo.h"
#include "bo/problem.h"
#include "common/check.h"
#include "mf/mf_surrogate.h"
#include "mf/nargp.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Sample statistics

/// Samples that must lie beyond a reported percentile (the tail rule).
constexpr std::size_t kTailSamples = 10;

/// Nearest-rank quantile, q in [0, 1]: the smallest sample with at least
/// q·n samples at or below it. Empty input is a ContractViolation.
inline double quantile(std::vector<double> samples, double q) {
  MFBO_CHECK(!samples.empty(), "quantile of no samples");
  MFBO_CHECK(q >= 0.0 && q <= 1.0, "quantile q=", q, " not in [0, 1]");
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

/// Samples strictly above the nearest-rank q-quantile of n samples.
inline std::size_t samplesBeyond(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t at_or_below =
      rank < 1.0 ? 1 : std::min(n, static_cast<std::size_t>(rank));
  return n - at_or_below;
}

/// A percentile may be reported as a tail figure only when at least
/// kTailSamples samples lie beyond it: p95 needs n >= 200, p99 n >= 1000.
/// The median is always reported; this rule governs the tail.
inline bool percentileSupported(std::size_t n, double q) {
  return n > 0 && samplesBeyond(n, q) >= kTailSamples;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (const double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

/// Median; the mean of the two middle samples when n is even, 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Ratio bases. Every ratio the benchmark prints is one of these, so each
// numerator is divided by the base its documentation states.

/// num / den, and 0 when the base is empty (no work of that kind happened).
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Simulator share: simulator busy seconds (summed over threads) over the
/// pass's wall seconds.
inline double simShare(double sim_busy_s, double wall_s) {
  return ratio(sim_busy_s, wall_s);
}

/// Pool CPU utilisation: process CPU seconds over wall seconds times the
/// pool's thread count.
inline double cpuUtil(double cpu_s, double wall_s, std::size_t threads) {
  return ratio(cpu_s, wall_s * static_cast<double>(threads));
}

/// Incremental share of surrogate appends: incremental appends over all
/// appends (incremental plus retraining).
inline double incrementalFrac(std::uint64_t incremental,
                              std::uint64_t retrain) {
  return ratio(static_cast<double>(incremental),
               static_cast<double>(incremental + retrain));
}

/// Low-fidelity share of proposals (the eq. 11/12 mix): low-fidelity
/// iterations over all iterations.
inline double lowFrac(std::uint64_t low_iterations,
                      std::uint64_t iterations) {
  return ratio(static_cast<double>(low_iterations),
               static_cast<double>(iterations));
}

// ---------------------------------------------------------------------------
// Windows of completed sessions. On a shared machine the speed of a run
// moves in bursts of a few seconds; the end-to-end figures are therefore
// taken per window of the run and reported as the median over windows, so
// one slow burst does not move them.

/// Sessions per window: enough for a supported p95 (kTailSamples beyond it).
constexpr std::size_t kWindowSessions = 200;

struct WindowStats {
  double sessions_per_s = 0.0;
  double session_s_p50 = 0.0;
  double session_s_p95 = 0.0;
};

/// Split the completed sessions, in completion order, into
/// max(1, n / min_sessions) consecutive windows of near-equal size. A
/// window's throughput is its sessions over the time from the previous
/// window's last completion (the loop's start for the first) to its own
/// last; its latencies are its sessions' admission-to-result times.
/// @p done_at holds each completion's time since the loop started
/// (non-decreasing), @p latency each session's time, index for index.
inline std::vector<WindowStats> windowStats(const std::vector<double>& done_at,
                                            const std::vector<double>& latency,
                                            std::size_t min_sessions) {
  MFBO_CHECK(done_at.size() == latency.size(),
             "windowStats: ", done_at.size(), " completion times but ",
             latency.size(), " latencies");
  MFBO_CHECK(min_sessions > 0, "windowStats: empty windows");
  const std::size_t n = done_at.size();
  std::vector<WindowStats> windows;
  if (n == 0) return windows;
  const std::size_t count = std::max<std::size_t>(1, n / min_sessions);
  double previous_end = 0.0;
  for (std::size_t w = 0; w < count; ++w) {
    const std::size_t begin = w * n / count;
    const std::size_t end = (w + 1) * n / count;
    const std::vector<double> times(latency.begin() + begin,
                                    latency.begin() + end);
    WindowStats s;
    s.sessions_per_s = ratio(static_cast<double>(end - begin),
                             done_at[end - 1] - previous_end);
    s.session_s_p50 = quantile(times, 0.5);
    s.session_s_p95 = quantile(times, 0.95);
    windows.push_back(s);
    previous_end = done_at[end - 1];
  }
  return windows;
}

// ---------------------------------------------------------------------------
// Ranking of evaluations for the quality guards

/// One evaluated design as the quality guards rank it.
struct Candidate {
  double objective = 0.0;
  double violation = 0.0;  ///< sum of max(c, 0) over the constraints
  bool feasible = false;   ///< every constraint c < 0
};

inline Candidate makeCandidate(double objective,
                               const std::vector<double>& constraints) {
  Candidate c;
  c.objective = objective;
  c.feasible = true;
  for (const double v : constraints) {
    c.feasible = c.feasible && v < 0.0;
    c.violation += std::max(v, 0.0);
  }
  return c;
}

/// Feasibility first: a feasible design beats an infeasible one, feasible
/// designs rank by objective, infeasible ones by total violation. Ties do
/// not rank, so the earliest of equal designs stays the best.
inline bool betterCandidate(const Candidate& a, const Candidate& b) {
  if (a.feasible != b.feasible) return a.feasible;
  if (a.feasible) return a.objective < b.objective;
  return a.violation < b.violation;
}

// ---------------------------------------------------------------------------
// Concurrent latency histogram: log-spaced buckets 2% wide from 10 ns to
// ~1000 s, relaxed atomic counts, so pool workers can record into one
// instance without a lock. Quantiles come back as the bucket's geometric
// midpoint, i.e. within 1% of a sample in that bucket. The library's
// telemetry::Histogram has 5 buckets per decade, too coarse to show a 10%
// change in a layer's median.

class LogHistogram {
 public:
  static constexpr double kMinSeconds = 1e-8;
  static constexpr double kGrowth = 1.02;
  static constexpr std::size_t kBuckets = 1300;

  void record(double seconds) {
    buckets_[bucketOf(seconds)].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }

  /// Nearest-rank quantile in seconds; 0 when empty.
  double quantile(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    const double rank_d = std::ceil(q * static_cast<double>(n));
    const std::uint64_t rank =
        rank_d < 1.0 ? 1 : static_cast<std::uint64_t>(rank_d);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i].load(std::memory_order_relaxed);
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

  static std::size_t bucketOf(double seconds) {
    if (!(seconds > kMinSeconds)) return 0;
    const double b = std::log(seconds / kMinSeconds) / std::log(kGrowth);
    return std::min(kBuckets - 1, static_cast<std::size_t>(b));
  }
  static double midpoint(std::size_t bucket) {
    return kMinSeconds *
           std::pow(kGrowth, static_cast<double>(bucket) + 0.5);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Call count plus busy time (summed over threads) of one operation.
struct OpCounter {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> busy_ns{0};

  void add(Clock::duration d) {
    calls.fetch_add(1, std::memory_order_relaxed);
    busy_ns.fetch_add(static_cast<std::uint64_t>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(
                              d)
                              .count()),
                      std::memory_order_relaxed);
  }
  std::uint64_t callCount() const {
    return calls.load(std::memory_order_relaxed);
  }
  double busySeconds() const {
    return static_cast<double>(busy_ns.load(std::memory_order_relaxed)) *
           1e-9;
  }
};

/// Everything the layer decorators record during one traced pass.
struct LayerCounters {
  // circuit / problems — bo::Problem::evaluate
  OpCounter sim_low, sim_high;
  LogHistogram sim_low_latency, sim_high_latency;
  // mf / gp — mf::MfSurrogate
  OpCounter fit, add_retrain, add_incremental, predict;
  LogHistogram predict_high_latency;
  std::atomic<std::uint64_t> clones{0};
  // bo — IterationObserver
  std::atomic<std::uint64_t> iterations{0};
  std::atomic<std::uint64_t> low_iterations{0};
};

// ---------------------------------------------------------------------------
// Decorators

/// bo::Problem decorator timing evaluate() per fidelity. Reentrant like the
/// wrapped problem: the engine fans batch evaluations over the pool.
class TimedProblem final : public mfbo::bo::Problem {
 public:
  TimedProblem(std::unique_ptr<mfbo::bo::Problem> inner,
               LayerCounters& counters)
      : inner_(std::move(inner)), counters_(&counters) {}

  std::string name() const override { return inner_->name(); }
  std::size_t dim() const override { return inner_->dim(); }
  std::size_t numConstraints() const override {
    return inner_->numConstraints();
  }
  mfbo::bo::Box bounds() const override { return inner_->bounds(); }
  double costRatio() const override { return inner_->costRatio(); }

  mfbo::bo::Evaluation evaluate(const mfbo::bo::Vector& x,
                                mfbo::bo::Fidelity f) override {
    const auto start = Clock::now();
    mfbo::bo::Evaluation e = inner_->evaluate(x, f);
    const Clock::duration elapsed = Clock::now() - start;
    const bool high = f == mfbo::bo::Fidelity::kHigh;
    (high ? counters_->sim_high : counters_->sim_low).add(elapsed);
    (high ? counters_->sim_high_latency : counters_->sim_low_latency)
        .record(std::chrono::duration<double>(elapsed).count());
    return e;
  }

 private:
  std::unique_ptr<mfbo::bo::Problem> inner_;
  LayerCounters* counters_;
};

/// mf::MfSurrogate decorator timing fit / add / predict. clone() returns a
/// decorated clone, so the constant-liar fantasy models of q > 1 batches
/// are timed too.
class TimedSurrogate final : public mfbo::mf::MfSurrogate {
 public:
  TimedSurrogate(std::unique_ptr<mfbo::mf::MfSurrogate> inner,
                 LayerCounters& counters)
      : inner_(std::move(inner)), counters_(&counters) {}

  void fit(std::vector<mfbo::mf::Vector> x_low, std::vector<double> y_low,
           std::vector<mfbo::mf::Vector> x_high,
           std::vector<double> y_high) override {
    const auto start = Clock::now();
    inner_->fit(std::move(x_low), std::move(y_low), std::move(x_high),
                std::move(y_high));
    counters_->fit.add(Clock::now() - start);
  }
  void addLow(const mfbo::mf::Vector& x, double y, bool retrain) override {
    const auto start = Clock::now();
    inner_->addLow(x, y, retrain);
    addCounter(retrain).add(Clock::now() - start);
  }
  void addHigh(const mfbo::mf::Vector& x, double y, bool retrain) override {
    const auto start = Clock::now();
    inner_->addHigh(x, y, retrain);
    addCounter(retrain).add(Clock::now() - start);
  }

  mfbo::mf::Prediction predictLow(const mfbo::mf::Vector& x) const override {
    const auto start = Clock::now();
    mfbo::mf::Prediction p = inner_->predictLow(x);
    counters_->predict.add(Clock::now() - start);
    return p;
  }
  mfbo::mf::Prediction predictHigh(
      const mfbo::mf::Vector& x) const override {
    const auto start = Clock::now();
    mfbo::mf::Prediction p = inner_->predictHigh(x);
    const Clock::duration elapsed = Clock::now() - start;
    counters_->predict.add(elapsed);
    counters_->predict_high_latency.record(
        std::chrono::duration<double>(elapsed).count());
    return p;
  }

  std::size_t numLow() const override { return inner_->numLow(); }
  std::size_t numHigh() const override { return inner_->numHigh(); }
  double bestLowObserved() const override {
    return inner_->bestLowObserved();
  }
  double bestHighObserved() const override {
    return inner_->bestHighObserved();
  }
  double lowOutputSd() const override { return inner_->lowOutputSd(); }
  std::vector<double> hyperparameters() const override {
    return inner_->hyperparameters();
  }

  std::unique_ptr<mfbo::mf::MfSurrogate> clone() const override {
    counters_->clones.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<TimedSurrogate>(inner_->clone(), *counters_);
  }

 private:
  OpCounter& addCounter(bool retrain) const {
    return retrain ? counters_->add_retrain : counters_->add_incremental;
  }

  std::unique_ptr<mfbo::mf::MfSurrogate> inner_;
  LayerCounters* counters_;
};

/// Surrogate factory equal to the engine's default NARGP construction
/// (MfboEngine::buildModels in src/bo/engine.cpp: the per-output seed s
/// with low/high GP seeds s + 17 / s + 31), each model wrapped in a
/// TimedSurrogate. Any drift from the default layout changes session
/// results, which the traced run's byte-identity check reports.
inline mfbo::bo::SurrogateFactory timedNargpFactory(
    const mfbo::mf::NargpConfig& base, LayerCounters& counters) {
  return [base, &counters](std::size_t x_dim, std::uint64_t s) {
    mfbo::mf::NargpConfig cfg = base;
    cfg.seed = s;
    cfg.low.seed = s + 17;
    cfg.high.seed = s + 31;
    return std::make_unique<TimedSurrogate>(
        std::make_unique<mfbo::mf::NargpModel>(x_dim, cfg), counters);
  };
}

/// Install the traced run's decorators into @p options: the timed NARGP
/// factory and an observer counting proposals and their fidelity mix.
inline void instrument(mfbo::bo::MfboOptions& options,
                       LayerCounters& counters) {
  options.surrogate_factory = timedNargpFactory(options.nargp, counters);
  options.observer = [&counters](const mfbo::bo::IterationRecord& r) {
    counters.iterations.fetch_add(1, std::memory_order_relaxed);
    if (r.fidelity == mfbo::bo::Fidelity::kLow)
      counters.low_iterations.fetch_add(1, std::memory_order_relaxed);
  };
}

}  // namespace perfbench
