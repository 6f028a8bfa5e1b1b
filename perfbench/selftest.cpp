// Self-tests of the service benchmark's helpers (bench_support.h): the
// percentile-reporting rule, the median and the windows of the end-to-end
// figures, the ratio bases, the quality guards' ranking of designs, the
// concurrent histogram, and the byte-for-byte transparency of the layer
// decorators.
//
//   python3 perfbench/run.py --selftest
//
// Prints one line per failed expectation and exits 1 if any failed.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_support.h"
#include "bo/engine.h"
#include "linalg/rng.h"
#include "mf/nargp.h"
#include "problems/synthetic.h"
#include "service/session.h"

namespace {

using namespace mfbo;

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++g_failures;
  std::printf("FAIL line %d: %s\n", line, what);
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void testPercentileRule() {
  using perfbench::percentileSupported;
  using perfbench::samplesBeyond;
  // p95 needs ten samples beyond it: n = 200 is the smallest such fleet.
  EXPECT(!percentileSupported(199, 0.95));
  EXPECT(percentileSupported(200, 0.95));
  EXPECT(samplesBeyond(200, 0.95) == 10);
  EXPECT(!percentileSupported(999, 0.99));
  EXPECT(percentileSupported(1000, 0.99));
  // A four-session circuit fleet supports no tail figure at all.
  EXPECT(!percentileSupported(8, 0.95));
  EXPECT(!percentileSupported(0, 0.5));
  EXPECT(samplesBeyond(20, 0.5) == 10);
  EXPECT(samplesBeyond(1, 0.0) == 0);
}

void testQuantile() {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT(perfbench::quantile(v, 0.5) == 5.0);
  EXPECT(perfbench::quantile(v, 0.95) == 10.0);
  EXPECT(perfbench::quantile(v, 0.0) == 1.0);
  EXPECT(perfbench::quantile(v, 1.0) == 10.0);
  EXPECT(perfbench::quantile({7.0}, 0.99) == 7.0);
  bool threw = false;
  try {
    perfbench::quantile({}, 0.5);
  } catch (const ContractViolation&) {
    threw = true;
  }
  EXPECT(threw);
}

void testMedian() {
  EXPECT(perfbench::median({}) == 0.0);
  EXPECT(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void testWindows() {
  using perfbench::windowStats;
  EXPECT(windowStats({}, {}, 200).empty());
  // Fewer sessions than one window: one window over the whole run, its
  // throughput counted from the loop's start to the last completion.
  const auto one = windowStats({1.0, 2.0, 4.0}, {1.0, 1.5, 3.0}, 200);
  EXPECT(one.size() == 1);
  EXPECT(one[0].sessions_per_s == 0.75);
  EXPECT(one[0].session_s_p50 == 1.5);
  EXPECT(one[0].session_s_p95 == 3.0);
  // 10 sessions, windows of at least 3: three windows of 3, 3 and 4
  // sessions, each timed from the previous window's last completion.
  std::vector<double> done_at, latency;
  for (int i = 1; i <= 10; ++i) {
    done_at.push_back(i <= 6 ? i : 6.0 + 2.0 * (i - 6));  // slow at the end
    latency.push_back(i <= 6 ? 1.0 : 5.0);
  }
  const auto three = windowStats(done_at, latency, 3);
  EXPECT(three.size() == 3);
  EXPECT(three[0].sessions_per_s == 1.0);  // 3 sessions over 0..3 s
  EXPECT(three[1].sessions_per_s == 1.0);  // 3 sessions over 3..6 s
  EXPECT(three[2].sessions_per_s == 0.5);  // 4 sessions over 6..14 s
  EXPECT(three[2].session_s_p50 == 5.0);
  // The slow last window does not move the medians over windows.
  std::vector<double> per_s;
  for (const auto& w : three) per_s.push_back(w.sessions_per_s);
  EXPECT(perfbench::median(per_s) == 1.0);
  bool threw = false;
  try {
    windowStats({1.0}, {}, 200);
  } catch (const ContractViolation&) {
    threw = true;
  }
  EXPECT(threw);
}

void testRatioBases() {
  EXPECT(perfbench::ratio(1.0, 0.0) == 0.0);
  EXPECT(perfbench::simShare(2.0, 4.0) == 0.5);
  // CPU utilisation divides by wall time times the thread count.
  EXPECT(perfbench::cpuUtil(4.0, 2.0, 4) == 0.5);
  EXPECT(perfbench::cpuUtil(1.0, 0.0, 4) == 0.0);
  // Incremental share: incremental over incremental + retraining adds.
  EXPECT(perfbench::incrementalFrac(3, 1) == 0.75);
  EXPECT(perfbench::incrementalFrac(0, 0) == 0.0);
  // Low share: low-fidelity proposals over all proposals.
  EXPECT(perfbench::lowFrac(1, 4) == 0.25);
}

void testCandidateRanking() {
  using perfbench::betterCandidate;
  using perfbench::makeCandidate;
  // Feasible means every constraint strictly below zero.
  EXPECT(makeCandidate(1.0, {-1.0, -0.5}).feasible);
  EXPECT(!makeCandidate(1.0, {-1.0, 0.0}).feasible);
  EXPECT(makeCandidate(1.0, {2.0, -1.0, 0.5}).violation == 2.5);
  EXPECT(makeCandidate(1.0, {}).feasible);
  // A feasible design beats an infeasible one whatever the objectives.
  EXPECT(betterCandidate(makeCandidate(9.0, {-1.0}), makeCandidate(-9.0, {1.0})));
  EXPECT(!betterCandidate(makeCandidate(-9.0, {1.0}), makeCandidate(9.0, {-1.0})));
  // Feasible designs rank by objective, infeasible ones by violation.
  EXPECT(betterCandidate(makeCandidate(1.0, {-1.0}), makeCandidate(2.0, {-1.0})));
  EXPECT(betterCandidate(makeCandidate(5.0, {0.5}), makeCandidate(1.0, {2.0})));
  // Equal designs do not rank, so the earliest stays the best.
  EXPECT(!betterCandidate(makeCandidate(1.0, {-1.0}), makeCandidate(1.0, {-1.0})));
  EXPECT(!betterCandidate(makeCandidate(1.0, {1.0}), makeCandidate(0.0, {1.0})));
}

void testHistogram() {
  perfbench::LogHistogram h;
  EXPECT(h.quantile(0.5) == 0.0);
  for (int i = 1; i <= 100; ++i) h.record(1e-3 * i);  // 1 ms .. 100 ms
  EXPECT(h.count() == 100);
  EXPECT(std::fabs(h.quantile(0.5) - 0.050) < 0.050 * 0.02);
  EXPECT(std::fabs(h.quantile(0.99) - 0.099) < 0.099 * 0.02);
  EXPECT(perfbench::LogHistogram::bucketOf(0.0) == 0);
  EXPECT(perfbench::LogHistogram::bucketOf(1e9) ==
         perfbench::LogHistogram::kBuckets - 1);
}

void testTimedProblemPassThrough() {
  perfbench::LayerCounters counters;
  problems::ConstrainedQuadraticProblem plain(3);
  perfbench::TimedProblem timed(
      std::make_unique<problems::ConstrainedQuadraticProblem>(3), counters);
  EXPECT(timed.name() == plain.name());
  EXPECT(timed.dim() == plain.dim());
  EXPECT(timed.numConstraints() == plain.numConstraints());
  EXPECT(timed.costRatio() == plain.costRatio());
  linalg::Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    const linalg::Vector x = rng.uniformVector(3, 0.0, 1.0);
    for (const bo::Fidelity f : {bo::Fidelity::kLow, bo::Fidelity::kHigh}) {
      const bo::Evaluation a = plain.evaluate(x, f);
      const bo::Evaluation b = timed.evaluate(x, f);
      EXPECT(sameBits(a.objective, b.objective));
      EXPECT(a.constraints.size() == b.constraints.size());
      for (std::size_t c = 0; c < a.constraints.size(); ++c)
        EXPECT(sameBits(a.constraints[c], b.constraints[c]));
    }
  }
  EXPECT(counters.sim_low.callCount() == 20);
  EXPECT(counters.sim_high.callCount() == 20);
  EXPECT(counters.sim_low_latency.count() == 20);
}

void testTimedSurrogatePassThrough() {
  perfbench::LayerCounters counters;
  mf::NargpConfig base;
  base.n_mc = 8;
  base.low.n_restarts = 1;
  base.high.n_restarts = 1;
  const std::uint64_t seed = 12345;
  // The engine's default layout, built by hand.
  mf::NargpConfig cfg = base;
  cfg.seed = seed;
  cfg.low.seed = seed + 17;
  cfg.high.seed = seed + 31;
  mf::NargpModel plain(2, cfg);
  const std::unique_ptr<mf::MfSurrogate> timed =
      perfbench::timedNargpFactory(base, counters)(2, seed);

  linalg::Rng rng(3);
  std::vector<linalg::Vector> xl, xh;
  std::vector<double> yl, yh;
  for (int i = 0; i < 8; ++i) {
    xl.push_back(rng.uniformVector(2, 0.0, 1.0));
    yl.push_back(std::sin(3.0 * xl.back()[0]) + xl.back()[1]);
  }
  for (int i = 0; i < 4; ++i) {
    xh.push_back(xl[2 * i]);
    yh.push_back(1.3 * yl[2 * i] + 0.1);
  }
  plain.fit(xl, yl, xh, yh);
  timed->fit(xl, yl, xh, yh);
  const linalg::Vector extra = rng.uniformVector(2, 0.0, 1.0);
  plain.addLow(extra, 0.4, false);
  timed->addLow(extra, 0.4, false);
  const std::unique_ptr<mf::MfSurrogate> clone = timed->clone();
  for (int i = 0; i < 10; ++i) {
    const linalg::Vector x = rng.uniformVector(2, 0.0, 1.0);
    const gp::Prediction a = plain.predictHigh(x);
    const gp::Prediction b = timed->predictHigh(x);
    const gp::Prediction c = clone->predictHigh(x);
    EXPECT(sameBits(a.mean, b.mean) && sameBits(a.var, b.var));
    EXPECT(sameBits(a.mean, c.mean) && sameBits(a.var, c.var));
    const gp::Prediction l = plain.predictLow(x);
    const gp::Prediction m = timed->predictLow(x);
    EXPECT(sameBits(l.mean, m.mean) && sameBits(l.var, m.var));
  }
  EXPECT(plain.hyperparameters() == timed->hyperparameters());
  EXPECT(counters.fit.callCount() == 1);
  EXPECT(counters.add_incremental.callCount() == 1);
  EXPECT(counters.add_retrain.callCount() == 0);
  EXPECT(counters.clones.load() == 1);
  // Clones stay decorated: their predictions are counted too.
  EXPECT(counters.predict.callCount() == 30);
  EXPECT(counters.predict_high_latency.count() == 20);
}

/// A tiny session's result bytes, with or without every decorator.
std::string sessionResult(std::size_t batch_size,
                          perfbench::LayerCounters* counters) {
  service::SessionSpec spec;
  spec.id = "selftest";
  spec.problem = [counters]() -> std::unique_ptr<bo::Problem> {
    auto p = std::make_unique<problems::ConstrainedQuadraticProblem>(2);
    if (counters == nullptr) return p;
    return std::make_unique<perfbench::TimedProblem>(std::move(p), *counters);
  };
  spec.engine = [batch_size, counters](bo::Problem& p) {
    bo::MfboOptions opt;
    opt.n_init_low = 4;
    opt.n_init_high = 2;
    opt.budget = 4.0;
    opt.gamma = 0.5;
    opt.retrain_every = 2;
    opt.batch_size = batch_size;
    opt.x_star_seeds = 2;
    opt.msp.n_starts = 3;
    opt.msp.local.max_evaluations = 25;
    opt.nargp.n_mc = 8;
    opt.nargp.low.n_restarts = 1;
    opt.nargp.high.n_restarts = 1;
    if (counters != nullptr) perfbench::instrument(opt, *counters);
    return std::make_unique<bo::MfboEngine>(p, 99, opt);
  };
  service::Session session(std::move(spec));
  while (!session.done()) session.step();
  return session.resultJson().dump();
}

void testSessionBytesUnchanged() {
  for (const std::size_t q : {std::size_t{1}, std::size_t{2}}) {
    perfbench::LayerCounters counters;
    const std::string plain = sessionResult(q, nullptr);
    const std::string traced = sessionResult(q, &counters);
    EXPECT(plain == traced);
    EXPECT(counters.iterations.load() > 0);
    EXPECT(counters.fit.callCount() > 0);
    EXPECT(counters.predict.callCount() > 0);
    if (q == 2) EXPECT(counters.clones.load() > 0);
  }
}

}  // namespace

int main() {
  testPercentileRule();
  testQuantile();
  testMedian();
  testWindows();
  testRatioBases();
  testCandidateRanking();
  testHistogram();
  testTimedProblemPassThrough();
  testTimedSurrogatePassThrough();
  testSessionBytesUnchanged();
  std::printf("perfbench selftest: %s (%d failure%s)\n",
              g_failures == 0 ? "ok" : "FAILED", g_failures,
              g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
