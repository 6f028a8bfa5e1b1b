// Tests for the bench-harness helpers: bestHighIndex / costToReachBest
// edge cases, the hardened argument parser, the checked --out artifact
// write, and the per-run --trace blocks of runRepeats.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bo/mfbo.h"
#include "bo/result.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/timeline.h"
#include "problems/synthetic.h"

namespace {

using namespace mfbo;

bo::HistoryEntry entry(double objective, std::vector<double> constraints,
                       bo::Fidelity fidelity, double cost) {
  bo::HistoryEntry h;
  h.x = bo::Vector{0.0};
  h.eval.objective = objective;
  h.eval.constraints = std::move(constraints);
  h.fidelity = fidelity;
  h.cumulative_cost = cost;
  return h;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// --- bestHighIndex ------------------------------------------------------

TEST(BestHighIndex, EmptyHistoryReturnsNullopt) {
  EXPECT_FALSE(bo::bestHighIndex({}).has_value());
}

TEST(BestHighIndex, NoHighFidelityEntriesReturnsNullopt) {
  std::vector<bo::HistoryEntry> h;
  h.push_back(entry(-1.0, {}, bo::Fidelity::kLow, 0.1));
  h.push_back(entry(-5.0, {}, bo::Fidelity::kLow, 0.2));
  EXPECT_FALSE(bo::bestHighIndex(h).has_value());
}

TEST(BestHighIndex, AllInfeasiblePicksLeastViolation) {
  std::vector<bo::HistoryEntry> h;
  h.push_back(entry(-9.0, {3.0, 1.0}, bo::Fidelity::kHigh, 1.0));  // viol 4
  h.push_back(entry(-1.0, {0.5}, bo::Fidelity::kHigh, 2.0));       // viol 0.5
  h.push_back(entry(-5.0, {2.0}, bo::Fidelity::kHigh, 3.0));       // viol 2
  const auto best = bo::bestHighIndex(h);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1u);  // least violation wins despite the worse objective
}

TEST(BestHighIndex, FeasibleBeatsInfeasibleWithBetterObjective) {
  std::vector<bo::HistoryEntry> h;
  h.push_back(entry(-9.0, {1.0}, bo::Fidelity::kHigh, 1.0));   // infeasible
  h.push_back(entry(-2.0, {-1.0}, bo::Fidelity::kHigh, 2.0));  // feasible
  const auto best = bo::bestHighIndex(h);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1u);
}

TEST(BestHighIndex, TiedObjectivesKeepTheFirst) {
  std::vector<bo::HistoryEntry> h;
  h.push_back(entry(-3.0, {-1.0}, bo::Fidelity::kHigh, 1.0));
  h.push_back(entry(-3.0, {-1.0}, bo::Fidelity::kHigh, 2.0));
  const auto best = bo::bestHighIndex(h);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 0u);  // strict < comparison: the first tie wins
}

TEST(BestHighIndex, IgnoresBetterLowFidelityEntries) {
  std::vector<bo::HistoryEntry> h;
  h.push_back(entry(-100.0, {-1.0}, bo::Fidelity::kLow, 0.1));
  h.push_back(entry(-1.0, {-1.0}, bo::Fidelity::kHigh, 1.1));
  const auto best = bo::bestHighIndex(h);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1u);
}

// --- costToReachBest ----------------------------------------------------

TEST(CostToReachBest, UsesTheBestEntriesCumulativeCost) {
  bo::SynthesisResult r;
  r.history.push_back(entry(-1.0, {-1.0}, bo::Fidelity::kHigh, 1.0));
  r.history.push_back(entry(-5.0, {-1.0}, bo::Fidelity::kHigh, 2.0));
  r.history.push_back(entry(-3.0, {-1.0}, bo::Fidelity::kHigh, 3.0));
  r.equivalent_high_sims = 3.0;
  EXPECT_DOUBLE_EQ(bench::costToReachBest(r), 2.0);
}

TEST(CostToReachBest, NoHighEntriesFallsBackToTotalCost) {
  bo::SynthesisResult r;
  r.history.push_back(entry(-1.0, {}, bo::Fidelity::kLow, 0.1));
  r.equivalent_high_sims = 0.1;
  EXPECT_DOUBLE_EQ(bench::costToReachBest(r), 0.1);
}

// --- parseArgs ----------------------------------------------------------

bench::BenchConfig parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::string prog = "bench_test";
  argv.push_back(prog.data());
  for (std::string& a : args) argv.push_back(a.data());
  return bench::parseArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(ParseArgs, ParsesAllFlags) {
  const bench::BenchConfig cfg =
      parse({"--full", "--runs", "7", "--seed", "99", "--out", "x.json"});
  EXPECT_TRUE(cfg.full);
  EXPECT_EQ(cfg.runs_override, 7u);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.out, "x.json");
  EXPECT_EQ(cfg.runs(3, 12), 7u);  // override beats both mode defaults
}

TEST(ParseArgs, DefaultsAreQuickMode) {
  const bench::BenchConfig cfg = parse({});
  EXPECT_FALSE(cfg.full);
  EXPECT_EQ(cfg.runs(3, 12), 3u);
  EXPECT_EQ(std::string(cfg.mode()), "quick");
}

TEST(ParseArgsDeath, HelpExitsZero) {
  // Usage goes to stdout (EXPECT_EXIT only captures stderr, hence "").
  EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0), "");
}

TEST(ParseArgsDeath, RejectsNegativeRuns) {
  EXPECT_EXIT(parse({"--runs", "-3"}), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ParseArgsDeath, RejectsZeroRuns) {
  EXPECT_EXIT(parse({"--runs", "0"}), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ParseArgsDeath, RejectsNonNumericRuns) {
  EXPECT_EXIT(parse({"--runs", "many"}), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ParseArgsDeath, RejectsTrailingGarbageInRuns) {
  EXPECT_EXIT(parse({"--runs", "3x"}), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ParseArgsDeath, RejectsMissingRunsValue) {
  EXPECT_EXIT(parse({"--runs"}), ::testing::ExitedWithCode(2),
              "missing value");
}

TEST(ParseArgsDeath, RejectsNonNumericSeed) {
  EXPECT_EXIT(parse({"--seed", "abc"}), ::testing::ExitedWithCode(2),
              "non-negative integer");
}

TEST(ParseArgs, ThreadsFlagSetsCountAndOverride) {
  const bench::BenchConfig cfg = parse({"--threads", "3"});
  EXPECT_EQ(cfg.threads, 3u);
  EXPECT_EQ(parallel::maxThreads(), 3u);  // parseArgs installs the override
  parallel::setMaxThreads(0);
}

TEST(ParseArgs, ThreadsDefaultsToAutomatic) {
  const bench::BenchConfig cfg = parse({});
  EXPECT_EQ(cfg.threads, 0u);
  EXPECT_TRUE(cfg.timing);
}

TEST(ParseArgs, NoTimingFlagDisablesTiming) {
  const bench::BenchConfig cfg = parse({"--no-timing"});
  EXPECT_FALSE(cfg.timing);
}

TEST(ParseArgsDeath, RejectsZeroThreads) {
  EXPECT_EXIT(parse({"--threads", "0"}), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ParseArgsDeath, RejectsNegativeThreads) {
  EXPECT_EXIT(parse({"--threads", "-4"}), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ParseArgsDeath, RejectsNonNumericThreads) {
  EXPECT_EXIT(parse({"--threads", "auto"}), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ParseArgsDeath, RejectsTrailingGarbageInThreads) {
  EXPECT_EXIT(parse({"--threads", "4x"}), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ParseArgsDeath, RejectsMissingThreadsValue) {
  EXPECT_EXIT(parse({"--threads"}), ::testing::ExitedWithCode(2),
              "missing value");
}

TEST(ParseArgsDeath, RejectsUnknownArgument) {
  EXPECT_EXIT(parse({"--frobnicate"}), ::testing::ExitedWithCode(2),
              "unknown argument");
}

TEST(ParseArgs, SpansFlagEnablesProfiler) {
  EXPECT_FALSE(spans::enabled());
  const bench::BenchConfig cfg = parse({"--spans"});
  EXPECT_TRUE(cfg.spans);
  EXPECT_TRUE(spans::enabled());  // parseArgs flips the global switch
  spans::setEnabled(false);
  spans::reset();
}

TEST(ParseArgs, TraceFlagTruncatesFileUpFront) {
  const std::string path = "test_bench_trace.jsonl";
  std::ofstream(path) << "stale line\n";
  const bench::BenchConfig cfg = parse({"--trace", path});
  EXPECT_EQ(cfg.trace, path);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());  // the file exists ...
  EXPECT_EQ(readFile(path), "");  // ... and was truncated before any run
  std::remove(path.c_str());
}

TEST(ParseArgsDeath, RejectsUnwritableTracePath) {
  EXPECT_EXIT(parse({"--trace", "no_such_dir/trace.jsonl"}),
              ::testing::ExitedWithCode(2), "not writable");
}

TEST(ParseArgsDeath, RejectsMissingTraceValue) {
  EXPECT_EXIT(parse({"--trace"}), ::testing::ExitedWithCode(2),
              "missing value");
}

TEST(ParseArgs, TimelineFlagStartsRecordingWithoutEnablingSpans) {
  const std::string path = "test_bench_timeline.json";
  const bench::BenchConfig cfg = parse({"--timeline", path});
  EXPECT_EQ(cfg.timeline, path);
  EXPECT_TRUE(timeline::recording());
  // The timeline is strictly outside the deterministic artifact path: the
  // flag must not flip the span profiler on.
  EXPECT_FALSE(spans::enabled());
  timeline::stop();
  std::ifstream in(path);
  EXPECT_TRUE(in.good());  // the file was created (and truncated) up front
  std::remove(path.c_str());
}

TEST(ParseArgsDeath, RejectsUnwritableTimelinePath) {
  EXPECT_EXIT(parse({"--timeline", "no_such_dir/timeline.json"}),
              ::testing::ExitedWithCode(2), "not writable");
}

TEST(ParseArgsDeath, RejectsMissingTimelineValue) {
  EXPECT_EXIT(parse({"--timeline"}), ::testing::ExitedWithCode(2),
              "missing value");
}

TEST(ParseArgsDeath, RejectsDuplicateTimelineFlag) {
  EXPECT_EXIT(parse({"--timeline", "a.json", "--timeline", "b.json"}),
              ::testing::ExitedWithCode(2), "more than once");
}

// --- AlgoStats & artifacts ----------------------------------------------

bo::SynthesisResult makeResult(double objective, bool feasible) {
  bo::SynthesisResult r;
  r.history.push_back(entry(objective, {feasible ? -1.0 : 1.0},
                            bo::Fidelity::kHigh, 1.0));
  r.best_x = r.history[0].x;
  r.best_eval = r.history[0].eval;
  r.feasible_found = feasible;
  r.equivalent_high_sims = 1.0;
  return r;
}

TEST(AlgoStats, AccumulatesRuns) {
  bench::AlgoStats stats{"algo"};
  stats.add(makeResult(-2.0, true), 0.5);
  stats.add(makeResult(-4.0, false), 1.5);
  EXPECT_EQ(stats.total_runs, 2u);
  EXPECT_EQ(stats.successes, 1u);
  ASSERT_EQ(stats.objectives.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.objectives[1], -4.0);
  ASSERT_EQ(stats.wall_times.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.wall_times[0], 0.5);
}

TEST(Artifact, WriteAndParseRoundTrip) {
  bench::BenchConfig cfg;
  cfg.seed = 42;
  cfg.out = "test_bench_artifact.json";
  bench::AlgoStats a{"alpha"}, b{"beta"};
  a.add(makeResult(-1.5, true), 0.25);
  b.add(makeResult(-0.5, false), 0.75);
  bench::writeArtifact(cfg, "test_bench", 1, {&a, &b});

  std::ifstream in(cfg.out);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const Json doc = Json::parse(text.str());
  EXPECT_EQ(doc.at("bench").asString(), "test_bench");
  EXPECT_EQ(doc.at("mode").asString(), "quick");
  EXPECT_EQ(doc.at("seed").asNumber(), 42.0);
  ASSERT_EQ(doc.at("algorithms").size(), 2u);
  const Json& alpha = doc.at("algorithms").at(0);
  EXPECT_EQ(alpha.at("name").asString(), "alpha");
  EXPECT_EQ(alpha.at("objectives").at(0).asNumber(), -1.5);
  EXPECT_EQ(alpha.at("reach_costs").at(0).asNumber(), 1.0);
  EXPECT_EQ(alpha.at("successes").asNumber(), 1.0);
  EXPECT_TRUE(doc.at("metrics").contains("counters"));
  std::remove(cfg.out.c_str());
}

TEST(ArtifactDeath, FullDiskExitsOne) {
  // /dev/full accepts the open and fails the flush with ENOSPC — the
  // canonical disk-full simulation. Neither the artifact nor a trace block
  // may be reported as written.
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "no /dev/full";
  bench::BenchConfig cfg;
  cfg.out = "/dev/full";
  EXPECT_EXIT(bench::writeArtifactFile(cfg, Json::object()),
              ::testing::ExitedWithCode(1), "cannot write artifact file");
  cfg.trace = "/dev/full";
  EXPECT_EXIT(bench::appendTrace(cfg, "{\"type\":\"run_start\"}\n"),
              ::testing::ExitedWithCode(1), "cannot write trace file");
}

TEST(Artifact, NoOutPathIsNoOp) {
  bench::BenchConfig cfg;  // out empty
  bench::AlgoStats a{"alpha"};
  bench::writeArtifact(cfg, "test_bench", 0, {&a});  // must not exit/write
  SUCCEED();
}

// --- runRepeats --trace -------------------------------------------------

bo::MfboOptions tinyMfbo() {
  bo::MfboOptions o;
  o.n_init_low = 6;
  o.n_init_high = 3;
  o.budget = 6.0;
  o.msp.n_starts = 4;
  o.msp.local.max_evaluations = 30;
  o.nargp.n_mc = 10;
  o.nargp.low.n_restarts = 1;
  o.nargp.high.n_restarts = 1;
  return o;
}

/// The --trace file of three tiny MFBO repeats run through runRepeats at
/// @p threads, as a bench binary given `--trace FILE --threads N` writes it.
std::string repeatsTrace(const char* threads) {
  const std::string path = "test_bench_repeats_trace.jsonl";
  const bench::BenchConfig cfg =
      parse({"--trace", path, "--threads", threads, "--seed", "5"});
  bench::AlgoStats stats{"mfbo"};
  bench::runRepeats(stats, bo::MfboSynthesizer(tinyMfbo()),
                    [] { return problems::ForresterProblem(); }, 3, cfg);
  parallel::setMaxThreads(0);
  const std::string text = readFile(path);
  std::remove(path.c_str());
  return text;
}

TEST(RunRepeatsTrace, EachRunIsOneBlockAndBytesMatchAcrossThreadCounts) {
  const std::string pooled = repeatsTrace("4");
  std::istringstream lines(pooled);
  std::string line;
  std::vector<double> seeds;
  bool in_run = false;
  double next_iter = 0.0;
  while (std::getline(lines, line)) {
    const Json event = Json::parse(line);
    const std::string& type = event.at("type").asString();
    if (type == "run_start") {
      ASSERT_FALSE(in_run) << "run_start inside another run's block";
      in_run = true;
      next_iter = 1.0;
      seeds.push_back(event.at("seed").asNumber());
    } else if (type == "iteration") {
      ASSERT_TRUE(in_run) << "iteration outside a run block";
      // Only this run's iterations, numbered 1..k without gaps.
      EXPECT_EQ(event.at("iter").asNumber(), next_iter);
      next_iter += 1.0;
    } else {
      ASSERT_EQ(type, "run_end");
      ASSERT_TRUE(in_run) << "run_end without its run_start";
      EXPECT_GT(next_iter, 1.0) << "run block without iterations";
      in_run = false;
    }
  }
  EXPECT_FALSE(in_run) << "last run block not closed";
  EXPECT_EQ(seeds, (std::vector<double>{5.0, 6.0, 7.0}));
  EXPECT_EQ(pooled, repeatsTrace("1")) << "trace bytes depend on threads";
}

}  // namespace
