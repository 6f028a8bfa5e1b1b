// Crash/resume differential harness for the engine checkpoint contract:
// kill the optimizer at EVERY reachable state boundary, restore the
// checkpoint into a fresh engine, drive it to completion, and require the
// final result and the suffix of observed iteration records to be
// byte-identical to the uninterrupted run — serial and at 4 threads, for
// MFBO (q ∈ {1, 2, 4}) and WEIBO. Plus the corruption battery: truncation, version/format/algo
// drift, missing and extra keys, non-finite payloads, tampered history,
// hyperparameter-stamp drift — every one a typed rejection, never a
// silently different run.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bo/engine.h"
#include "bo/mfbo.h"
#include "bo/weibo.h"
#include "common/check.h"
#include "common/json.h"
#include "common/parallel.h"
#include "mf/nargp.h"
#include "problems/synthetic.h"
#include "service/session_manager.h"

namespace {

using namespace mfbo;
using bo::EngineState;

struct ScopedThreads {
  explicit ScopedThreads(std::size_t n) { parallel::setMaxThreads(n); }
  ~ScopedThreads() { parallel::setMaxThreads(0); }
};

// Tiny-but-complete configs: a few loop iterations, both fit paths
// (retrain_every = 2 alternates full refits and incremental appends), both
// evaluation fidelities after the initial design (gamma = 0.5 keeps the
// eq. (11) threshold generous enough for high-fidelity picks within the
// budget), the budget-downgrade edge, and — for q > 1 — truncated final
// batches. These values mirror bench/micro_batch.cpp's fixtureOptions();
// the options digest inside the checkpoint turns drift between the two
// copies into a loud ContractViolation.
bo::MfboOptions tinyMfboOptions(std::size_t batch_size = 1) {
  bo::MfboOptions opt;
  opt.n_init_low = 6;
  opt.n_init_high = 3;
  opt.budget = 6.0;
  opt.gamma = 0.5;
  opt.retrain_every = 2;
  opt.batch_size = batch_size;
  opt.x_star_seeds = 2;
  opt.msp.n_starts = 4;
  opt.msp.local.max_evaluations = 30;
  opt.nargp.n_mc = 16;
  opt.nargp.low.n_restarts = 1;
  opt.nargp.high.n_restarts = 1;
  return opt;
}

bo::WeiboOptions tinyWeiboOptions() {
  bo::WeiboOptions opt;
  opt.n_init = 5;
  opt.max_sims = 8.0;
  opt.retrain_every = 2;
  opt.msp.n_starts = 4;
  opt.msp.local.max_evaluations = 30;
  opt.gp.n_restarts = 1;
  return opt;
}

problems::ConstrainedQuadraticProblem tinyProblem() {
  return problems::ConstrainedQuadraticProblem(2);
}

/// @p options with an observer collecting each iteration record's JSONL
/// line (bo::iterationJson) into @p events.
template <typename Options>
Options observed(Options options, std::vector<std::string>& events) {
  options.observer = [&events](const bo::IterationRecord& record) {
    events.push_back(bo::iterationJson(record).dump());
  };
  return options;
}

/// Uninterrupted reference run, with a checkpoint and a trace-position mark
/// taken at every state boundary along the way.
struct ReferenceRun {
  std::vector<Json> checkpoints;           ///< one per boundary
  std::vector<std::size_t> trace_marks;    ///< events observed before it
  std::vector<std::string> events;         ///< full trace, one dump per event
  std::string result;                      ///< final result JSON bytes
};

template <typename Engine, typename Options>
ReferenceRun referenceRun(const Options& options, std::uint64_t seed) {
  auto problem = tinyProblem();
  ReferenceRun out;
  Engine engine(problem, seed, observed(options, out.events));
  while (!engine.done()) {
    out.checkpoints.push_back(engine.checkpoint());
    out.trace_marks.push_back(out.events.size());
    engine.step();
  }
  out.result = bo::synthesisResultToJson(engine.takeResult()).dump();
  return out;
}

/// Restore @p ckpt into a fresh engine, run to completion, and return
/// {result bytes, trace events}.
template <typename Engine, typename Options>
std::pair<std::string, std::vector<std::string>> resumedRun(
    const Options& options, const Json& ckpt) {
  auto problem = tinyProblem();
  std::vector<std::string> events;
  Engine engine(problem, 0, observed(options, events));
  engine.restore(ckpt);
  const std::string result =
      bo::synthesisResultToJson(engine.run()).dump();
  return {result, events};
}

/// The differential: for every boundary checkpoint of the reference run,
/// resume and require byte-identical result + trace suffix.
template <typename Engine, typename Options>
void killResumeSweep(const Options& options, std::uint64_t seed,
                     const char* label) {
  const ReferenceRun ref = referenceRun<Engine>(options, seed);
  ASSERT_GE(ref.checkpoints.size(), 5u) << label << ": degenerate run";
  for (std::size_t k = 0; k < ref.checkpoints.size(); ++k) {
    const auto resumed = resumedRun<Engine>(options, ref.checkpoints[k]);
    EXPECT_EQ(resumed.first, ref.result)
        << label << ": result diverged resuming from boundary " << k << " ("
        << ref.checkpoints[k].at("state").asString() << ")";
    const std::size_t mark = ref.trace_marks[k];
    ASSERT_EQ(resumed.second.size(), ref.events.size() - mark)
        << label << ": trace suffix length diverged at boundary " << k;
    for (std::size_t e = 0; e < resumed.second.size(); ++e)
      EXPECT_EQ(resumed.second[e], ref.events[mark + e])
          << label << ": trace event " << e << " diverged at boundary " << k;
  }
}

// --- the kill/resume differential ----------------------------------------

TEST(KillResume, MfboEveryBoundarySerial) {
  const ScopedThreads scope(1);
  killResumeSweep<bo::MfboEngine>(tinyMfboOptions(1), 11, "mfbo q=1");
}

TEST(KillResume, MfboBatch2EveryBoundarySerial) {
  const ScopedThreads scope(1);
  killResumeSweep<bo::MfboEngine>(tinyMfboOptions(2), 11, "mfbo q=2");
}

TEST(KillResume, MfboBatch4EveryBoundarySerial) {
  const ScopedThreads scope(1);
  killResumeSweep<bo::MfboEngine>(tinyMfboOptions(4), 11, "mfbo q=4");
}

TEST(KillResume, WeiboEveryBoundarySerial) {
  const ScopedThreads scope(1);
  killResumeSweep<bo::WeiboEngine>(tinyWeiboOptions(), 11, "weibo");
}

TEST(KillResume, MfboEveryBoundaryPooled) {
  const ScopedThreads scope(4);
  killResumeSweep<bo::MfboEngine>(tinyMfboOptions(2), 11, "mfbo q=2 t=4");
}

TEST(KillResume, CheckpointTakenSerialResumesIdenticallyAtFourThreads) {
  // The strongest cross-thread statement: a checkpoint written by a serial
  // process must resume on a 4-thread process to the same bytes the serial
  // process would have produced.
  const bo::MfboOptions options = tinyMfboOptions(2);
  ReferenceRun ref;
  {
    const ScopedThreads scope(1);
    ref = referenceRun<bo::MfboEngine>(options, 13);
  }
  const std::size_t k = ref.checkpoints.size() / 2;
  const ScopedThreads scope(4);
  const auto resumed =
      resumedRun<bo::MfboEngine>(options, ref.checkpoints[k]);
  EXPECT_EQ(resumed.first, ref.result);
  ASSERT_EQ(resumed.second.size(), ref.events.size() - ref.trace_marks[k]);
  for (std::size_t e = 0; e < resumed.second.size(); ++e)
    EXPECT_EQ(resumed.second[e], ref.events[ref.trace_marks[k] + e]);
}

TEST(KillResume, SweepCoversBothFidelitiesAndBothFitPaths) {
  // Coverage guard for the sweeps above: the tiny config must actually
  // reach post-init evaluations at BOTH fidelities (their replay cursors
  // are separate code paths) and both the refit and the incremental fit
  // boundary — otherwise the sweep silently stops testing them.
  const ScopedThreads scope(1);
  auto problem = tinyProblem();
  const bo::MfboOptions opt = tinyMfboOptions(1);
  bo::MfboEngine engine(problem, 11, opt);
  while (!engine.done()) engine.step();
  const bo::SynthesisResult result = engine.takeResult();
  const std::size_t n_init = opt.n_init_low + opt.n_init_high;
  ASSERT_GT(result.history.size(), n_init + 2);
  std::size_t post_low = 0;
  std::size_t post_high = 0;
  for (std::size_t i = n_init; i < result.history.size(); ++i)
    (result.history[i].fidelity == bo::Fidelity::kHigh ? post_high
                                                       : post_low) += 1;
  EXPECT_GT(post_low, 0u);
  EXPECT_GT(post_high, 0u);
  EXPECT_GT(result.history.size() - n_init, opt.retrain_every)
      << "too few iterations to hit both a refit and an incremental fit";
}

TEST(KillResume, ResumedRunsDifferAcrossBoundaries) {
  // Degeneracy guard for the sweep above: distinct boundaries carry
  // distinct state (a checkpoint that ignored its position would also pass
  // a comparison against a fixed golden).
  const ScopedThreads scope(1);
  const ReferenceRun ref =
      referenceRun<bo::MfboEngine>(tinyMfboOptions(1), 11);
  ASSERT_GE(ref.checkpoints.size(), 3u);
  EXPECT_NE(ref.checkpoints.front().dump(), ref.checkpoints.back().dump());
  EXPECT_NE(ref.trace_marks.front(), ref.trace_marks.back());
}

TEST(KillResume, CheckpointSerializationRoundTrips) {
  // Through bytes, not just the in-memory Json: dump → parse → restore.
  const ScopedThreads scope(1);
  const bo::MfboOptions options = tinyMfboOptions(1);
  const ReferenceRun ref = referenceRun<bo::MfboEngine>(options, 11);
  const std::size_t k = ref.checkpoints.size() / 2;
  const Json reparsed = Json::parse(ref.checkpoints[k].dump());
  const auto resumed = resumedRun<bo::MfboEngine>(options, reparsed);
  EXPECT_EQ(resumed.first, ref.result);
}

// --- corruption battery --------------------------------------------------

/// A checkpoint with real content: taken mid-run, after at least one
/// iteration has been observed.
template <typename Engine = bo::MfboEngine, typename Options>
Json midRunCheckpoint(const Options& options, std::uint64_t seed) {
  auto problem = tinyProblem();
  Engine engine(problem, seed, options);
  // Step past init + first fit + one full iteration.
  for (int i = 0; i < 6; ++i) {
    if (engine.done()) break;
    engine.step();
  }
  return engine.checkpoint();
}

/// Expect ContractViolation when restoring @p ckpt with default options.
void expectRejected(const Json& ckpt, const char* label) {
  auto problem = tinyProblem();
  bo::MfboEngine engine(problem, 0, tinyMfboOptions(1));
  EXPECT_THROW(engine.restore(ckpt), ContractViolation) << label;
}

Json withoutKey(const Json& obj, const std::string& key) {
  Json out = Json::object();
  for (const auto& [k, v] : obj.members())
    if (k != key) out.set(k, v);
  return out;
}

TEST(CheckpointCorruption, TruncatedDocumentFailsToParse) {
  const Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
  const std::string bytes = ckpt.dump();
  // A killed writer leaves a prefix; every proper prefix must be a parse
  // error (std::runtime_error), clearly distinct from the
  // ContractViolation a *parsed-but-wrong* checkpoint raises.
  for (const std::size_t cut :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{1}})
    EXPECT_THROW(Json::parse(bytes.substr(0, cut)), std::runtime_error)
        << "prefix of " << cut << " bytes parsed";
}

TEST(CheckpointCorruption, WrongVersionIsRejected) {
  Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
  ckpt.set("version", 2);
  expectRejected(ckpt, "version 2");
  ckpt.set("version", 0);
  expectRejected(ckpt, "version 0");
}

TEST(CheckpointCorruption, WrongFormatOrAlgoIsRejected) {
  Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
  {
    Json bad = ckpt;
    bad.set("format", "mfbo-engine-snapshot");
    expectRejected(bad, "format string");
  }
  {
    Json bad = ckpt;
    bad.set("algo", "weibo");
    expectRejected(bad, "mfbo checkpoint into weibo slot");
  }
  {
    // And the symmetric direction: an mfbo checkpoint into a WeiboEngine.
    auto problem = tinyProblem();
    bo::WeiboEngine engine(problem, 0, tinyWeiboOptions());
    EXPECT_THROW(engine.restore(ckpt), ContractViolation);
  }
}

TEST(CheckpointCorruption, EveryMissingTopLevelKeyIsRejected) {
  const Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
  ASSERT_TRUE(ckpt.isObject());
  for (const auto& [key, value] : ckpt.members())
    expectRejected(withoutKey(ckpt, key), key.c_str());
}

TEST(CheckpointCorruption, ExtraKeysAreRejected) {
  Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
  ckpt.set("vendor_extension", 1);
  expectRejected(ckpt, "extra top-level key");

  Json nested = midRunCheckpoint(tinyMfboOptions(1), 17);
  Json policy = nested.at("policy");
  policy.set("extra", true);
  nested.set("policy", std::move(policy));
  expectRejected(nested, "extra policy key");
}

TEST(CheckpointCorruption, NonFinitePayloadsAreRejected) {
  // The writer serializes non-finite doubles as null; a checkpoint whose
  // required numeric fields come back null must be rejected, not NaN-ed.
  for (const char* field : {"cost", "iteration", "n_low", "n_high"}) {
    Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
    ckpt.set(field, Json::null());
    expectRejected(ckpt, field);
  }
  // Same inside a history entry: a NaN objective would poison the GPs.
  Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
  Json history = Json::array();
  for (std::size_t i = 0; i < ckpt.at("history").size(); ++i) {
    Json entry = ckpt.at("history").at(i);
    if (i == 0) entry.set("objective", Json::null());
    history.push(std::move(entry));
  }
  ckpt.set("history", std::move(history));
  expectRejected(ckpt, "null history objective");
}

TEST(CheckpointCorruption, NonIntegralCountsAreRejected) {
  Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
  ckpt.set("iteration", 1.5);
  expectRejected(ckpt, "fractional iteration");
}

TEST(CheckpointCorruption, BadSeedOrRngTokenIsRejected) {
  for (const char* seed : {"", "12x", "-3", "99999999999999999999999"}) {
    Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
    ckpt.set("seed", seed);
    expectRejected(ckpt, seed);
  }
  Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
  ckpt.set("rng", "rng-v2 1 2 3");
  expectRejected(ckpt, "rng tag");
}

TEST(CheckpointCorruption, BadStateIsRejected) {
  Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
  ckpt.set("state", "done");
  expectRejected(ckpt, "state done");
  ckpt.set("state", "bogus");
  expectRejected(ckpt, "state bogus");
}

TEST(CheckpointCorruption, TamperedHistoryCostIsRejected) {
  // The cost meter is recomputed additively and compared bit-exact per
  // entry: a flipped cost (or a flipped fidelity, which changes the
  // charge) cannot slip through.
  Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
  Json history = Json::array();
  for (std::size_t i = 0; i < ckpt.at("history").size(); ++i) {
    Json entry = ckpt.at("history").at(i);
    if (i == 1) entry.set("cost", entry.at("cost").asNumber() + 1e-9);
    history.push(std::move(entry));
  }
  ckpt.set("history", std::move(history));
  expectRejected(ckpt, "tampered cost");
}

TEST(CheckpointCorruption, TamperedHyperparameterStampIsRejected) {
  // The stamp is an exact integrity check on the replayed surrogates.
  Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
  Json policy = ckpt.at("policy");
  const Json& stamp = policy.at("surrogates");
  ASSERT_TRUE(stamp.isArray()) << "mid-run checkpoint must carry a stamp";
  Json tampered = Json::array();
  for (std::size_t m = 0; m < stamp.size(); ++m) {
    Json row = Json::array();
    for (std::size_t i = 0; i < stamp.at(m).size(); ++i) {
      const double v = stamp.at(m).at(i).asNumber();
      row.push(Json::number(
          m == 0 && i == 0 ? std::nextafter(v, v + 1.0) : v));
    }
    tampered.push(std::move(row));
  }
  policy.set("surrogates", std::move(tampered));
  ckpt.set("policy", std::move(policy));
  expectRejected(ckpt, "tampered stamp");
}

TEST(CheckpointCorruption, MismatchedOptionsAreRejected) {
  const Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
  const auto reject_with = [&](bo::MfboOptions options, const char* label) {
    auto problem = tinyProblem();
    bo::MfboEngine engine(problem, 0, std::move(options));
    EXPECT_THROW(engine.restore(ckpt), ContractViolation) << label;
  };
  {
    bo::MfboOptions o = tinyMfboOptions(1);
    o.gamma = 0.02;
    reject_with(std::move(o), "gamma drift");
  }
  {
    bo::MfboOptions o = tinyMfboOptions(1);
    o.batch_size = 2;
    reject_with(std::move(o), "batch size drift");
  }
  {
    bo::MfboOptions o = tinyMfboOptions(1);
    o.msp.n_starts = 5;
    reject_with(std::move(o), "msp drift");
  }
  {
    bo::MfboOptions o = tinyMfboOptions(1);
    o.nargp.n_mc = 32;
    reject_with(std::move(o), "nargp drift");
  }
  // custom_surrogate is both-or-neither. The factory builds exactly the
  // default NARGP models, so the replayed stamp would match and only the
  // options digest can tell the two configurations apart, either way.
  bo::MfboOptions custom = tinyMfboOptions(1);
  custom.surrogate_factory = [](std::size_t x_dim, std::uint64_t s) {
    mf::NargpConfig cfg = tinyMfboOptions(1).nargp;
    cfg.seed = s;
    cfg.low.seed = s + 17;
    cfg.high.seed = s + 31;
    return std::make_unique<mf::NargpModel>(x_dim, cfg);
  };
  reject_with(custom, "custom surrogate, plain checkpoint");
  const Json custom_ckpt = midRunCheckpoint(custom, 17);
  {
    auto problem = tinyProblem();
    bo::MfboEngine engine(problem, 0, tinyMfboOptions(1));
    EXPECT_THROW(engine.restore(custom_ckpt), ContractViolation)
        << "plain surrogate, custom checkpoint";
  }
  {
    auto problem = tinyProblem();
    bo::MfboEngine engine(problem, 0, custom);
    EXPECT_NO_THROW(engine.restore(custom_ckpt)) << "custom into custom";
  }

  // WEIBO runs the same options check against its own digest.
  const Json weibo_ckpt =
      midRunCheckpoint<bo::WeiboEngine>(tinyWeiboOptions(), 17);
  const auto reject_weibo = [&](bo::WeiboOptions options, const char* label) {
    auto problem = tinyProblem();
    bo::WeiboEngine engine(problem, 0, std::move(options));
    EXPECT_THROW(engine.restore(weibo_ckpt), ContractViolation) << label;
  };
  {
    bo::WeiboOptions o = tinyWeiboOptions();
    o.max_sims = 9.0;
    reject_weibo(std::move(o), "weibo max_sims drift");
  }
  {
    bo::WeiboOptions o = tinyWeiboOptions();
    o.gp.n_restarts = 2;
    reject_weibo(std::move(o), "weibo gp drift");
  }
  {
    bo::WeiboOptions o = tinyWeiboOptions();
    o.msp.n_starts = 5;
    reject_weibo(std::move(o), "weibo msp drift");
  }
  // Control: the unmodified options accept the same document.
  auto problem = tinyProblem();
  bo::WeiboEngine engine(problem, 0, tinyWeiboOptions());
  EXPECT_NO_THROW(engine.restore(weibo_ckpt));
}

TEST(CheckpointCorruption, MismatchedProblemIsRejected) {
  const Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
  {
    problems::ConstrainedQuadraticProblem wrong_dim(3);
    bo::MfboEngine engine(wrong_dim, 0, tinyMfboOptions(1));
    EXPECT_THROW(engine.restore(ckpt), ContractViolation) << "dim";
  }
  {
    problems::ConstrainedQuadraticProblem wrong_ratio(2, /*cost_ratio=*/5.0);
    bo::MfboEngine engine(wrong_ratio, 0, tinyMfboOptions(1));
    EXPECT_THROW(engine.restore(ckpt), ContractViolation) << "cost ratio";
  }
  {
    problems::BraninMfProblem wrong_name;
    bo::MfboEngine engine(wrong_name, 0, tinyMfboOptions(1));
    EXPECT_THROW(engine.restore(ckpt), ContractViolation) << "name";
  }
}

TEST(CheckpointCorruption, EmptyBatchEntryIsRejected) {
  Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
  Json batches = ckpt.at("batches");
  batches.push(Json::number(0.0));
  ckpt.set("batches", std::move(batches));
  expectRejected(ckpt, "zero-size batch");

  // A batch larger than batch_size: merge the first two completed q = 1
  // batches, which keeps the iteration count and history consistent.
  auto problem = tinyProblem();
  bo::MfboEngine engine(problem, 17, tinyMfboOptions(1));
  while (!engine.done() && engine.checkpoint().at("batches").size() < 2)
    engine.step();
  Json merged = engine.checkpoint();
  const Json& table = merged.at("batches");
  ASSERT_EQ(table.size(), 2u);
  const double merged_size = table.at(0).asNumber() + table.at(1).asNumber();
  Json oversized = Json::array();
  oversized.push(Json::number(merged_size));
  merged.set("batches", std::move(oversized));
  expectRejected(merged, "batch larger than batch_size");
}

TEST(CheckpointCorruption, RestoreRequiresAFreshEngine) {
  const Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
  auto problem = tinyProblem();
  bo::MfboEngine engine(problem, 0, tinyMfboOptions(1));
  engine.step();  // no longer fresh
  EXPECT_THROW(engine.restore(ckpt), ContractViolation);
}

TEST(CheckpointCorruption, RestoreRejectionLeavesNoHalfRestoredRun) {
  // After a rejected restore the engine must refuse to run rather than
  // continue on half-ingested state.
  Json bad = midRunCheckpoint(tinyMfboOptions(1), 17);
  bad.set("rng", "rng-v2 broken");  // rejected late, after history ingest
  auto problem = tinyProblem();
  bo::MfboEngine engine(problem, 0, tinyMfboOptions(1));
  EXPECT_THROW(engine.restore(bad), ContractViolation);
  EXPECT_THROW(engine.restore(midRunCheckpoint(tinyMfboOptions(1), 17)),
               ContractViolation)
      << "a failed restore must not leave the engine looking fresh";
}

// --- multi-session isolation ----------------------------------------------

/// One corrupted checkpoint in a shared recovery directory must poison only
/// its own session: recovery is per-id, so the tampered session's create()
/// is a ContractViolation and the session is not admitted, while every
/// other session resumes from its own file and completes byte-identically
/// to an uninterrupted run.
TEST(CheckpointCorruption, TamperedSessionRejectsAloneOthersResume) {
  const ScopedThreads threads(1);
  const auto spec = [](const std::string& id, std::uint64_t seed) {
    service::SessionSpec s;
    s.id = id;
    s.problem = [] {
      return std::make_unique<problems::ConstrainedQuadraticProblem>(2);
    };
    s.engine = [seed](bo::Problem& problem) {
      return std::make_unique<bo::MfboEngine>(problem, seed,
                                              tinyMfboOptions(1));
    };
    return s;
  };
  const std::vector<std::string> ids = {"good0", "evil", "good1"};

  // Uninterrupted reference results.
  std::vector<std::string> reference;
  {
    service::SessionManager manager;
    for (std::size_t i = 0; i < ids.size(); ++i)
      manager.create(spec(ids[i], 900 + i));
    manager.runAll();
    for (const std::string& id : ids)
      reference.push_back(manager.session(id).resultJson().dump());
  }

  // Interrupted run: a few rounds, every step persisted, then "killed".
  service::SessionManagerOptions options;
  options.checkpoint_dir = testing::TempDir() + "mfbo_tampered_recovery";
  std::filesystem::remove_all(options.checkpoint_dir);
  {
    service::SessionManager manager(options);
    for (std::size_t i = 0; i < ids.size(); ++i)
      manager.create(spec(ids[i], 900 + i));
    for (int round = 0; round < 8; ++round) manager.stepRound();
  }

  // Tamper with one session's persisted checkpoint: flip its recorded cost.
  const std::string evil_path = options.checkpoint_dir + "/evil.ckpt.json";
  Json evil = [&] {
    std::ifstream in(evil_path);
    std::stringstream buf;
    buf << in.rdbuf();
    return Json::parse(buf.str());
  }();
  Json engine_state = evil.at("engine");
  engine_state.set("cost", engine_state.at("cost").asNumber() + 1.0);
  evil.set("engine", engine_state);
  {
    std::ofstream out(evil_path);
    out << evil.dump();
  }

  // Recovery: the tampered session alone is rejected and not admitted;
  // the others restore and finish with the reference bytes.
  service::SessionManager recovered(options);
  recovered.create(spec(ids[0], 900));
  EXPECT_THROW(recovered.create(spec(ids[1], 901)), ContractViolation);
  recovered.create(spec(ids[2], 902));
  EXPECT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered.find("evil"), nullptr);
  recovered.runAll();
  EXPECT_EQ(recovered.session("good0").resultJson().dump(), reference[0]);
  EXPECT_EQ(recovered.session("good1").resultJson().dump(), reference[2]);
}

// --- committed golden fixture --------------------------------------------

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MFBO_CHECK(in.good(), "cannot open fixture file '", path, "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Generated by `micro_batch --dump-checkpoint` (see
// tools/regen_baselines.sh); the options mirrored by tinyMfboOptions().
const char* const kFixturePath = MFBO_FIXTURE_DIR "/resume_fixture.json";

TEST(CheckpointFixture, CommittedFixtureRestoresToItsCommittedResult) {
  // The cross-build/cross-machine statement the in-process sweeps cannot
  // make: a checkpoint written by a *previous* build of this code must
  // restore on this build and reproduce the committed result bytes.
  const ScopedThreads scope(1);
  const Json fixture = Json::parse(readFile(kFixturePath));
  ASSERT_EQ(fixture.at("format").asString(), "mfbo-engine-resume-fixture");
  ASSERT_EQ(fixture.at("version").asNumber(), 1.0);
  const auto resumed =
      resumedRun<bo::MfboEngine>(tinyMfboOptions(2), fixture.at("checkpoint"));
  EXPECT_EQ(resumed.first, fixture.at("result").dump());
}

TEST(CheckpointFixture, CommittedCheckpointMatchesThePinnedSchema) {
  // Pins the *committed bytes* (the writer pin below covers fresh ones):
  // a schema change that regenerates the fixture still has to touch this
  // list, making the compatibility break an explicit review item.
  const Json fixture = Json::parse(readFile(kFixturePath));
  const Json& ckpt = fixture.at("checkpoint");
  EXPECT_EQ(ckpt.at("format").asString(), "mfbo-engine-checkpoint");
  EXPECT_EQ(ckpt.at("version").asNumber(), 1.0);
  EXPECT_EQ(ckpt.at("algo").asString(), "mfbo");
  EXPECT_EQ(ckpt.at("problem").at("name").asString(), "constrained-quadratic");
}

// --- schema pin ----------------------------------------------------------

TEST(CheckpointSchema, TopLevelKeySetIsPinned) {
  const Json ckpt = midRunCheckpoint(tinyMfboOptions(1), 17);
  const std::vector<std::string> expected = {
      "format",   "version", "algo",    "state",         "problem",
      "seed",     "rng",     "iteration", "cost",        "n_low",
      "n_high",   "models_fitted", "batches", "history", "pending",
      "policy"};
  ASSERT_EQ(ckpt.members().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(ckpt.members()[i].first, expected[i]) << "slot " << i;
  EXPECT_EQ(ckpt.at("format").asString(), "mfbo-engine-checkpoint");
  EXPECT_EQ(ckpt.at("version").asNumber(), 1.0);
  EXPECT_TRUE(ckpt.at("seed").isString())
      << "seed must be a decimal string: a JSON double cannot carry all "
         "uint64 values";
}

}  // namespace
