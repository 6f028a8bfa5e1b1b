// Service-layer battery for SessionManager/Session: round-robin fairness
// (no session starves another), solo-vs-8-concurrent byte-identity of the
// --no-timing artifacts at 1 and 4 threads (the per-session telemetry
// registry and span arena in action), kill-at-every-scheduler-boundary
// crash recovery through the persisted checkpoints, completed-run adoption
// from result documents, and the pause/resume/destroy lifecycle contracts.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bo/engine.h"
#include "bo/mfbo.h"
#include "common/check.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/spans.h"
#include "problems/synthetic.h"
#include "service/session_manager.h"

namespace {

using namespace mfbo;
using service::Session;
using service::SessionManager;
using service::SessionManagerOptions;
using service::SessionSpec;
using service::SessionStatus;

/// RAII thread-count override so a failing ASSERT cannot leak the setting
/// into later tests.
struct ScopedThreads {
  explicit ScopedThreads(std::size_t n) { parallel::setMaxThreads(n); }
  ~ScopedThreads() { parallel::setMaxThreads(0); }
};

/// Tiny-but-complete MFBO config: a few loop iterations, both fit paths
/// (retrain_every = 2), both fidelities, and — with batch_size = 2 — the
/// pool-task evaluation fan-out. Smaller than the checkpoint fixture: the
/// session tests run dozens of these.
bo::MfboOptions sessionOptions(std::size_t batch_size, double budget = 2.5) {
  bo::MfboOptions opt;
  opt.n_init_low = 4;
  opt.n_init_high = 2;
  opt.budget = budget;
  opt.gamma = 0.5;
  opt.retrain_every = 2;
  opt.batch_size = batch_size;
  opt.x_star_seeds = 2;
  opt.msp.n_starts = 2;
  opt.msp.local.max_evaluations = 20;
  opt.nargp.n_mc = 8;
  opt.nargp.low.n_restarts = 1;
  opt.nargp.high.n_restarts = 1;
  return opt;
}

SessionSpec makeSpec(std::string id, std::uint64_t seed,
                     std::size_t batch_size = 1, double budget = 2.5) {
  SessionSpec spec;
  spec.id = std::move(id);
  spec.problem = [] {
    return std::make_unique<problems::ConstrainedQuadraticProblem>(2);
  };
  spec.engine = [seed, batch_size, budget](bo::Problem& problem) {
    return std::make_unique<bo::MfboEngine>(
        problem, seed, sessionOptions(batch_size, budget));
  };
  return spec;
}

/// The 8-session mixed workload the identity and recovery tests share:
/// distinct seeds, q = 1 and q = 2 interleaved.
std::vector<SessionSpec> eightSpecs() {
  std::vector<SessionSpec> specs;
  for (std::size_t i = 0; i < 8; ++i)
    specs.push_back(makeSpec("s" + std::to_string(i), 100 + i, 1 + i % 2));
  return specs;
}

/// Drive one session to completion outside any manager — the solo
/// reference the concurrent artifacts must match byte-for-byte.
Json soloArtifact(SessionSpec spec) {
  Session session(std::move(spec));
  while (!session.done()) session.step();
  return session.artifactJson(/*include_timing=*/false);
}

/// Per-test recovery directory, wiped on the way in: recovery is id-keyed
/// and deliberately adopts whatever a previous process persisted, so stale
/// files from an earlier test-binary invocation would otherwise satisfy
/// create() before the test ever stepped a session.
std::string uniqueDir(const std::string& stem) {
  const std::string dir = testing::TempDir() + "mfbo_" + stem;
  std::filesystem::remove_all(dir);
  return dir;
}

bool fileExists(const std::string& path) {
  return std::ifstream(path).good();
}

// --- session lifecycle ---------------------------------------------------

TEST(Session, SoloRunCompletesAndReportsResultAndArtifact) {
  Session session(makeSpec("solo", 7));
  EXPECT_EQ(session.status(), SessionStatus::kRunning);
  EXPECT_EQ(session.steps(), 0u);
  while (!session.done()) session.step();
  EXPECT_GT(session.steps(), 4u);

  const Json& result = session.resultJson();
  EXPECT_EQ(result.at("format").asString(), "mfbo-session-result");
  EXPECT_EQ(result.at("session").asString(), "solo");
  EXPECT_EQ(result.at("algo").asString(), "mfbo");
  EXPECT_TRUE(result.at("result").isObject());

  Json artifact = session.artifactJson(false);
  EXPECT_EQ(artifact.at("format").asString(), "mfbo-session-artifact");
  EXPECT_EQ(artifact.at("status").asString(), "done");
  EXPECT_EQ(artifact.at("steps").asNumber(),
            static_cast<double>(session.steps()));
  // The session's private registry carries the engine's counters.
  EXPECT_TRUE(artifact.at("metrics").at("counters").contains(
      "bo.mfbo.iterations"));
}

TEST(Session, ContractViolationsOnMisuse) {
  EXPECT_THROW(Session(makeSpec("", 1)), ContractViolation);
  EXPECT_THROW(Session(makeSpec("bad id", 1)), ContractViolation);
  EXPECT_THROW(Session(makeSpec("bad/id", 1)), ContractViolation);

  Session session(makeSpec("ok", 1));
  EXPECT_THROW(session.resultJson(), ContractViolation);
  EXPECT_THROW(session.resume(), ContractViolation);
  session.pause();
  EXPECT_THROW(session.step(), ContractViolation);
  EXPECT_THROW(session.pause(), ContractViolation);
  session.resume();
  while (!session.done()) session.step();
  EXPECT_THROW(session.step(), ContractViolation);
  EXPECT_THROW(session.checkpoint(), ContractViolation);
}

TEST(Session, TwoInterleavedSessionsKeepTelemetrySeparate) {
  // The PR-motivating bug: before per-session registries, two engines
  // stepping in the same process interleaved their counters in one global
  // store. Interleave two sessions step-by-step and require each one's
  // counters to equal its solo run's.
  const Json ref_a = soloArtifact(makeSpec("a", 21));
  const Json ref_b = soloArtifact(makeSpec("b", 22, 2));
  Session a(makeSpec("a", 21));
  Session b(makeSpec("b", 22, 2));
  while (!a.done() || !b.done()) {
    if (!a.done()) a.step();
    if (!b.done()) b.step();
  }
  EXPECT_EQ(a.artifactJson(false).dump(), ref_a.dump());
  EXPECT_EQ(b.artifactJson(false).dump(), ref_b.dump());
}

// --- fairness ------------------------------------------------------------

TEST(SessionManager, RoundRobinNeverStarvesASession) {
  SessionManager manager;
  for (auto& spec : eightSpecs()) manager.create(std::move(spec));

  // Fairness contract: after every round, each still-running session has
  // been stepped exactly `rounds` times — the per-session step counts of
  // runnable sessions never differ, no matter how uneven the step costs
  // (q = 2 sessions do twice the simulation work per AwaitResults step).
  std::size_t rounds = 0;
  while (manager.stepRound() > 0) {
    ++rounds;
    for (const std::string& id : manager.ids()) {
      const Session& session = *manager.find(id);
      if (session.status() == SessionStatus::kRunning)
        ASSERT_EQ(session.steps(), rounds) << "session " << id
                                           << " starved or over-scheduled";
      else
        ASSERT_LE(session.steps(), rounds);
    }
  }
  for (const std::string& id : manager.ids())
    EXPECT_TRUE(manager.find(id)->done());
}

// --- solo vs concurrent byte identity ------------------------------------

TEST(SessionManager, EightConcurrentSessionsMatchSoloByteIdentical) {
  // The acceptance criterion: 8 concurrent sessions on a 4-thread pool
  // each produce a --no-timing artifact byte-identical to the same spec
  // run solo — counters, span trees, and per-span allocation attribution
  // included. Run with the profiler on for full strength.
  spans::setEnabled(true);
  std::vector<std::string> solo;
  {
    ScopedThreads threads(1);
    for (auto& spec : eightSpecs()) solo.push_back(soloArtifact(std::move(spec)).dump());
  }

  const auto concurrent = [&](std::size_t n_threads, SessionManagerOptions options) {
    ScopedThreads threads(n_threads);
    SessionManager manager(std::move(options));
    for (auto& spec : eightSpecs()) manager.create(std::move(spec));
    manager.runAll();
    std::vector<std::string> artifacts;
    for (const std::string& id : manager.ids())
      artifacts.push_back(manager.session(id).artifactJson(false).dump());
    return artifacts;
  };

  // 4-thread pool, persistence off.
  const std::vector<std::string> pooled = concurrent(4, {});
  // 1 thread, with periodic persistence — proving both that thread count
  // and that checkpoint serialization stay invisible to the artifacts.
  SessionManagerOptions persisted;
  persisted.checkpoint_dir = uniqueDir("identity");
  persisted.checkpoint_every = 2;
  const std::vector<std::string> serial = concurrent(1, std::move(persisted));

  spans::setEnabled(false);
  spans::reset();

  ASSERT_EQ(pooled.size(), solo.size());
  ASSERT_EQ(serial.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(pooled[i], solo[i]) << "session " << i
                                  << " diverged among 8 concurrent at t=4";
    EXPECT_EQ(serial[i], solo[i]) << "session " << i
                                  << " diverged among 8 concurrent at t=1";
  }
}

// --- crash recovery ------------------------------------------------------

/// Step the manager exactly @p budget session-steps in stepRound() order —
/// creation-order round-robin — persisting every boundary, then stop: a
/// simulated kill at an arbitrary scheduler boundary, mid-round included.
void driveAndAbandon(SessionManager& manager, std::size_t budget) {
  while (budget > 0) {
    bool any = false;
    for (const std::string& id : manager.ids()) {
      Session& session = manager.session(id);
      if (session.status() != SessionStatus::kRunning) continue;
      session.step();
      manager.persist(id);
      any = true;
      if (--budget == 0) return;
    }
    if (!any) return;
  }
}

TEST(SessionManager, KillAtEverySchedulerBoundaryRecoversEverySession) {
  ScopedThreads threads(1);
  const std::vector<std::uint64_t> seeds = {31, 32};
  // Longer runs than the other tests: the sweep needs enough scheduler
  // boundaries (several loop iterations per session) to be meaningful.
  const double kBudget = 4.5;

  // Uninterrupted reference: result bytes and the total boundary count.
  std::vector<std::string> reference;
  std::size_t total_steps = 0;
  {
    SessionManager manager;
    manager.create(makeSpec("r0", seeds[0], 1, kBudget));
    manager.create(makeSpec("r1", seeds[1], 2, kBudget));
    manager.runAll();
    for (const std::string& id : manager.ids()) {
      reference.push_back(manager.session(id).resultJson().dump());
      total_steps += manager.session(id).steps();
    }
  }
  ASSERT_GT(total_steps, 20u) << "workload too small to exercise recovery";

  for (std::size_t boundary = 0; boundary <= total_steps; ++boundary) {
    SessionManagerOptions options;
    options.checkpoint_dir =
        uniqueDir("killsweep_" + std::to_string(boundary));
    // Phase 1: run to the boundary and abandon — the kill. Every step was
    // persisted, so the directory holds each session's last boundary.
    {
      SessionManager manager(options);
      manager.create(makeSpec("r0", seeds[0], 1, kBudget));
      manager.create(makeSpec("r1", seeds[1], 2, kBudget));
      driveAndAbandon(manager, boundary);
    }
    // Phase 2: a fresh process image restarts every in-flight session from
    // its persisted boundary and completes byte-identically.
    SessionManager recovered(options);
    recovered.create(makeSpec("r0", seeds[0], 1, kBudget));
    recovered.create(makeSpec("r1", seeds[1], 2, kBudget));
    recovered.runAll();
    const std::vector<std::string> ids = recovered.ids();
    for (std::size_t i = 0; i < ids.size(); ++i)
      ASSERT_EQ(recovered.session(ids[i]).resultJson().dump(), reference[i])
          << "session " << ids[i] << " diverged after a kill at boundary "
          << boundary << "/" << total_steps;
  }
}

TEST(SessionManager, CompletedSessionIsAdoptedFromItsResultDocument) {
  ScopedThreads threads(1);
  SessionManagerOptions options;
  options.checkpoint_dir = uniqueDir("adopt");

  std::string reference;
  {
    SessionManager manager(options);
    manager.create(makeSpec("done1", 41));
    manager.runAll();
    reference = manager.session("done1").resultJson().dump();
  }
  EXPECT_TRUE(fileExists(options.checkpoint_dir + "/done1.result.json"));
  // The checkpoint is superseded by the result document.
  EXPECT_FALSE(fileExists(options.checkpoint_dir + "/done1.ckpt.json"));

  SessionManager recovered(options);
  Session& session = recovered.create(makeSpec("done1", 41));
  EXPECT_TRUE(session.done());
  EXPECT_EQ(session.resultJson().dump(), reference);
  EXPECT_EQ(recovered.stepRound(), 0u);
}

TEST(SessionManager, PersistHonorsTheCheckpointCadence) {
  ScopedThreads threads(1);
  SessionManagerOptions options;
  options.checkpoint_dir = uniqueDir("cadence");
  options.checkpoint_every = 3;
  SessionManager manager(options);
  manager.create(makeSpec("cad", 51));
  const std::string ckpt = options.checkpoint_dir + "/cad.ckpt.json";

  manager.stepRound();  // steps = 1: off-cadence, nothing persisted
  EXPECT_FALSE(fileExists(ckpt));
  manager.stepRound();
  EXPECT_FALSE(fileExists(ckpt));
  manager.stepRound();  // steps = 3: on-cadence
  EXPECT_TRUE(fileExists(ckpt));
}

// --- manager lifecycle ---------------------------------------------------

TEST(SessionManager, PauseExcludesFromSchedulingAndResumeReadmits) {
  SessionManager manager;
  manager.create(makeSpec("p0", 61));
  manager.create(makeSpec("p1", 62));

  manager.stepRound();
  manager.pause("p0");
  const std::size_t frozen = manager.session("p0").steps();
  manager.runAll();  // completes p1, leaves p0 paused
  EXPECT_EQ(manager.session("p0").steps(), frozen);
  EXPECT_EQ(manager.session("p0").status(), SessionStatus::kPaused);
  EXPECT_TRUE(manager.session("p1").done());

  manager.resume("p0");
  manager.runAll();
  EXPECT_TRUE(manager.session("p0").done());
}

TEST(SessionManager, DestroyForgetsTheSessionAndItsRecoveryFiles) {
  ScopedThreads threads(1);
  SessionManagerOptions options;
  options.checkpoint_dir = uniqueDir("destroy");
  SessionManager manager(options);
  manager.create(makeSpec("d0", 71));
  manager.stepRound();
  const std::string ckpt = options.checkpoint_dir + "/d0.ckpt.json";
  ASSERT_TRUE(fileExists(ckpt));

  // Passing the session's own id() (not a copy) pins that destroy() is done
  // with the string before it frees the session that owns it.
  manager.destroy(manager.session("d0").id());
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_EQ(manager.find("d0"), nullptr);
  EXPECT_FALSE(fileExists(ckpt));
  EXPECT_THROW(manager.destroy("d0"), ContractViolation);

  // Re-creating the id starts fresh rather than resurrecting state.
  Session& fresh = manager.create(makeSpec("d0", 71));
  EXPECT_EQ(fresh.steps(), 0u);
}

TEST(SessionManager, DuplicateAndUnknownIdsAreRejected) {
  SessionManager manager;
  manager.create(makeSpec("dup", 81));
  EXPECT_THROW(manager.create(makeSpec("dup", 82)), ContractViolation);
  EXPECT_THROW(manager.session("nope"), ContractViolation);
  EXPECT_THROW(manager.pause("nope"), ContractViolation);
  EXPECT_EQ(manager.find("nope"), nullptr);
}

TEST(SessionManager, PersistWithoutDirectoryIsRejected) {
  SessionManager manager;
  manager.create(makeSpec("nodisk", 91));
  EXPECT_THROW(manager.persist("nodisk"), ContractViolation);
}

}  // namespace
