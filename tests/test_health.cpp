// Health-layer battery: the fixed-bucket latency Histogram (bucket-exact
// quantiles, lock-free recording), the session step span that feeds it, the
// per-session and fleet health snapshots, and the Prometheus-style
// exposition writer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "bo/mfbo.h"
#include "common/check.h"
#include "common/json.h"
#include "common/spans.h"
#include "common/telemetry.h"
#include "common/timeline.h"
#include "problems/synthetic.h"
#include "service/health.h"
#include "service/session_manager.h"

namespace {

using namespace mfbo;
using telemetry::Histogram;

// Generous budget: the health tests take a handful of steps and inspect
// the snapshot mid-flight, so no session may run out and complete.
bo::MfboOptions tinyOptions() {
  bo::MfboOptions opt;
  opt.n_init_low = 4;
  opt.n_init_high = 2;
  opt.budget = 50.0;
  opt.gamma = 0.5;
  opt.retrain_every = 2;
  opt.batch_size = 1;
  opt.x_star_seeds = 2;
  opt.msp.n_starts = 2;
  opt.msp.local.max_evaluations = 20;
  opt.nargp.n_mc = 8;
  opt.nargp.low.n_restarts = 1;
  opt.nargp.high.n_restarts = 1;
  return opt;
}

service::SessionSpec makeSpec(std::string id, std::uint64_t seed) {
  service::SessionSpec spec;
  spec.id = std::move(id);
  spec.problem = [] {
    return std::make_unique<problems::ConstrainedQuadraticProblem>(2);
  };
  spec.engine = [seed](bo::Problem& problem) {
    return std::make_unique<bo::MfboEngine>(problem, seed, tinyOptions());
  };
  return spec;
}

TEST(Histogram, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.totalSeconds(), 0.0);
  EXPECT_EQ(h.quantileSeconds(0.5), 0.0);
  EXPECT_EQ(h.quantileSeconds(0.99), 0.0);
}

TEST(Histogram, QuantilesReportTheCoveringBucketUpperEdge) {
  Histogram h;
  // 1 ms sits in the bucket whose upper edge is exactly 1e-3 (a decade
  // boundary edge); every sample identical → every quantile that edge.
  for (int i = 0; i < 100; ++i) h.record(0.99e-3);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.quantileSeconds(0.50), 1e-3, 1e-12);
  EXPECT_NEAR(h.quantileSeconds(0.99), 1e-3, 1e-12);
  EXPECT_NEAR(h.totalSeconds(), 0.099, 1e-6);
}

TEST(Histogram, QuantilesSplitAcrossBuckets) {
  Histogram h;
  // 90 fast samples (~0.9 ms) and 10 slow ones (~90 ms): p50 covers the
  // fast bucket, p99 the slow one, and the slow edge bounds the tail.
  for (int i = 0; i < 90; ++i) h.record(0.9e-3);
  for (int i = 0; i < 10; ++i) h.record(90e-3);
  const double p50 = h.quantileSeconds(0.50);
  const double p99 = h.quantileSeconds(0.99);
  EXPECT_LT(p50, 2e-3);
  EXPECT_GE(p50, 0.9e-3);   // never underestimates
  EXPECT_GE(p99, 90e-3);    // tail covered by its bucket edge
  EXPECT_LT(p99, 200e-3);
}

TEST(Histogram, UnderflowOverflowAndGarbageLandInTheEdgeBuckets) {
  Histogram h;
  h.record(0.0);
  h.record(-1.0);
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(1e-9);  // below the 100 ns floor
  EXPECT_EQ(h.count(), 4u);
  // Everything underflowed: every quantile reports the underflow edge.
  EXPECT_NEAR(h.quantileSeconds(1.0), 1e-7, 1e-18);
  h.record(1e6);  // a megasecond: overflow bucket
  // The overflow bucket reports the last finite edge, bounded.
  EXPECT_NEAR(h.quantileSeconds(1.0), 1e3, 1e-6);
}

TEST(Histogram, QuantileArgumentIsContractChecked) {
  Histogram h;
  h.record(1.0);
  EXPECT_THROW(h.quantileSeconds(-0.1), ContractViolation);
  EXPECT_THROW(h.quantileSeconds(1.5), ContractViolation);
}

TEST(Histogram, ResetZeroesEverything) {
  Histogram h;
  for (int i = 0; i < 5; ++i) h.record(0.01);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.totalSeconds(), 0.0);
  EXPECT_EQ(h.quantileSeconds(0.9), 0.0);
}

/// Which span feature is on while the session steps.
enum class Recording { kNone, kProfiler, kTimeline };

TEST(SessionHealth, SnapshotCarriesTheSloGauges) {
  // The step span feeds the latency histogram whichever span feature is on:
  // neither, the aggregating profiler, or only a timeline recording.
  for (const Recording recording :
       {Recording::kNone, Recording::kProfiler, Recording::kTimeline}) {
    SCOPED_TRACE(static_cast<int>(recording));
    const std::string timeline_path =
        testing::TempDir() + "health_slo_timeline.json";
    if (recording == Recording::kProfiler) spans::setEnabled(true);
    if (recording == Recording::kTimeline) timeline::start(timeline_path);
    service::Session session(makeSpec("h0", 42));
    session.step();
    session.step();
    Json doc = session.healthJson();
    EXPECT_EQ(doc.at("session").asString(), "h0");
    EXPECT_EQ(doc.at("algo").asString(), "mfbo");
    EXPECT_EQ(doc.at("status").asString(), "running");
    EXPECT_EQ(doc.at("steps").asNumber(), 2.0);
    // Never persisted: the checkpoint age is the full step count.
    EXPECT_EQ(doc.at("checkpoint_age_steps").asNumber(), 2.0);
    EXPECT_GE(doc.at("cost_spent").asNumber(), 0.0);
    EXPECT_GT(doc.at("cost_budget").asNumber(), 0.0);
    const double fraction = doc.at("budget_fraction").asNumber();
    EXPECT_GE(fraction, 0.0);
    EXPECT_LE(fraction, 1.0);
    EXPECT_EQ(doc.at("step_latency").at("count").asNumber(), 2.0);
    EXPECT_GE(doc.at("steps_per_sec").asNumber(), 0.0);
    if (recording == Recording::kProfiler) {
      const Json spans_tree =
          session.artifactJson(/*include_timing=*/false)
              .at("metrics")
              .at("spans");
      EXPECT_EQ(
          spans_tree.at("children").at("session_step").at("count").asNumber(),
          2.0);
      spans::setEnabled(false);
      spans::reset();
    }
    if (recording == Recording::kTimeline) {
      timeline::stop();
      std::remove(timeline_path.c_str());
    }
  }
}

TEST(SessionHealth, NotePersistedResetsTheCheckpointAge) {
  service::Session session(makeSpec("h1", 43));
  session.step();
  session.notePersisted();
  session.step();
  EXPECT_EQ(session.healthJson().at("checkpoint_age_steps").asNumber(),
            1.0);
}

TEST(ManagerHealth, FleetSnapshotHasTheV1Envelope) {
  service::SessionManager manager;
  manager.create(makeSpec("a", 1));
  manager.create(makeSpec("b", 2));
  manager.stepRound();
  manager.stepRound();
  Json doc = manager.healthJson();
  EXPECT_EQ(doc.at("format").asString(), "mfbo-health");
  EXPECT_EQ(doc.at("version").asNumber(), 1.0);
  EXPECT_EQ(doc.at("rounds").asNumber(), 2.0);
  ASSERT_EQ(doc.at("sessions").size(), 2u);
  EXPECT_EQ(doc.at("sessions").at(0).at("session").asString(), "a");
  EXPECT_EQ(doc.at("sessions").at(1).at("session").asString(), "b");
  const Json& pool = doc.at("pool");
  for (const char* key :
       {"workers", "regions", "pooled_regions", "chunks", "queue_depth"})
    EXPECT_TRUE(pool.contains(key)) << key;
  EXPECT_GT(pool.at("regions").asNumber(), 0.0);
  const Json& journal = doc.at("eventlog");
  EXPECT_TRUE(journal.at("enabled").isBool());
  for (const char* key : {"recorded", "dropped", "skipped_in_region"})
    EXPECT_TRUE(journal.contains(key)) << key;
}

TEST(ManagerHealth, ExpositionRendersEveryFamilyDeterministically) {
  service::SessionManager manager;
  manager.create(makeSpec("exp0", 7));
  manager.stepRound();
  const Json doc = manager.healthJson();
  const std::string text = service::healthExposition(doc);
  for (const char* needle : {
           "# TYPE mfbo_rounds_total counter",
           "# TYPE mfbo_sessions gauge",
           "mfbo_session_steps_total{session=\"exp0\",algo=\"mfbo\"} 1",
           "mfbo_session_status{session=\"exp0\",status=\"running\"} 1",
           "# TYPE mfbo_session_step_latency_seconds summary",
           "quantile=\"0.99\"",
           "mfbo_session_step_latency_seconds_count{session=\"exp0\"} 1",
           "mfbo_pool_workers",
           "mfbo_eventlog_recorded_total",
       })
    EXPECT_NE(text.find(needle), std::string::npos)
        << "exposition is missing: " << needle;
  // Pure in the document: same bytes in, same bytes out.
  EXPECT_EQ(text, service::healthExposition(doc));
}

TEST(ManagerHealth, ExpositionRejectsForeignDocuments) {
  Json doc = Json::object();
  doc.set("format", "something-else");
  EXPECT_THROW(service::healthExposition(doc), ContractViolation);
  EXPECT_THROW(service::healthExposition(Json::number(3.0)),
               ContractViolation);
}

TEST(ManagerHealth, WriteHealthFilesEmitsJsonAndExposition) {
  service::SessionManager manager;
  manager.create(makeSpec("w0", 9));
  manager.stepRound();
  const std::string path = testing::TempDir() + "health_test.json";
  service::writeHealthFiles(manager.healthJson(), path);
  std::FILE* json_file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(json_file, nullptr);
  std::fclose(json_file);
  std::FILE* prom_file = std::fopen((path + ".prom").c_str(), "rb");
  ASSERT_NE(prom_file, nullptr);
  std::fclose(prom_file);
  std::remove(path.c_str());
  std::remove((path + ".prom").c_str());
}

}  // namespace
