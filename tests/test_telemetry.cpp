// Tests for the telemetry subsystem: the Json value type, the metrics
// registry, and the iteration-event builders of bo/common.h — including
// the end-to-end guarantees the bench traces rely on: one `iteration`
// event per synthesis-loop iteration, byte-identical traces across
// same-seed runs, and unchanged results when an observer is set.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bo/mfbo.h"
#include "common/json.h"
#include "common/spans.h"
#include "common/telemetry.h"
#include "problems/synthetic.h"

namespace {

using namespace mfbo;

// --- Json ---------------------------------------------------------------

TEST(Json, DumpScalarsAndContainers) {
  Json doc = Json::object();
  doc.set("a", 1.0);
  doc.set("b", true);
  doc.set("c", "text");
  doc.set("d", Json::null());
  Json arr = Json::array();
  arr.push(Json::number(0.5));
  arr.push(Json::boolean(false));
  doc.set("e", arr);
  EXPECT_EQ(doc.dump(),
            "{\"a\":1,\"b\":true,\"c\":\"text\",\"d\":null,"
            "\"e\":[0.5,false]}");
}

TEST(Json, PreservesInsertionOrderAndReplacesInPlace) {
  Json doc = Json::object();
  doc.set("z", 1.0);
  doc.set("a", 2.0);
  doc.set("z", 3.0);  // replaced, stays first
  EXPECT_EQ(doc.dump(), "{\"z\":3,\"a\":2}");
}

TEST(Json, EscapesStrings) {
  Json doc = Json::object();
  doc.set("k", std::string("a\"b\\c\n\t"));
  const Json back = Json::parse(doc.dump());
  EXPECT_EQ(back.at("k").asString(), "a\"b\\c\n\t");
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  Json arr = Json::array();
  arr.push(Json::number(std::numeric_limits<double>::quiet_NaN()));
  arr.push(Json::number(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(arr.dump(), "[null,null]");
}

TEST(Json, NumbersRoundTripExactly) {
  const double values[] = {0.1, 1.0 / 3.0, 1e-300, 123456789.123456789,
                           -2.5e17};
  for (double v : values) {
    const Json parsed = Json::parse(Json::number(v).dump());
    EXPECT_EQ(parsed.asNumber(), v);
  }
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse("nul"), std::runtime_error);
}

TEST(Json, ParseHandlesNestedDocuments) {
  const Json doc =
      Json::parse("{\"a\":[1,2,{\"b\":\"\\u0041\"}],\"c\":{\"d\":null}}");
  EXPECT_EQ(doc.at("a").size(), 3u);
  EXPECT_EQ(doc.at("a").at(2).at("b").asString(), "A");
  EXPECT_TRUE(doc.at("c").at("d").isNull());
}

// --- Metrics registry ---------------------------------------------------

TEST(Metrics, CounterAccumulatesAndResets) {
  telemetry::Counter& c = telemetry::counter("test.metrics.counter");
  c.reset();
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  // The registry hands back the same object for the same name.
  EXPECT_EQ(&telemetry::counter("test.metrics.counter"), &c);
  telemetry::resetMetrics();
  EXPECT_EQ(c.value(), 0u);  // reference survives the reset
}

TEST(Metrics, SnapshotContainsRegisteredMetrics) {
  telemetry::counter("test.metrics.snap_counter").add(7);
  const Json snap = telemetry::metricsSnapshot();
  EXPECT_EQ(snap.at("counters").at("test.metrics.snap_counter").asNumber(),
            7.0);
  // Counters and the machine's peak RSS are the whole registry snapshot
  // while the span profiler is off.
  ASSERT_FALSE(spans::enabled());
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_TRUE(snap.contains("peak_rss_bytes"));
  // dump() of the snapshot parses back.
  EXPECT_NO_THROW(Json::parse(snap.dump()));
}

// --- Scoped registries ---------------------------------------------------

TEST(MetricsScope, ScopedRegistryIsolatesFromGlobal) {
  const std::uint64_t global_before =
      telemetry::globalMetrics().counter("test.scope.iso").value();
  telemetry::MetricsRegistry mine;
  {
    const telemetry::TelemetryScope scope(mine);
    telemetry::counter("test.scope.iso").add(3);
  }
  EXPECT_EQ(mine.counter("test.scope.iso").value(), 3u);
  // The global registry never saw the scoped bumps, and bumps after the
  // scope ends go back to it.
  EXPECT_EQ(telemetry::globalMetrics().counter("test.scope.iso").value(),
            global_before);
  telemetry::counter("test.scope.iso").add();
  EXPECT_EQ(telemetry::globalMetrics().counter("test.scope.iso").value(),
            global_before + 1);
  EXPECT_EQ(mine.counter("test.scope.iso").value(), 3u);
}

TEST(MetricsScope, ScopesNestAndRestoreExactly) {
  telemetry::MetricsRegistry outer, inner;
  {
    const telemetry::TelemetryScope outer_scope(outer);
    telemetry::counter("test.scope.nest").add();  // -> outer
    {
      const telemetry::TelemetryScope inner_scope(inner);
      telemetry::counter("test.scope.nest").add();  // -> inner
    }
    telemetry::counter("test.scope.nest").add();  // -> outer again
  }
  EXPECT_EQ(outer.counter("test.scope.nest").value(), 2u);
  EXPECT_EQ(inner.counter("test.scope.nest").value(), 1u);
}

TEST(MetricsScope, SnapshotAndResetActOnTheActiveRegistry) {
  telemetry::MetricsRegistry mine;
  const telemetry::TelemetryScope scope(mine);
  telemetry::counter("test.scope.snap").add(11);
  const Json snap = telemetry::metricsSnapshot();
  EXPECT_EQ(snap.at("counters").at("test.scope.snap").asNumber(), 11.0);
  // A fresh scoped registry starts empty: no cross-talk from the global
  // registry's accumulated names.
  EXPECT_FALSE(snap.at("counters").contains("test.metrics.snap_counter"));
  telemetry::resetMetrics();
  EXPECT_EQ(mine.counter("test.scope.snap").value(), 0u);
}

TEST(MetricsScope, FunctionLocalHandlesFollowTheScope) {
  // The pattern every instrumentation site uses after the global-state
  // sweep: look the handle up per call, never cache it in a static. Two
  // consecutive calls under different scopes must hit different registries.
  const auto bump = [] { telemetry::counter("test.scope.handle").add(); };
  telemetry::MetricsRegistry a, b;
  {
    const telemetry::TelemetryScope scope(a);
    bump();
  }
  {
    const telemetry::TelemetryScope scope(b);
    bump();
    bump();
  }
  EXPECT_EQ(a.counter("test.scope.handle").value(), 1u);
  EXPECT_EQ(b.counter("test.scope.handle").value(), 2u);
}

// --- Iteration events ---------------------------------------------------

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

/// The run's JSONL trace as a bench writes it: run_start, one
/// bo::iterationJson line per observer call, run_end.
std::string jsonlTrace(bo::MfboOptions options, std::uint64_t seed) {
  problems::ForresterProblem problem;
  std::string trace =
      bo::runStartJson("mfbo", problem, seed, options.budget).dump() + '\n';
  options.observer = [&trace](const bo::IterationRecord& r) {
    trace += bo::iterationJson(r).dump() + '\n';
  };
  const bo::SynthesisResult result =
      bo::MfboSynthesizer(options).run(problem, seed);
  return trace + bo::runEndJson("mfbo", result).dump() + '\n';
}

TEST(Trace, MfboEmitsOneIterationEventPerLoopIteration) {
  problems::ForresterProblem problem;
  bo::MfboOptions options = tinyMfbo();
  std::size_t observer_calls = 0;
  std::vector<Json> events;
  options.observer = [&](const bo::IterationRecord& r) {
    ++observer_calls;
    EXPECT_EQ(r.algo, "mfbo");
    EXPECT_EQ(r.iteration, observer_calls);
    ASSERT_NE(r.x, nullptr);
    ASSERT_NE(r.eval, nullptr);
    EXPECT_TRUE(std::isfinite(r.max_norm_var));
    EXPECT_TRUE(std::isfinite(r.threshold));
    events.push_back(bo::iterationJson(r));
  };
  const bo::SynthesisResult result =
      bo::MfboSynthesizer(options).run(problem, 3);

  ASSERT_GT(observer_calls, 0u);
  ASSERT_EQ(events.size(), observer_calls);
  for (const Json& e : events) {
    EXPECT_EQ(e.at("type").asString(), "iteration");
    EXPECT_EQ(e.at("algo").asString(), "mfbo");
    for (const char* key :
         {"iter", "fidelity", "max_norm_var", "threshold", "norm_low_var",
          "x_star_l", "x", "objective", "best_objective", "cost"})
      EXPECT_TRUE(e.contains(key)) << "missing key " << key;
  }
  const Json start = bo::runStartJson("mfbo", problem, 3, options.budget);
  EXPECT_EQ(start.at("type").asString(), "run_start");
  EXPECT_EQ(start.at("problem").asString(), "forrester");
  EXPECT_EQ(start.at("seed").asNumber(), 3.0);
  const Json end = bo::runEndJson("mfbo", result);
  EXPECT_EQ(end.at("type").asString(), "run_end");
  EXPECT_EQ(end.at("best_objective").asNumber(), result.best_eval.objective);
}

TEST(Trace, SameSeedRunsProduceByteIdenticalJsonl) {
  const std::string trace1 = jsonlTrace(tinyMfbo(), 11);
  const std::string trace2 = jsonlTrace(tinyMfbo(), 11);
  ASSERT_FALSE(trace1.empty());
  EXPECT_EQ(trace1, trace2);

  // Every line is a standalone JSON object.
  std::istringstream lines(trace1);
  std::string line;
  std::size_t n_lines = 0;
  while (std::getline(lines, line)) {
    const Json e = Json::parse(line);
    EXPECT_TRUE(e.isObject());
    EXPECT_TRUE(e.contains("type"));
    ++n_lines;
  }
  EXPECT_GT(n_lines, 2u);
}

TEST(Trace, TracingDoesNotPerturbResults) {
  problems::ForresterProblem problem;
  bo::MfboOptions options = tinyMfbo();

  const bo::SynthesisResult plain =
      bo::MfboSynthesizer(options).run(problem, 5);

  std::string trace;
  options.observer = [&trace](const bo::IterationRecord& r) {
    trace += bo::iterationJson(r).dump();
  };
  const bo::SynthesisResult traced =
      bo::MfboSynthesizer(options).run(problem, 5);

  EXPECT_FALSE(trace.empty());
  EXPECT_EQ(plain.history.size(), traced.history.size());
  EXPECT_EQ(plain.best_eval.objective, traced.best_eval.objective);
  EXPECT_EQ(plain.n_low, traced.n_low);
  EXPECT_EQ(plain.n_high, traced.n_high);
}

}  // namespace
