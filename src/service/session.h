// mfbo::service — one optimization session: an Engine plus the scoped
// observability state that keeps it isolated from every other session.
//
// A Session owns its Problem, its Engine, a private counter registry
// (common/telemetry.h), a private span arena (common/spans.h) and the
// step-latency Histogram its "session_step" span feeds. Every
// entry into the engine — construction, step, restore, snapshot — happens
// under a TelemetryScope + ArenaScope pair, so N sessions interleaving on
// one driver thread and the shared worker pool accumulate counters, spans,
// and allocation attribution exactly as if each had run alone. The
// byte-identity contract tests/test_session_manager.cpp enforces follows
// directly: a session's --no-timing artifact is byte-identical solo vs.
// among 8 concurrent sessions at any thread count.
//
// Resume semantics mirror the engine's (bo/engine.h): a restored session
// reproduces the *result* bytes of the uninterrupted run exactly, but not
// its metrics or span counters — replay retrains models without re-running
// simulations or acquisition searches. Crash-recovery comparisons
// therefore use resultJson(); the solo-vs-concurrent comparisons, which
// never resume, use the full artifactJson().
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "bo/engine.h"
#include "bo/problem.h"
#include "common/json.h"
#include "common/spans.h"
#include "common/telemetry.h"

namespace mfbo::service {

/// Builds the session's problem instance. Sessions own their problem:
/// the engine keeps a reference for its lifetime, and two sessions sharing
/// one Problem would make the evaluate() reentrancy contract (bo/problem.h)
/// a cross-session liability.
using ProblemFactory = std::function<std::unique_ptr<bo::Problem>()>;

/// Builds the session's engine over the session-owned problem.
using EngineFactory =
    std::function<std::unique_ptr<bo::Engine>(bo::Problem&)>;

/// Everything needed to (re)create a session. The factories outlive the
/// construction call: crash recovery rebuilds a fresh engine through them
/// and replays the persisted checkpoint into it.
struct SessionSpec {
  std::string id;  ///< [A-Za-z0-9_-]+; doubles as the recovery file stem
  ProblemFactory problem;
  EngineFactory engine;
};

enum class SessionStatus {
  kRunning,  ///< schedulable: the next stepRound() will advance it
  kPaused,   ///< excluded from scheduling until resume()
  kDone,     ///< engine completed (or a completed run was adopted)
};

/// Lowercase status name used in artifacts ("running", "paused", "done").
const char* sessionStatusName(SessionStatus s);

class Session {
 public:
  /// Validates the id ([A-Za-z0-9_-]+) and constructs the problem and
  /// engine under this session's telemetry/span scopes, so construction-
  /// time registrations and allocations are attributed to this session.
  explicit Session(SessionSpec spec);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& id() const { return spec_.id; }
  SessionStatus status() const { return status_; }
  bool done() const { return status_ == SessionStatus::kDone; }
  /// Engine steps executed by this session (restored across recovery).
  std::size_t steps() const { return steps_; }

  /// Advance the engine one state, under the session scopes and the
  /// "session_step" span. Requires kRunning; flips to kDone (capturing the
  /// result) when the engine finishes.
  void step();

  void pause();   ///< kRunning → kPaused
  void resume();  ///< kPaused → kRunning

  /// Session-enveloped Engine::checkpoint() at the current boundary:
  /// {"format":"mfbo-session-checkpoint","version":1,"session":id,
  ///  "algo":...,"steps":...,"engine":{...}}. Not callable once done.
  Json checkpoint() const;

  /// Reinstate a checkpoint() document into this freshly constructed
  /// session (same spec). Envelope or engine-state mismatches — wrong
  /// format, session id, algorithm, or any corruption the engine's replay
  /// validation catches — are a ContractViolation.
  void restore(const Json& doc);

  /// Adopt a persisted resultJson() document for a session that completed
  /// before a crash: validates the envelope and flips straight to kDone
  /// without touching the engine.
  void adoptResult(const Json& doc);

  /// The session's resume-stable product, available once done:
  /// {"format":"mfbo-session-result","version":1,"session":id,"algo":...,
  ///  "result":synthesisResultToJson(...)}. Byte-identical across solo,
  /// concurrent, and killed-and-recovered executions of the same spec.
  const Json& resultJson() const;

  /// Full observability artifact: status, steps, the result (once done),
  /// and this session's metricsSnapshot — its private counters plus, when
  /// the profiler is enabled, its span arena. With include_timing=false
  /// the document is byte-deterministic for non-resumed runs at any thread
  /// count and any degree of session interleaving.
  Json artifactJson(bool include_timing);

  /// Per-session SLO snapshot for the health exporter (service/health.h):
  /// status, steps, engine progress (iterations, cost spent vs. budget),
  /// step-latency quantiles from this session's step histogram, derived
  /// steps/sec, and the number of steps since the last persisted boundary
  /// (the checkpoint-age gauge). Wall-clock fields come from the latency
  /// histogram, so the document is operator-facing, not byte-deterministic.
  Json healthJson();

  /// Mark the current step count as persisted. SessionManager calls this
  /// after every successful persistNow(); feeds healthJson()'s
  /// checkpoint_age_steps gauge.
  void notePersisted() { steps_at_last_persist_ = steps_; }

 private:
  void complete();

  SessionSpec spec_;
  // Scoping state is declared before the engine: references the engine
  // holds into the registry must outlive it.
  telemetry::MetricsRegistry metrics_;
  spans::SpanArena arena_;
  /// Wall time of every step(), fed by its "session_step" span.
  telemetry::Histogram step_latency_;
  std::unique_ptr<bo::Problem> problem_;
  std::unique_ptr<bo::Engine> engine_;
  SessionStatus status_ = SessionStatus::kRunning;
  std::size_t steps_ = 0;
  std::size_t steps_at_last_persist_ = 0;
  Json result_doc_;
};

}  // namespace mfbo::service
