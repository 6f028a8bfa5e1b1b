#include "bo/engine.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>

#include "bo/acquisition.h"
#include "common/check.h"
#include "common/eventlog.h"
#include "common/parallel.h"
#include "common/spans.h"
#include "common/telemetry.h"

namespace mfbo::bo {

namespace {

constexpr const char* kCheckpointFormat = "mfbo-engine-checkpoint";
constexpr int kCheckpointVersion = 1;

/// Number field that serializes NaN (field not applicable) as null.
Json numberOrNull(double v) {
  return std::isfinite(v) ? Json::number(v) : Json::null();
}

/// Exact-set key validation: unknown keys are as much a corruption signal
/// as missing ones (a renamed field would otherwise be silently ignored and
/// its old default silently used).
void checkKeys(const Json& obj, std::initializer_list<const char*> keys,
               const char* context) {
  MFBO_CHECK(obj.isObject(), context, " must be a JSON object");
  for (const auto& [key, value] : obj.members()) {
    bool known = false;
    for (const char* k : keys) {
      if (key == k) {
        known = true;
        break;
      }
    }
    MFBO_CHECK(known, context, " has unrecognized key '", key, "'");
  }
  for (const char* k : keys)
    MFBO_CHECK(obj.contains(k), context, " is missing key '", k, "'");
}

const std::string& stringField(const Json& obj, const char* key) {
  const Json& v = obj.at(key);
  MFBO_CHECK(v.isString(), "checkpoint field '", key, "' must be a string");
  return v.asString();
}

bool boolField(const Json& obj, const char* key) {
  const Json& v = obj.at(key);
  MFBO_CHECK(v.isBool(), "checkpoint field '", key, "' must be a boolean");
  return v.asBool();
}

/// Finite number (a JSON null here means the original value was non-finite
/// — exactly the corruption the NaN-payload battery feeds in).
double finiteValue(const Json& v, const char* context) {
  MFBO_CHECK(v.isNumber(), context, " must be a finite number");
  const double x = v.asNumber();
  MFBO_CHECK(std::isfinite(x), context, " must be finite, got ", x);
  return x;
}

double finiteNumber(const Json& obj, const char* key) {
  return finiteValue(obj.at(key), key);
}

std::size_t sizeValue(const Json& v, const char* context) {
  const double x = finiteValue(v, context);
  MFBO_CHECK(x >= 0.0 && x == std::floor(x), context,
             " must be a non-negative integer, got ", x);
  return static_cast<std::size_t>(x);
}

std::size_t sizeField(const Json& obj, const char* key) {
  return sizeValue(obj.at(key), key);
}

/// null → NaN (field not applicable); otherwise a finite number.
double nanOrNumber(const Json& obj, const char* key) {
  const Json& v = obj.at(key);
  if (v.isNull()) return IterationRecord::kNan;
  return finiteValue(v, key);
}

Fidelity fidelityFromName(const Json& v) {
  MFBO_CHECK(v.isString(), "fidelity must be a string");
  const std::string& name = v.asString();
  if (name == "high") return Fidelity::kHigh;
  if (name == "low") return Fidelity::kLow;
  MFBO_CHECK(false, "unknown fidelity '", name, "'");
  return Fidelity::kHigh;  // unreachable
}

/// Array of @p n finite doubles.
std::vector<double> finiteArray(const Json& v, std::size_t n,
                                const char* context) {
  MFBO_CHECK(v.isArray(), context, " must be an array");
  MFBO_CHECK(v.size() == n, context, " has ", v.size(), " elements, expected ",
             n);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = finiteValue(v.at(i), context);
  return out;
}

/// Vector in the unit cube (the coordinate system the archives store).
Vector unitVector(const Json& v, std::size_t d, const char* context) {
  Vector out(finiteArray(v, d, context));
  for (std::size_t i = 0; i < d; ++i)
    MFBO_CHECK(out[i] >= 0.0 && out[i] <= 1.0, context, " coordinate ", i,
               " outside the unit cube: ", out[i]);
  return out;
}

/// null → empty vector; otherwise @p d finite coordinates.
Vector vectorOrEmpty(const Json& v, std::size_t d, const char* context) {
  if (v.isNull()) return Vector();
  return Vector(finiteArray(v, d, context));
}

/// The construction seed is a full uint64 and cannot survive a JSON double
/// round-trip, so it travels as a decimal string.
std::uint64_t parseSeed(const Json& v) {
  MFBO_CHECK(v.isString(), "checkpoint seed must be a decimal string");
  const std::string& s = v.asString();
  MFBO_CHECK(!s.empty() && s.size() <= 20 &&
                 s.find_first_not_of("0123456789") == std::string::npos,
             "malformed checkpoint seed '", s, "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(s.c_str(), &end, 10);
  MFBO_CHECK(errno == 0 && end == s.c_str() + s.size(),
             "checkpoint seed out of range: '", s, "'");
  return static_cast<std::uint64_t>(parsed);
}

/// MSP settings shared by both engines' options digests.
Json mspDigest(const MspOptions& msp) {
  Json m = Json::object();
  m.set("n_starts", msp.n_starts);
  m.set("frac_tau_l", msp.frac_tau_l);
  m.set("frac_tau_h", msp.frac_tau_h);
  m.set("relative_sd", msp.relative_sd);
  m.set("local_max_evaluations", msp.local.max_evaluations);
  m.set("local_initial_step", msp.local.initial_step);
  return m;
}

Json slotToJson(const ProposedSlot& s) {
  Json j = Json::object();
  j.set("iteration", s.iteration);
  j.set("x", Json::numberArray(s.x));
  j.set("x_star_l",
        s.x_star_l.empty() ? Json::null() : Json::numberArray(s.x_star_l));
  j.set("x_t_raw",
        s.x_t_raw.empty() ? Json::null() : Json::numberArray(s.x_t_raw));
  j.set("fidelity", fidelityName(s.fidelity));
  j.set("downgraded", s.downgraded);
  j.set("deduped", s.deduped);
  j.set("first_feasible_phase", s.first_feasible_phase);
  j.set("on_fantasy", s.on_fantasy);
  j.set("tau_l", numberOrNull(s.tau_l));
  j.set("tau_h", numberOrNull(s.tau_h));
  j.set("acquisition", numberOrNull(s.acquisition));
  j.set("max_norm_var", numberOrNull(s.max_norm_var));
  j.set("threshold", numberOrNull(s.threshold));
  j.set("norm_low_var", s.norm_low_var.empty()
                            ? Json::null()
                            : Json::numberArray(s.norm_low_var));
  j.set("evaluated", s.evaluated);
  j.set("history_index", s.history_index);
  j.set("dataset_index", s.dataset_index);
  return j;
}

ProposedSlot slotFromJson(const Json& j, std::size_t d, std::size_t n_out) {
  checkKeys(j,
            {"iteration", "x", "x_star_l", "x_t_raw", "fidelity", "downgraded",
             "deduped", "first_feasible_phase", "on_fantasy", "tau_l", "tau_h",
             "acquisition", "max_norm_var", "threshold", "norm_low_var",
             "evaluated", "history_index", "dataset_index"},
            "pending slot");
  ProposedSlot s;
  s.iteration = sizeField(j, "iteration");
  MFBO_CHECK(s.iteration >= 1, "pending slot iteration must be >= 1");
  s.x = unitVector(j.at("x"), d, "slot x");
  s.x_star_l = vectorOrEmpty(j.at("x_star_l"), d, "slot x_star_l");
  s.x_t_raw = vectorOrEmpty(j.at("x_t_raw"), d, "slot x_t_raw");
  s.fidelity = fidelityFromName(j.at("fidelity"));
  s.downgraded = boolField(j, "downgraded");
  s.deduped = boolField(j, "deduped");
  s.first_feasible_phase = boolField(j, "first_feasible_phase");
  s.on_fantasy = boolField(j, "on_fantasy");
  s.tau_l = nanOrNumber(j, "tau_l");
  s.tau_h = nanOrNumber(j, "tau_h");
  s.acquisition = nanOrNumber(j, "acquisition");
  s.max_norm_var = nanOrNumber(j, "max_norm_var");
  s.threshold = nanOrNumber(j, "threshold");
  if (!j.at("norm_low_var").isNull())
    s.norm_low_var = finiteArray(j.at("norm_low_var"), n_out, "norm_low_var");
  s.evaluated = boolField(j, "evaluated");
  s.history_index = sizeField(j, "history_index");
  s.dataset_index = sizeField(j, "dataset_index");
  return s;
}

/// bestHighIndex over the first @p count history entries: what the best-so-
/// far fields of slot k's iteration record must not see is the evaluations
/// of the batch slots *after* it.
std::optional<std::size_t> bestHighUpTo(
    const std::vector<HistoryEntry>& history, std::size_t count) {
  std::optional<std::size_t> best;
  bool best_feasible = false;
  for (std::size_t i = 0; i < count; ++i) {
    if (history[i].fidelity != Fidelity::kHigh) continue;
    const Evaluation& e = history[i].eval;
    const bool feasible = e.feasible();
    if (!best) {
      best = i;
      best_feasible = feasible;
      continue;
    }
    const Evaluation& b = history[*best].eval;
    if (feasible && !best_feasible) {
      best = i;
      best_feasible = true;
    } else if (feasible == best_feasible) {
      const bool better = feasible
                              ? e.objective < b.objective
                              : e.totalViolation() < b.totalViolation();
      if (better) best = i;
    }
  }
  return best;
}

/// Exact comparison of a checkpoint's hyperparameter stamp against the
/// replayed models. Any difference means the replay did not reproduce the
/// original training trajectory — wrong data, wrong schedule, or a
/// nondeterministic trainer — and the resumed run would silently diverge.
void checkStampAgainst(const Json& stamp,
                       const std::vector<std::vector<double>>& hypers) {
  MFBO_CHECK(stamp.isArray(), "surrogate stamp must be an array of arrays");
  MFBO_CHECK(stamp.size() == hypers.size(), "surrogate stamp holds ",
             stamp.size(), " models, the engine has ", hypers.size());
  for (std::size_t i = 0; i < hypers.size(); ++i) {
    const Json& row = stamp.at(i);
    MFBO_CHECK(row.isArray() && row.size() == hypers[i].size(),
               "surrogate stamp for model ", i, " has the wrong shape");
    for (std::size_t k = 0; k < hypers[i].size(); ++k) {
      const double expected = finiteValue(row.at(k), "surrogate stamp");
      MFBO_CHECK(expected == hypers[i][k],
                 "replayed hyperparameter drifted from the checkpoint stamp: "
                 "model ",
                 i, " param ", k, " is ", hypers[i][k], ", stamp says ",
                 expected);
    }
  }
}

}  // namespace

const char* engineStateName(EngineState s) {
  switch (s) {
    case EngineState::kInit:
      return "init";
    case EngineState::kFitSurrogate:
      return "fit_surrogate";
    case EngineState::kPropose:
      return "propose";
    case EngineState::kAwaitResults:
      return "await_results";
    case EngineState::kObserve:
      return "observe";
    case EngineState::kDone:
      return "done";
  }
  return "unknown";
}

EngineState engineStateFromName(std::string_view name) {
  for (EngineState s :
       {EngineState::kInit, EngineState::kFitSurrogate, EngineState::kPropose,
        EngineState::kAwaitResults, EngineState::kObserve,
        EngineState::kDone}) {
    if (name == engineStateName(s)) return s;
  }
  MFBO_CHECK(false, "unknown engine state '", std::string(name), "'");
  return EngineState::kInit;  // unreachable
}

Json synthesisResultToJson(const SynthesisResult& result) {
  Json j = Json::object();
  j.set("best_x", Json::numberArray(result.best_x));
  j.set("best_objective", result.best_eval.objective);
  j.set("best_constraints", Json::numberArray(result.best_eval.constraints));
  j.set("feasible_found", result.feasible_found);
  j.set("n_low", result.n_low);
  j.set("n_high", result.n_high);
  j.set("equivalent_high_sims", result.equivalent_high_sims);
  Json hist = Json::array();
  for (const HistoryEntry& h : result.history) {
    Json e = Json::object();
    e.set("x", Json::numberArray(h.x));
    e.set("fidelity", fidelityName(h.fidelity));
    e.set("objective", h.eval.objective);
    e.set("constraints", Json::numberArray(h.eval.constraints));
    e.set("cost", h.cumulative_cost);
    hist.push(std::move(e));
  }
  j.set("history", std::move(hist));
  return j;
}

Engine::Engine(Problem& problem, std::uint64_t seed)
    : problem_(&problem),
      seed_(seed),
      d_(problem.dim()),
      nc_(problem.numConstraints()),
      n_out_(1 + nc_),
      real_box_(problem.bounds()),
      unit_(Box::unitCube(d_)),
      ratio_(problem.costRatio()),
      rng_(seed),
      tracker_(ratio_) {
  MFBO_CHECK(d_ > 0, "problem has zero dimensions");
  MFBO_CHECK(ratio_ > 0.0, "cost ratio must be positive, got ", ratio_);
  MFBO_CHECK(real_box_.dim() == d_, "problem bounds dim ", real_box_.dim(),
             " does not match problem dim ", d_);
}

void Engine::transition(EngineState next) {
  // Every state write funnels through here (lint rule E001), which makes
  // this the one flight-recorder site for "what was the engine doing":
  // the journal's last engine_transition names the in-flight state.
  eventlog::record(eventlog::EventKind::kEngineTransition,
                   engineStateName(state_), engineStateName(next),
                   static_cast<std::int64_t>(iteration_));
  if (restoring_) {
    state_ = next;
    return;
  }
  bool legal = false;
  switch (state_) {
    case EngineState::kInit:
      legal = next == EngineState::kFitSurrogate;
      break;
    case EngineState::kFitSurrogate:
      legal = next == EngineState::kPropose || next == EngineState::kDone;
      break;
    case EngineState::kPropose:
      legal = next == EngineState::kAwaitResults;
      break;
    case EngineState::kAwaitResults:
      legal = next == EngineState::kObserve;
      break;
    case EngineState::kObserve:
      legal = next == EngineState::kFitSurrogate;
      break;
    case EngineState::kDone:
      legal = false;
      break;
  }
  MFBO_CHECK(legal, "illegal engine transition ", engineStateName(state_),
             " -> ", engineStateName(next));
  state_ = next;
}

void Engine::step() {
  MFBO_CHECK(state_ != EngineState::kDone, "step() on a completed engine");
  switch (state_) {
    case EngineState::kInit:
      handleInit();
      break;
    case EngineState::kFitSurrogate:
      handleFitSurrogate();
      break;
    case EngineState::kPropose:
      handlePropose();
      break;
    case EngineState::kAwaitResults:
      handleAwaitResults();
      break;
    case EngineState::kObserve:
      handleObserve();
      break;
    case EngineState::kDone:
      break;
  }
}

SynthesisResult Engine::runToCompletion() {
  while (!done()) step();
  return takeResult();
}

SynthesisResult Engine::takeResult() {
  MFBO_CHECK(done(), "takeResult() before the run completed");
  return std::move(result_);
}

Evaluation Engine::simulate(const Vector& u, Fidelity f) {
  const bool hi = f == Fidelity::kHigh;
  const spans::ScopedSpan sim_span(hi ? "simulate_high" : "simulate_low");
  spans::addCounter(hi ? "sims_high" : "sims_low");
  return problem_->evaluate(real_box_.fromUnit(u), f);
}

std::size_t Engine::recordEvaluation(const Vector& u, Fidelity f,
                                     Evaluation eval) {
  tracker_.charge(f);
  history_.push_back({real_box_.fromUnit(u), eval, f, tracker_.cost()});
  (f == Fidelity::kHigh ? high_ : low_).add(u, std::move(eval));
  return history_.size() - 1;
}

std::size_t Engine::evaluateRaw(const Vector& u, Fidelity f) {
  return recordEvaluation(u, f, simulate(u, f));
}

void Engine::handleAwaitResults() {
  // The batch's simulations run as pool tasks: each is an independent pure
  // evaluation whose input was fixed at propose time, written into a
  // slot-indexed output. The stateful bookkeeping — cost meter, history,
  // archives — then replays serially in slot order, i.e. in exactly the
  // order the sequential loop produced, so results are byte-identical at
  // any thread count. This is also the engine's cooperative-yield point
  // for the session layer: a q-slot batch occupies the pool for one region
  // and then returns to the scheduler.
  std::vector<ProposedSlot*> todo;
  for (ProposedSlot& slot : pending_)
    if (!slot.evaluated) todo.push_back(&slot);
  std::vector<Evaluation> evals(todo.size());
  parallel::parallelFor(todo.size(), [&](std::size_t i) {
    evals[i] = simulate(todo[i]->x, todo[i]->fidelity);
  });
  for (std::size_t i = 0; i < todo.size(); ++i) {
    ProposedSlot& slot = *todo[i];
    slot.history_index =
        recordEvaluation(slot.x, slot.fidelity, std::move(evals[i]));
    slot.dataset_index =
        (slot.fidelity == Fidelity::kHigh ? high_ : low_).size() - 1;
    slot.evaluated = true;
  }
  transition(EngineState::kObserve);
}

void Engine::handleObserve() {
  const IterationObserver& observer = observerRef();
  for (const ProposedSlot& slot : pending_) {
    if (!iterationWanted(observer)) break;
    const spans::ScopedSpan observe_span("observe");
    IterationRecord rec;
    rec.algo = algoName();
    rec.iteration = slot.iteration;
    rec.fidelity = slot.fidelity;
    rec.downgraded = slot.downgraded;
    rec.retrained = retrainDue(iteration_ - pending_.size(), pending_.size());
    rec.first_feasible_phase = slot.first_feasible_phase;
    rec.tau_l = slot.tau_l;
    rec.tau_h = slot.tau_h;
    rec.max_norm_var = slot.max_norm_var;
    rec.threshold = slot.threshold;
    rec.norm_low_var = slot.norm_low_var;
    rec.cumulative_cost = history_[slot.history_index].cumulative_cost;
    if (!slot.x_star_l.empty()) rec.x_star_l = &slot.x_star_l;
    if (!slot.x_t_raw.empty()) rec.x_t_raw = &slot.x_t_raw;
    rec.deduped = slot.deduped;
    rec.x = &history_[slot.history_index].x;
    rec.eval = &history_[slot.history_index].eval;
    rec.acquisition = observedAcquisition(slot);
    // Best-so-far over the history prefix this slot can see: its own
    // evaluation and everything before it, not its batch successors.
    if (const auto best = bestHighUpTo(history_, slot.history_index + 1)) {
      rec.best_objective = history_[*best].eval.objective;
      rec.feasible_found = history_[*best].eval.feasible();
    }
    publishIteration(rec, observer);
  }
  transition(EngineState::kFitSurrogate);
}

void Engine::handleFitSurrogate() {
  // Algorithm 1's training schedule: the first fit and every batch that
  // hits the retrain_every cadence retrain hyperparameters; any other
  // batch is appended row by row. restorePolicy replays exactly this.
  if (!models_fitted_ ||
      retrainDue(iteration_ - pending_.size(), pending_.size())) {
    fitModels();
    models_fitted_ = true;
  } else {
    for (const ProposedSlot& slot : pending_)
      addRow(slot.fidelity, slot.dataset_index);
  }
  if (!pending_.empty()) {
    batches_.push_back(pending_.size());
    pending_.clear();
  }
  if (tracker_.cost() + minStepCost() <= budget() + 1e-9) {
    transition(EngineState::kPropose);
  } else {
    finish();
  }
}

void Engine::finish() {
  result_ = finalizeResult(std::move(history_), tracker_);
  traceRunEnd(algoName(), result_);
  transition(EngineState::kDone);
}

bool Engine::retrainDue(std::size_t done, std::size_t size) const {
  MFBO_DCHECK(done + size <= iteration_, "batch ends at iteration ",
              done + size, ", past the iteration counter ", iteration_);
  const std::size_t every = retrainEvery();
  if (every <= 1) return true;
  for (std::size_t it = done + 1; it <= done + size; ++it)
    if (it % every == 0) return true;
  return false;
}

std::vector<double> Engine::columnOf(const Dataset& ds, std::size_t out) {
  return out == 0 ? ds.objectives() : ds.constraintColumn(out - 1);
}

Json Engine::checkpoint() const {
  MFBO_CHECK(!done(), "checkpoint() on a completed engine");
  Json c = Json::object();
  c.set("format", kCheckpointFormat);
  c.set("version", kCheckpointVersion);
  c.set("algo", algoName());
  c.set("state", engineStateName(state_));
  Json prob = Json::object();
  prob.set("name", problem_->name());
  prob.set("dim", d_);
  prob.set("num_constraints", nc_);
  prob.set("cost_ratio", ratio_);
  c.set("problem", std::move(prob));
  c.set("seed", std::to_string(seed_));
  c.set("rng", rng_.saveState());
  c.set("iteration", iteration_);
  c.set("cost", tracker_.cost());
  c.set("n_low", tracker_.numLow());
  c.set("n_high", tracker_.numHigh());
  c.set("models_fitted", models_fitted_);
  Json batches = Json::array();
  for (std::size_t b : batches_)
    batches.push(Json::number(static_cast<double>(b)));
  c.set("batches", std::move(batches));
  // History rows carry the *unit-cube* inputs (the archives' coordinate
  // system); the real coordinates are rederived through the same
  // Box::fromUnit arithmetic on restore, so storing both would only add a
  // redundancy that could disagree.
  Json hist = Json::array();
  std::size_t low_cursor = 0;
  std::size_t high_cursor = 0;
  for (const HistoryEntry& h : history_) {
    const bool hi = h.fidelity == Fidelity::kHigh;
    std::size_t& cursor = hi ? high_cursor : low_cursor;
    Json e = Json::object();
    e.set("fidelity", fidelityName(h.fidelity));
    e.set("u", Json::numberArray((hi ? high_ : low_).x[cursor]));
    ++cursor;
    e.set("objective", h.eval.objective);
    e.set("constraints", Json::numberArray(h.eval.constraints));
    e.set("cost", h.cumulative_cost);
    hist.push(std::move(e));
  }
  c.set("history", std::move(hist));
  Json pend = Json::array();
  for (const ProposedSlot& s : pending_) pend.push(slotToJson(s));
  c.set("pending", std::move(pend));
  Json policy = optionsDigest();
  Json stamp = Json::null();
  if (models_fitted_) {
    stamp = Json::array();
    for (const std::vector<double>& h : hyperparameters())
      stamp.push(Json::numberArray(h));
  }
  policy.set("surrogates", std::move(stamp));
  c.set("policy", std::move(policy));
  return c;
}

void Engine::restoreHistory(const Json& ckpt) {
  const Json& hist = ckpt.at("history");
  MFBO_CHECK(hist.isArray(), "checkpoint history must be an array");
  double running = 0.0;
  std::size_t n_low = 0;
  std::size_t n_high = 0;
  for (std::size_t k = 0; k < hist.size(); ++k) {
    const Json& e = hist.at(k);
    checkKeys(e, {"fidelity", "u", "objective", "constraints", "cost"},
              "history entry");
    const Fidelity f = fidelityFromName(e.at("fidelity"));
    const Vector u = unitVector(e.at("u"), d_, "history entry u");
    Evaluation eval;
    eval.objective = finiteNumber(e, "objective");
    eval.constraints = finiteArray(e.at("constraints"), nc_, "constraints");
    // The meter is replayed with the same additions the original run made,
    // so each archived cumulative cost must match bit-for-bit.
    running += f == Fidelity::kHigh ? 1.0 : 1.0 / ratio_;
    const double cost = finiteNumber(e, "cost");
    MFBO_CHECK(cost == running, "history entry ", k, " cost ", cost,
               " does not match the recomputed meter ", running);
    (f == Fidelity::kHigh ? n_high : n_low) += 1;
    (f == Fidelity::kHigh ? high_ : low_).add(u, eval);
    history_.push_back({real_box_.fromUnit(u), std::move(eval), f, cost});
  }
  MFBO_CHECK(finiteNumber(ckpt, "cost") == running,
             "checkpoint cost does not match the archived history");
  MFBO_CHECK(sizeField(ckpt, "n_low") == n_low,
             "checkpoint n_low does not match the archived history");
  MFBO_CHECK(sizeField(ckpt, "n_high") == n_high,
             "checkpoint n_high does not match the archived history");
  tracker_.restore(running, n_low, n_high);
}

void Engine::restorePending(const Json& ckpt, EngineState target) {
  const Json& pend = ckpt.at("pending");
  MFBO_CHECK(pend.isArray(), "checkpoint pending must be an array");
  MFBO_CHECK(pend.size() <= maxBatch(), "pending batch has ", pend.size(),
             " slots; this engine proposes at most ", maxBatch());
  std::size_t base_iterations = 0;
  for (std::size_t b : batches_) base_iterations += b;
  std::size_t evaluated = 0;
  for (std::size_t s = 0; s < pend.size(); ++s) {
    ProposedSlot slot = slotFromJson(pend.at(s), d_, n_out_);
    MFBO_CHECK(slot.iteration == base_iterations + s + 1, "pending slot ", s,
               " iteration ", slot.iteration, " out of sequence");
    MFBO_CHECK(slot.on_fantasy == (s > 0), "pending slot ", s,
               " fantasy flag inconsistent with its batch position");
    if (slot.evaluated) ++evaluated;
    pending_.push_back(std::move(slot));
  }
  MFBO_CHECK(
      evaluated == 0 || evaluated == pending_.size(),
      "pending batch partially evaluated; checkpoints are state boundaries");
  if (target == EngineState::kAwaitResults)
    MFBO_CHECK(evaluated == 0,
               "state 'await_results' admits no evaluated slots");
  if (target == EngineState::kObserve ||
      (target == EngineState::kFitSurrogate && !pending_.empty()))
    MFBO_CHECK(evaluated == pending_.size(), "state '",
               engineStateName(target), "' requires a fully evaluated batch");
  if (evaluated > 0) {
    // Evaluated slots are the tail of the history and of their archives;
    // pin every index and require the archived input to match the proposal
    // bit-for-bit.
    MFBO_CHECK(history_.size() >= pending_.size(),
               "pending batch larger than the archived history");
    std::size_t n_low_slots = 0;
    std::size_t n_high_slots = 0;
    for (const ProposedSlot& s : pending_)
      (s.fidelity == Fidelity::kHigh ? n_high_slots : n_low_slots) += 1;
    MFBO_CHECK(low_.size() >= n_low_slots && high_.size() >= n_high_slots,
               "pending batch larger than the archived datasets");
    const std::size_t first_history = history_.size() - pending_.size();
    std::size_t low_cursor = low_.size() - n_low_slots;
    std::size_t high_cursor = high_.size() - n_high_slots;
    for (std::size_t s = 0; s < pending_.size(); ++s) {
      const ProposedSlot& slot = pending_[s];
      MFBO_CHECK(slot.history_index == first_history + s, "pending slot ", s,
                 " history index ", slot.history_index, " out of place");
      MFBO_CHECK(history_[slot.history_index].fidelity == slot.fidelity,
                 "pending slot ", s, " fidelity disagrees with its history");
      const bool hi = slot.fidelity == Fidelity::kHigh;
      std::size_t& cursor = hi ? high_cursor : low_cursor;
      MFBO_CHECK(slot.dataset_index == cursor, "pending slot ", s,
                 " dataset index ", slot.dataset_index, " out of place");
      MFBO_CHECK((hi ? high_ : low_).x[slot.dataset_index].raw() ==
                     slot.x.raw(),
                 "pending slot ", s, " x does not match its archive row");
      ++cursor;
    }
  } else {
    for (const ProposedSlot& slot : pending_)
      MFBO_CHECK(slot.history_index == 0 && slot.dataset_index == 0,
                 "unevaluated pending slot carries archive indices");
  }
}

void Engine::restorePolicy(const Json& policy, EngineState target) {
  // The options identity is whatever optionsDigest() writes: comparing the
  // re-dumped section byte-for-byte rejects drift in any field, a missing
  // or extra key, and a changed type, with no per-field validator to keep
  // in step with the writer.
  MFBO_CHECK(policy.isObject() && policy.contains("surrogates"),
             "checkpoint policy must be an object with a 'surrogates' stamp");
  Json digest = Json::object();
  for (const auto& [key, value] : policy.members())
    if (key != "surrogates") digest.set(key, value);
  const std::string expected = optionsDigest().dump();
  MFBO_CHECK(digest.dump() == expected, "checkpoint options ", digest.dump(),
             " do not match the engine's ", expected);
  const Json& stamp = policy.at("surrogates");

  if (target != EngineState::kInit) {
    // The Init state is atomic: any checkpoint past it archives the
    // complete initial design (restore() has pinned the history length),
    // in the order handleInit evaluates it.
    for (std::size_t i = 0; i < initTotal(); ++i)
      MFBO_CHECK(history_[i].fidelity == initFidelity(i), "history entry ", i,
                 " breaks the initial-design fidelity pattern");
    buildModels();
  }
  if (!models_fitted_) {
    MFBO_CHECK(stamp.isNull(),
               "hyperparameter stamp present before the first fit");
    return;
  }

  // Replay the training schedule handleFitSurrogate ran: regrow the
  // archives in history order and absorb each completed batch through the
  // same hooks, so the models' trainers and MC generators advance exactly
  // as they did originally — checked against the stamp below.
  Dataset low = std::exchange(low_, Dataset{});
  Dataset high = std::exchange(high_, Dataset{});
  std::size_t entry = 0;
  const auto regrow = [&] {
    const Fidelity f = history_[entry++].fidelity;
    Dataset& from = f == Fidelity::kHigh ? high : low;
    Dataset& to = f == Fidelity::kHigh ? high_ : low_;
    const std::size_t row = to.size();
    to.add(std::move(from.x[row]), std::move(from.evals[row]));
    return std::make_pair(f, row);
  };
  while (entry < initTotal()) regrow();
  fitModels();
  std::size_t done = 0;
  for (const std::size_t size : batches_) {
    const bool retrain = retrainDue(done, size);
    for (std::size_t s = 0; s < size; ++s) {
      const auto [f, row] = regrow();
      if (!retrain) addRow(f, row);
    }
    if (retrain) fitModels();
    done += size;
  }
  // An evaluated batch not yet absorbed (state fit_surrogate / observe) is
  // archived; the resumed FitSurrogate handler absorbs it.
  while (entry < history_.size()) regrow();
  checkStampAgainst(stamp, hyperparameters());
}

void Engine::restore(const Json& ckpt) {
  MFBO_CHECK(state_ == EngineState::kInit && history_.empty() &&
                 pending_.empty() && batches_.empty() && iteration_ == 0 &&
                 !models_fitted_,
             "restore() requires a freshly constructed engine");
  checkKeys(ckpt,
            {"format", "version", "algo", "state", "problem", "seed", "rng",
             "iteration", "cost", "n_low", "n_high", "models_fitted",
             "batches", "history", "pending", "policy"},
            "checkpoint");
  MFBO_CHECK(stringField(ckpt, "format") == kCheckpointFormat,
             "not an engine checkpoint: format '", stringField(ckpt, "format"),
             "'");
  const double version = finiteNumber(ckpt, "version");
  MFBO_CHECK(version == kCheckpointVersion, "unsupported checkpoint version ",
             version, " (this build reads version ", kCheckpointVersion, ")");
  MFBO_CHECK(stringField(ckpt, "algo") == algoName(), "checkpoint algo '",
             stringField(ckpt, "algo"), "' does not match this engine ('",
             algoName(), "')");

  const Json& prob = ckpt.at("problem");
  checkKeys(prob, {"name", "dim", "num_constraints", "cost_ratio"},
            "checkpoint problem");
  MFBO_CHECK(stringField(prob, "name") == problem_->name(),
             "checkpoint problem '", stringField(prob, "name"),
             "' does not match '", problem_->name(), "'");
  MFBO_CHECK(sizeField(prob, "dim") == d_,
             "checkpoint problem dim does not match");
  MFBO_CHECK(sizeField(prob, "num_constraints") == nc_,
             "checkpoint constraint count does not match");
  MFBO_CHECK(finiteNumber(prob, "cost_ratio") == ratio_,
             "checkpoint cost ratio does not match");

  const EngineState target = engineStateFromName(stringField(ckpt, "state"));
  MFBO_CHECK(target != EngineState::kDone,
             "cannot restore a completed run (checkpoints stop before Done)");

  seed_ = parseSeed(ckpt.at("seed"));
  iteration_ = sizeField(ckpt, "iteration");
  models_fitted_ = boolField(ckpt, "models_fitted");

  const Json& batches = ckpt.at("batches");
  MFBO_CHECK(batches.isArray(), "checkpoint batches must be an array");
  std::size_t batched_iterations = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::size_t size = sizeValue(batches.at(b), "batch size");
    MFBO_CHECK(size >= 1 && size <= maxBatch(), "checkpoint batch ", b,
               " holds ", size, " slots, outside 1..", maxBatch());
    batches_.push_back(size);
    batched_iterations += size;
  }

  restoreHistory(ckpt);
  restorePending(ckpt, target);

  MFBO_CHECK(iteration_ == batched_iterations + pending_.size(),
             "iteration counter ", iteration_, " does not match ",
             batched_iterations, " batched + ", pending_.size(), " pending");
  const std::size_t evaluated_pending =
      pending_.empty() || !pending_.front().evaluated ? 0 : pending_.size();
  const std::size_t expected_history =
      (target == EngineState::kInit ? 0 : initTotal()) + batched_iterations +
      evaluated_pending;
  MFBO_CHECK(history_.size() == expected_history, "history holds ",
             history_.size(), " entries, the checkpoint state implies ",
             expected_history);

  switch (target) {
    case EngineState::kInit:
      MFBO_CHECK(pending_.empty() && batches_.empty() && iteration_ == 0 &&
                     !models_fitted_,
                 "state 'init' admits no progress");
      break;
    case EngineState::kFitSurrogate:
      if (models_fitted_) {
        MFBO_CHECK(!pending_.empty(),
                   "a refit boundary requires the just-observed batch");
      } else {
        MFBO_CHECK(pending_.empty() && batches_.empty() && iteration_ == 0,
                   "the initial-fit boundary admits no iterations");
      }
      break;
    case EngineState::kPropose:
      MFBO_CHECK(models_fitted_ && pending_.empty(),
                 "state 'propose' requires fitted models and no pending batch");
      break;
    case EngineState::kAwaitResults:
      MFBO_CHECK(models_fitted_ && !pending_.empty(),
                 "state 'await_results' requires a proposed batch");
      break;
    case EngineState::kObserve:
      MFBO_CHECK(models_fitted_ && !pending_.empty(),
                 "state 'observe' requires an evaluated batch");
      break;
    case EngineState::kDone:
      break;  // rejected above
  }

  restorePolicy(ckpt.at("policy"), target);
  // The RNG is reinstated last: replaying the surrogate schedule must not
  // touch the run stream (the models own their private generators).
  rng_.restoreState(stringField(ckpt, "rng"));
  restoring_ = true;
  transition(target);
  restoring_ = false;
}

MfboEngine::MfboEngine(Problem& problem, std::uint64_t seed,
                       MfboOptions options)
    : Engine(problem, seed), options_(std::move(options)) {
  MFBO_CHECK(options_.n_init_low > 0 && options_.n_init_high > 0,
             "initial designs must be non-empty, got ", options_.n_init_low,
             " low / ", options_.n_init_high, " high");
  MFBO_CHECK(options_.gamma >= 0.0, "gamma must be non-negative, got ",
             options_.gamma);
  MFBO_CHECK(options_.batch_size >= 1, "batch_size must be >= 1, got ",
             options_.batch_size);
  // The sequential loop registered its metrics at run() entry; registering
  // at construction keeps them in the snapshots of zero-iteration runs too.
  telemetry::counter("bo.mfbo.iterations");
  telemetry::counter("bo.mfbo.budget_downgrades");
}

SynthesisResult MfboEngine::run() {
  // The span name must be a literal (the profiler keeps the pointer for
  // the process lifetime), hence per-engine run() overrides.
  const spans::ScopedSpan run_span("mfbo");
  return runToCompletion();
}

void MfboEngine::buildModels() {
  SurrogateFactory factory = options_.surrogate_factory;
  if (!factory) {
    factory = [this](std::size_t x_dim, std::uint64_t s) {
      mf::NargpConfig cfg = options_.nargp;
      cfg.seed = s;
      cfg.low.seed = s + 17;
      cfg.high.seed = s + 31;
      return std::make_unique<mf::NargpModel>(x_dim, cfg);
    };
  }
  models_.clear();
  models_.reserve(n_out_);
  for (std::size_t i = 0; i < n_out_; ++i)
    models_.push_back(factory(d_, seed_ * 1000003u + i));
}

void MfboEngine::fitModels() {
  for (std::size_t i = 0; i < n_out_; ++i)
    models_[i]->fit(low_.x, columnOf(low_, i), high_.x, columnOf(high_, i));
}

void MfboEngine::addRow(Fidelity f, std::size_t row) {
  const bool hi = f == Fidelity::kHigh;
  const Dataset& ds = hi ? high_ : low_;
  MFBO_DCHECK(row < ds.size(), "archive row ", row, " out of range");
  const Evaluation& eval = ds.evals[row];
  for (std::size_t i = 0; i < n_out_; ++i) {
    const double y = i == 0 ? eval.objective : eval.constraints[i - 1];
    if (hi)
      models_[i]->addHigh(ds.x[row], y, false);
    else
      models_[i]->addLow(ds.x[row], y, false);
  }
}

std::vector<std::vector<double>> MfboEngine::hyperparameters() const {
  std::vector<std::vector<double>> hypers;
  hypers.reserve(models_.size());
  for (const auto& model : models_) hypers.push_back(model->hyperparameters());
  return hypers;
}

std::vector<gp::Prediction> MfboEngine::lowPredictions(const Models& models,
                                                       const Vector& u) const {
  std::vector<gp::Prediction> p(n_out_);
  for (std::size_t i = 0; i < n_out_; ++i) p[i] = models[i]->predictLow(u);
  return p;
}

std::vector<gp::Prediction> MfboEngine::highPredictions(
    const Models& models, const Vector& u) const {
  std::vector<gp::Prediction> p(n_out_);
  for (std::size_t i = 0; i < n_out_; ++i) p[i] = models[i]->predictHigh(u);
  return p;
}

void MfboEngine::makeFantasies() {
  const spans::ScopedSpan span("fantasy");
  fantasy_.clear();
  fantasy_.reserve(models_.size());
  for (const auto& m : models_) fantasy_.push_back(m->clone());
}

void MfboEngine::applyLiar(const ProposedSlot& slot) {
  const spans::ScopedSpan span("fantasy");
  const bool hi = slot.fidelity == Fidelity::kHigh;
  for (std::size_t i = 0; i < n_out_; ++i) {
    double lie;
    if (i == 0) {
      // CL-min for the objective: the incumbent best, so the fantasy never
      // moves tau and a lie can only *discourage* re-proposing nearby.
      lie = hi ? fantasy_[0]->bestHighObserved()
               : fantasy_[0]->bestLowObserved();
    } else {
      // Constraints take the believer's value — the posterior mean.
      const gp::Prediction p = hi ? fantasy_[i]->predictHigh(slot.x)
                                  : fantasy_[i]->predictLow(slot.x);
      lie = p.mean;
    }
    if (hi)
      fantasy_[i]->addHigh(slot.x, lie, false);
    else
      fantasy_[i]->addLow(slot.x, lie, false);
  }
}

void MfboEngine::handleInit() {
  traceRunStart("mfbo", *problem_, seed_, options_.budget);
  // Step 1 of Algorithm 1: initial designs at both fidelities.
  for (const Vector& u :
       linalg::latinHypercube(options_.n_init_low, unit_, rng_))
    evaluateRaw(u, Fidelity::kLow);
  for (const Vector& u :
       linalg::latinHypercube(options_.n_init_high, unit_, rng_))
    evaluateRaw(u, Fidelity::kHigh);
  buildModels();
  transition(EngineState::kFitSurrogate);
}

void MfboEngine::handlePropose() {
  telemetry::Counter& iterations_total =
      telemetry::counter("bo.mfbo.iterations");
  // Inputs proposed earlier in this batch; slot s dedupes against them so a
  // fantasy cannot re-propose (and singularize) an unevaluated sibling.
  Dataset pending_points;
  double projected = tracker_.cost();
  for (std::size_t s = 0; s < options_.batch_size; ++s) {
    if (s > 0 && projected + minStepCost() > budget() + 1e-9) break;
    ++iteration_;
    iterations_total.add();
    if (s == 1) makeFantasies();
    if (s > 0) applyLiar(pending_.back());
    ProposedSlot slot = proposeSlot(s, projected, pending_points);
    projected += slot.fidelity == Fidelity::kHigh ? 1.0 : 1.0 / ratio_;
    pending_points.add(slot.x, Evaluation{});
    pending_.push_back(std::move(slot));
  }
  fantasy_.clear();
  transition(EngineState::kAwaitResults);
}

ProposedSlot MfboEngine::proposeSlot(std::size_t slot_index,
                                     double projected_cost,
                                     const Dataset& pending_points) {
  MFBO_DCHECK(slot_index < options_.batch_size, "slot ", slot_index,
              " out of range for batch size ", options_.batch_size);
  telemetry::Counter& downgrades_total =
      telemetry::counter("bo.mfbo.budget_downgrades");
  const Models& models = activeModels();

  const auto feas_low = low_.bestFeasible();
  const auto feas_high = high_.bestFeasible();

  // tau incumbents (paper 4.1): locations of the current best results of
  // the low- and high-fidelity search spaces.
  const std::optional<Vector> inc_l =
      low_.size() ? std::optional<Vector>(
                        low_.x[feas_low ? *feas_low : low_.bestByMerit()])
                  : std::nullopt;
  const std::optional<Vector> inc_h =
      high_.size() ? std::optional<Vector>(
                         high_.x[feas_high ? *feas_high : high_.bestByMerit()])
                   : std::nullopt;

  ProposedSlot slot;
  slot.iteration = iteration_;
  slot.on_fantasy = slot_index > 0;

  // Step 5: optimize the low-fidelity acquisition -> x*_l.
  Vector x_star_l;
  double tau_l = IterationRecord::kNan;
  const bool ff_low = nc_ > 0 && !feas_low && options_.use_first_feasible;
  std::optional<spans::ScopedSpan> phase_span;
  phase_span.emplace("acq_low");
  if (ff_low) {
    opt::ScalarObjective criterion = [&](const Vector& u) {
      const auto p = lowPredictions(models, u);
      return predictedViolation({p.begin() + 1, p.end()});
    };
    x_star_l = minimizeCriterionMsp(criterion, unit_, options_.msp.n_starts,
                                    options_.msp.local, rng_);
  } else {
    tau_l = feas_low ? low_.evals[*feas_low].objective
                     : models[0]->bestLowObserved();
    // Ranked in log space: the linear wEI product underflows to a flat 0
    // wherever several constraints are simultaneously improbable, which
    // would blind the MSP search exactly where it must still rank.
    opt::ScalarObjective acq_low = [&](const Vector& u) {
      const auto p = lowPredictions(models, u);
      return logWeightedEi(p[0], tau_l, {p.begin() + 1, p.end()});
    };
    x_star_l = maximizeAcquisitionMsp(acq_low, unit_, inc_l, inc_h,
                                      options_.msp, rng_);
  }

  // Step 6: optimize the fused high-fidelity acquisition seeded with x*_l
  // (plus a few jittered copies of it).
  phase_span.emplace("acq_high");
  std::vector<Vector> seeds{x_star_l};
  for (std::size_t i = 0; i < options_.x_star_seeds; ++i)
    seeds.push_back(linalg::gaussianJitterInBox(
        x_star_l, options_.msp.relative_sd, unit_, rng_));

  Vector x_t;
  double tau_h = IterationRecord::kNan;
  const bool ff_high = nc_ > 0 && !feas_high && options_.use_first_feasible;
  if (ff_high) {
    // eq. (13) on the fused high-fidelity posterior means.
    opt::ScalarObjective criterion = [&](const Vector& u) {
      const auto p = highPredictions(models, u);
      return predictedViolation({p.begin() + 1, p.end()});
    };
    opt::ScalarObjective negated = [&](const Vector& u) {
      return -criterion(u);
    };
    // Reuse the MSP maximizer on the negated criterion so the x*_l seeds
    // participate; equivalent to minimizing the criterion.
    x_t = maximizeAcquisitionMsp(negated, unit_, inc_l, inc_h, options_.msp,
                                 rng_, seeds);
  } else {
    tau_h = feas_high ? high_.evals[*feas_high].objective
                      : models[0]->bestHighObserved();
    // Log-space ranking, as for the low-fidelity acquisition above.
    opt::ScalarObjective acq_high = [&](const Vector& u) {
      const auto p = highPredictions(models, u);
      return logWeightedEi(p[0], tau_h, {p.begin() + 1, p.end()});
    };
    x_t = maximizeAcquisitionMsp(acq_high, unit_, inc_l, inc_h, options_.msp,
                                 rng_, seeds);
  }

  // Dedupe before the fidelity decision, against both archives (the chosen
  // fidelity is not known yet) and the batch's earlier proposals: the
  // eq. (11)/(12) sigma^2_l criterion must be evaluated at the point
  // actually simulated, not at a raw maximizer that a later nudge moves.
  Vector x_t_raw = x_t;
  x_t = dedupeCandidate(std::move(x_t), {&low_, &high_, &pending_points},
                        unit_, rng_);
  slot.deduped = x_t.raw() != x_t_raw.raw();

  // Step 7 (3.4): fidelity selection. Variances are normalized by each low
  // GP's output scale so gamma is dimensionless (eq. 11-12).
  phase_span.emplace("fidelity_decision");
  const std::vector<gp::Prediction> p_low_t = lowPredictions(models, x_t);
  std::vector<double> norm_vars(n_out_);
  double max_norm_var = 0.0;
  for (std::size_t i = 0; i < n_out_; ++i) {
    const double sd_out = models[i]->lowOutputSd();
    norm_vars[i] = p_low_t[i].var / (sd_out * sd_out);
    max_norm_var = std::max(max_norm_var, norm_vars[i]);
  }
  const double threshold = (1.0 + static_cast<double>(nc_)) * options_.gamma;
  Fidelity f = max_norm_var < threshold ? Fidelity::kHigh : Fidelity::kLow;
  // Respect the remaining budget — including the cost of this batch's
  // earlier slots: a high-fidelity evaluation that no longer fits is
  // downgraded.
  bool downgraded = false;
  if (f == Fidelity::kHigh && projected_cost + 1.0 > options_.budget + 1e-9) {
    f = Fidelity::kLow;
    downgraded = true;
    downgrades_total.add();
  }
  // Journal the eq. (11)/(12) outcome: the fidelity schedule is the one
  // decision an MF-BO operator audits over time, and the trace fields
  // alone vanish when tracing is off.
  eventlog::record(eventlog::EventKind::kFidelityDecision,
                   f == Fidelity::kHigh ? "high" : "low",
                   downgraded ? "downgraded" : nullptr,
                   static_cast<std::int64_t>(iteration_),
                   static_cast<std::int64_t>(slot_index));
  phase_span.reset();

  slot.x = std::move(x_t);
  slot.x_star_l = std::move(x_star_l);
  slot.x_t_raw = std::move(x_t_raw);
  slot.fidelity = f;
  slot.downgraded = downgraded;
  slot.first_feasible_phase = ff_high;
  slot.tau_l = tau_l;
  slot.tau_h = tau_h;
  slot.max_norm_var = max_norm_var;
  slot.threshold = threshold;
  slot.norm_low_var = std::move(norm_vars);

  // Fantasy slots report the acquisition at the point they were proposed
  // at, on the clones that proposed them — the clones are discarded with
  // the batch, so it is computed here rather than during Observe. (Slot 0
  // computes it on the real models during Observe, as the sequential loop
  // always has.) Reported in linear space; the log form is only the
  // search's ranking.
  if (slot.on_fantasy && iterationWanted(options_.observer)) {
    const spans::ScopedSpan observe_span("observe");
    const auto p = highPredictions(models, slot.x);
    slot.acquisition =
        ff_high ? predictedViolation({p.begin() + 1, p.end()})
                : weightedEi(p[0], tau_h, {p.begin() + 1, p.end()});
  }
  return slot;
}

double MfboEngine::observedAcquisition(const ProposedSlot& slot) {
  if (slot.on_fantasy) return slot.acquisition;
  // Acquisition (or eq. 13 criterion) value at the evaluated point — one
  // fused MC pass per output. Reported in linear space.
  const auto p = highPredictions(models_, slot.x);
  return slot.first_feasible_phase
             ? predictedViolation({p.begin() + 1, p.end()})
             : weightedEi(p[0], slot.tau_h, {p.begin() + 1, p.end()});
}

Json MfboEngine::optionsDigest() const {
  Json o = Json::object();
  o.set("n_init_low", options_.n_init_low);
  o.set("n_init_high", options_.n_init_high);
  o.set("budget", options_.budget);
  o.set("gamma", options_.gamma);
  o.set("retrain_every", options_.retrain_every);
  o.set("x_star_seeds", options_.x_star_seeds);
  o.set("use_first_feasible", options_.use_first_feasible);
  o.set("batch_size", options_.batch_size);
  o.set("msp", mspDigest(options_.msp));
  Json n = Json::object();
  n.set("n_mc", options_.nargp.n_mc);
  n.set("n_mc_var", options_.nargp.n_mc_var);
  n.set("n_restarts_low", options_.nargp.low.n_restarts);
  n.set("n_restarts_high", options_.nargp.high.n_restarts);
  o.set("nargp", std::move(n));
  Json digest = Json::object();
  digest.set("options", std::move(o));
  // A custom factory is opaque, so the best available identity check is
  // both-or-neither; the hyperparameter stamp catches actual drift.
  digest.set("custom_surrogate", static_cast<bool>(options_.surrogate_factory));
  return digest;
}

WeiboEngine::WeiboEngine(Problem& problem, std::uint64_t seed,
                         WeiboOptions options)
    : Engine(problem, seed), options_(std::move(options)) {
  // See the MfboEngine constructor: registered here (the sequential loop
  // registered at run() entry) for zero-iteration snapshot parity.
  telemetry::counter("bo.weibo.iterations");
}

SynthesisResult WeiboEngine::run() {
  const spans::ScopedSpan run_span("weibo");
  return runToCompletion();
}

void WeiboEngine::buildModels() {
  // On restore the archives are complete at this point (see engine.h).
  MFBO_CHECK(low_.size() == 0,
             "weibo checkpoint contains low-fidelity history");
  models_.clear();
  models_.reserve(n_out_);
  for (std::size_t i = 0; i < n_out_; ++i) {
    gp::GpConfig cfg = options_.gp;
    cfg.seed = seed_ * 1000003u + i;
    models_.emplace_back(std::make_unique<gp::SeArdKernel>(d_), cfg);
  }
}

void WeiboEngine::fitModels() {
  const spans::ScopedSpan span("fit_high");
  models_[0].fit(high_.x, high_.objectives());
  for (std::size_t i = 0; i < nc_; ++i)
    models_[1 + i].fit(high_.x, high_.constraintColumn(i));
}

void WeiboEngine::addRow(Fidelity f, std::size_t row) {
  MFBO_DCHECK(f == Fidelity::kHigh && row < high_.size(),
              "weibo absorbs only archived high-fidelity rows");
  const spans::ScopedSpan span("fit_high");
  const Evaluation& eval = high_.evals[row];
  models_[0].addPoint(high_.x[row], eval.objective, false);
  for (std::size_t i = 0; i < nc_; ++i)
    models_[1 + i].addPoint(high_.x[row], eval.constraints[i], false);
}

std::vector<std::vector<double>> WeiboEngine::hyperparameters() const {
  std::vector<std::vector<double>> hypers;
  hypers.reserve(models_.size());
  for (const auto& model : models_) hypers.push_back(model.hyperparameters());
  return hypers;
}

std::vector<gp::Prediction> WeiboEngine::constraintPredictions(
    const Vector& u) const {
  std::vector<gp::Prediction> cons(nc_);
  for (std::size_t i = 0; i < nc_; ++i) cons[i] = models_[1 + i].predict(u);
  return cons;
}

void WeiboEngine::handleInit() {
  traceRunStart("weibo", *problem_, seed_, options_.max_sims);
  for (const Vector& u : linalg::latinHypercube(initTotal(), unit_, rng_))
    evaluateRaw(u, Fidelity::kHigh);
  buildModels();
  transition(EngineState::kFitSurrogate);
}

void WeiboEngine::handlePropose() {
  telemetry::Counter& iterations_total =
      telemetry::counter("bo.weibo.iterations");
  ++iteration_;
  iterations_total.add();

  const auto feasible_idx = high_.bestFeasible();
  const bool ff = nc_ > 0 && !feasible_idx && options_.use_first_feasible;

  ProposedSlot slot;
  slot.iteration = iteration_;
  slot.fidelity = Fidelity::kHigh;
  slot.first_feasible_phase = ff;

  std::optional<spans::ScopedSpan> phase_span;
  phase_span.emplace("acq_high");
  Vector candidate;
  double tau = IterationRecord::kNan;
  if (ff) {
    // No feasible point yet: minimize the eq. (13) predicted violation.
    opt::ScalarObjective criterion = [&](const Vector& u) {
      return predictedViolation(constraintPredictions(u));
    };
    candidate = minimizeCriterionMsp(criterion, unit_, options_.msp.n_starts,
                                     options_.msp.local, rng_);
  } else {
    tau = feasible_idx ? high_.evals[*feasible_idx].objective
                       : models_[0].bestObserved();
    // Log-space ranking (see the MFBO acquisition for the rationale).
    opt::ScalarObjective acq = [&](const Vector& u) {
      return logWeightedEi(models_[0].predict(u), tau,
                           constraintPredictions(u));
    };
    const std::optional<Vector> incumbent(
        high_.x[feasible_idx ? *feasible_idx : high_.bestByMerit()]);
    candidate = maximizeAcquisitionMsp(acq, unit_, std::nullopt, incumbent,
                                       options_.msp, rng_);
  }
  slot.tau_h = tau;
  candidate = dedupeCandidate(std::move(candidate), high_, unit_, rng_);
  phase_span.reset();

  // The sequential loop never reported dedupe nudges in its records;
  // slot.deduped stays false for artifact parity.
  slot.x = std::move(candidate);
  pending_.push_back(std::move(slot));
  transition(EngineState::kAwaitResults);
}

double WeiboEngine::observedAcquisition(const ProposedSlot& slot) {
  const auto cons = constraintPredictions(slot.x);
  return slot.first_feasible_phase
             ? predictedViolation(cons)
             : weightedEi(models_[0].predict(slot.x), slot.tau_h, cons);
}

Json WeiboEngine::optionsDigest() const {
  Json o = Json::object();
  o.set("n_init", options_.n_init);
  o.set("max_sims", options_.max_sims);
  o.set("retrain_every", options_.retrain_every);
  o.set("use_first_feasible", options_.use_first_feasible);
  o.set("msp", mspDigest(options_.msp));
  Json g = Json::object();
  g.set("n_restarts", options_.gp.n_restarts);
  o.set("gp", std::move(g));
  Json digest = Json::object();
  digest.set("options", std::move(o));
  return digest;
}

}  // namespace mfbo::bo
