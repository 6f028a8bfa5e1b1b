// mfbo::bo — resumable synthesis engine: Algorithm 1's propose → simulate
// → observe loop as an explicit state machine with versioned
// checkpoint/resume and q-point constant-liar batch proposals.
//
// States and transitions (every state change goes through
// Engine::transition — the single mutation site, pinned by lint rule
// E001):
//
//   Init → FitSurrogate → Propose → AwaitResults → Observe
//             ↑    │                                  │
//             │    └────────→ Done (budget spent)     │
//             └──────────────────────────────────────-┘
//
// Checkpoint contract: checkpoint() may be taken at any state boundary
// (between step() calls). restore() on a freshly constructed engine
// followed by run() yields a result and an observed iteration-record
// suffix byte-identical to the uninterrupted run at any thread count — the
// crash/resume differential harness in tests/test_checkpoint.cpp enforces
// this at every reachable boundary.
//
// Surrogates are restored by *replaying* the exact fit/addPoint schedule
// against the archived observations, never by deserializing factors: the
// incremental Cholesky append is equivalent to a rebuild only to ~1e-8, so
// serialized factors could not reproduce the uninterrupted run's bytes.
// The replay regrows the archives in history order and absorbs every
// completed batch through the same fitModels()/addRow() hooks and the same
// retrainDue() decision the live FitSurrogate handler uses, so the two
// cannot drift apart. The checkpointed hyperparameters serve as an
// integrity stamp the replayed models must match exactly, and the policy
// section must equal the engine's own optionsDigest() byte-for-byte.
//
// Batch proposals (MfboOptions::batch_size = q > 1) use the constant-liar
// fantasy: the fused surrogates are cloned once per batch, each proposed
// slot is fed back into the clones as a lie (CL-min for the objective —
// the incumbent best, so τ never moves — and the posterior mean for each
// constraint) via the O(n²) addPoint(retrain=false) path, and the next
// slot is proposed on the lied-to clones. The real models never see a lie,
// every slot still gets its own eq. (11)/(12) fidelity decision, and
// q = 1 never clones — reproducing the sequential loop bit-for-bit.
#pragma once

#include <algorithm>
#include <memory>
#include <string_view>
#include <vector>

#include "bo/common.h"
#include "bo/mfbo.h"
#include "bo/weibo.h"
#include "common/json.h"

namespace mfbo::bo {

enum class EngineState {
  kInit,          ///< evaluate the initial designs, construct surrogates
  kFitSurrogate,  ///< (re)train or incrementally update the surrogates
  kPropose,       ///< select the next batch of candidate points
  kAwaitResults,  ///< evaluate every pending candidate
  kObserve,       ///< publish per-iteration records for the batch
  kDone,          ///< budget exhausted; result available
};

/// Lowercase state name used in checkpoints ("fit_surrogate", ...).
const char* engineStateName(EngineState s);
/// Inverse of engineStateName; unknown names are a ContractViolation.
EngineState engineStateFromName(std::string_view name);

/// One slot of the current proposal batch, carrying everything the Observe
/// phase needs to publish the iteration record after the (possibly
/// asynchronous) evaluation lands. Serialized verbatim into checkpoints.
struct ProposedSlot {
  std::size_t iteration = 0;  ///< 1-based loop iteration this slot is
  Vector x;                   ///< proposed point (unit cube, post-dedupe)
  Vector x_star_l;            ///< MFBO step-5 maximizer (empty for WEIBO)
  Vector x_t_raw;             ///< pre-dedupe maximizer (empty for WEIBO)
  Fidelity fidelity = Fidelity::kHigh;
  bool downgraded = false;   ///< high→low forced by the remaining budget
  bool deduped = false;      ///< nudged away from an archived duplicate
  bool first_feasible_phase = false;  ///< eq. (13) replaced wEI
  bool on_fantasy = false;   ///< proposed on constant-liar clones (slot > 0)
  double tau_l = IterationRecord::kNan;
  double tau_h = IterationRecord::kNan;
  /// For fantasy slots: acquisition at x on the clones that proposed it
  /// (computed at propose time — the clones are discarded with the batch).
  /// Slot 0 computes it on the real models during Observe, as the
  /// sequential loop always has.
  double acquisition = IterationRecord::kNan;
  double max_norm_var = IterationRecord::kNan;  ///< eq. (11) LHS
  double threshold = IterationRecord::kNan;     ///< eq. (12) RHS
  std::vector<double> norm_low_var;  ///< per-output normalized low variance
  bool evaluated = false;
  std::size_t history_index = 0;  ///< row in the run history once evaluated
  std::size_t dataset_index = 0;  ///< row in its fidelity's archive
};

/// Deterministic JSON projection of a SynthesisResult, full history
/// included: byte-equality of two dumps is equality of everything a run
/// produced. The crash/resume harness and micro_batch compare these.
Json synthesisResultToJson(const SynthesisResult& result);

/// Base synthesis state machine. Owns the archives, cost meter, RNG and
/// pending batch, the surrogate-training schedule (live and replayed) and
/// the checkpoint policy section; subclasses provide the algorithm-specific
/// Init / Propose handlers and the surrogate and options hooks below.
class Engine {
 public:
  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  EngineState state() const { return state_; }
  bool done() const { return state_ == EngineState::kDone; }

  /// Stable algorithm tag ("mfbo", "weibo"): names the run span, the iteration
  /// records, and the session-layer artifacts (src/service).
  const char* algo() const { return algoName(); }

  /// Health-layer progress accessors (src/service/health.h): evaluation
  /// cost charged so far, the algorithm's total budget (cost units for
  /// MFBO, simulations for WEIBO), and completed iterations.
  double costSpent() const { return tracker_.cost(); }
  double costBudget() const { return budget(); }
  std::size_t iterationCount() const { return iteration_; }

  /// Execute the current state's handler and advance. Not callable once
  /// Done.
  void step();

  /// Drive the machine to completion under the algorithm's run span and
  /// return the result. Works from a fresh engine and from a restored
  /// checkpoint.
  virtual SynthesisResult run() = 0;

  /// Serialize the complete optimizer state at the current boundary.
  /// Callable between any two step() calls; not once Done.
  Json checkpoint() const;

  /// Reinstate a checkpoint() document into this freshly constructed
  /// engine (same problem, same options). Validates every field and
  /// replays the surrogate training schedule; any mismatch — version,
  /// problem identity, options, shapes, non-finite payloads, or replayed
  /// hyperparameters drifting from the stamp — is a ContractViolation.
  void restore(const Json& ckpt);

  /// Move the result out; engine must be Done.
  SynthesisResult takeResult();

 protected:
  Engine(Problem& problem, std::uint64_t seed);

  /// The single state-mutation site (lint rule E001). Checks the edge
  /// against the transition diagram above; restore() is the one caller
  /// allowed to jump from Init to the checkpointed state.
  void transition(EngineState next);

  /// Shared driver behind every run() override: step to completion,
  /// return the result.
  SynthesisResult runToCompletion();

  // Algorithm hooks.
  virtual const char* algoName() const = 0;
  virtual double budget() const = 0;
  /// Cost of the cheapest evaluation still worth proposing.
  virtual double minStepCost() const = 0;
  virtual std::size_t retrainEvery() const = 0;
  virtual std::size_t initTotal() const = 0;
  /// Fidelity of initial-design row @p i (0 <= i < initTotal()).
  virtual Fidelity initFidelity(std::size_t i) const = 0;
  /// Largest batch one Propose step may emit.
  virtual std::size_t maxBatch() const = 0;
  virtual const IterationObserver& observerRef() const = 0;
  virtual void handleInit() = 0;
  virtual void handlePropose() = 0;
  /// Acquisition (or eq. 13 criterion) value reported for @p slot's
  /// iteration record, on the models that proposed it.
  virtual double observedAcquisition(const ProposedSlot& slot) = 0;

  // Surrogate hooks: the only calls the training schedule makes, live and
  // in the restore replay alike.
  /// Construct fresh, unfitted surrogates. Called once the initial design
  /// is archived; during restore the archives are still complete, so this
  /// is also where a subclass rejects rows it can never have produced.
  virtual void buildModels() = 0;
  /// Train every surrogate (hyperparameters included) on the archives.
  virtual void fitModels() = 0;
  /// Append archive row @p row of fidelity @p f to every surrogate without
  /// retraining hyperparameters.
  virtual void addRow(Fidelity f, std::size_t row) = 0;
  /// Per-surrogate hyperparameter vectors: the checkpoint's integrity stamp.
  virtual std::vector<std::vector<double>> hyperparameters() const = 0;
  /// Options identity written as the checkpoint policy section (next to
  /// the stamp); restore requires it byte-for-byte.
  virtual Json optionsDigest() const = 0;

  // Shared handlers.
  void handleFitSurrogate();
  void handleAwaitResults();
  void handleObserve();

  /// The stateless half of an evaluation: simulator span + sim counter +
  /// Problem::evaluate. Safe to run as a pool task — it touches no engine
  /// state, and Problem::evaluate is reentrant by contract — which is how
  /// handleAwaitResults fans a batch out over the shared pool.
  Evaluation simulate(const Vector& u, Fidelity f);
  /// The stateful half: cost charge, history row, archive append. Serial
  /// only; called in slot order so the records match the sequential loop.
  /// Returns the history row index.
  std::size_t recordEvaluation(const Vector& u, Fidelity f, Evaluation eval);
  /// simulate + recordEvaluation in one call — the serial evaluation path
  /// used by the init designs.
  std::size_t evaluateRaw(const Vector& u, Fidelity f);

  /// True when the batch of @p size iterations following @p done completed
  /// ones retrains hyperparameters (any of them hits the retrain_every
  /// schedule) rather than appending its rows.
  bool retrainDue(std::size_t done, std::size_t size) const;

  /// Output column @p out of a dataset (0 = objective).
  static std::vector<double> columnOf(const Dataset& ds, std::size_t out);

  Problem* problem_;
  std::uint64_t seed_;
  std::size_t d_;
  std::size_t nc_;
  std::size_t n_out_;
  Box real_box_;
  Box unit_;
  double ratio_;
  Rng rng_;
  CostTracker tracker_;
  std::vector<HistoryEntry> history_;
  Dataset low_;   ///< low-fidelity archive (unused by WEIBO)
  Dataset high_;  ///< high-fidelity archive (WEIBO's only archive)
  std::size_t iteration_ = 0;
  std::vector<ProposedSlot> pending_;   ///< current batch
  std::vector<std::size_t> batches_;    ///< sizes of completed batches
  bool models_fitted_ = false;
  SynthesisResult result_;

 private:
  void finish();
  void restoreHistory(const Json& ckpt);
  void restorePending(const Json& ckpt, EngineState target);
  /// Validate the policy section against optionsDigest(), rebuild the
  /// surrogates and replay their training schedule (only up to what
  /// @p target implies has already happened — a checkpoint at FitSurrogate
  /// with a pending batch has *not* absorbed that batch yet).
  void restorePolicy(const Json& policy, EngineState target);

  EngineState state_ = EngineState::kInit;
  bool restoring_ = false;
};

/// The paper's multi-fidelity synthesizer as an Engine; adds q-point
/// constant-liar batching on top of the sequential Algorithm 1.
class MfboEngine final : public Engine {
 public:
  MfboEngine(Problem& problem, std::uint64_t seed, MfboOptions options);

  SynthesisResult run() override;

 protected:
  const char* algoName() const override { return "mfbo"; }
  double budget() const override { return options_.budget; }
  double minStepCost() const override { return 1.0 / ratio_; }
  std::size_t retrainEvery() const override { return options_.retrain_every; }
  std::size_t initTotal() const override {
    return options_.n_init_low + options_.n_init_high;
  }
  Fidelity initFidelity(std::size_t i) const override {
    return i < options_.n_init_low ? Fidelity::kLow : Fidelity::kHigh;
  }
  std::size_t maxBatch() const override { return options_.batch_size; }
  const IterationObserver& observerRef() const override {
    return options_.observer;
  }
  void handleInit() override;
  void handlePropose() override;
  double observedAcquisition(const ProposedSlot& slot) override;
  void buildModels() override;
  void fitModels() override;
  void addRow(Fidelity f, std::size_t row) override;
  std::vector<std::vector<double>> hyperparameters() const override;
  Json optionsDigest() const override;

 private:
  using Models = std::vector<std::unique_ptr<mf::MfSurrogate>>;

  /// Models the next slot is proposed on: the constant-liar clones while a
  /// batch is being fantasized, the real models otherwise.
  const Models& activeModels() const {
    return fantasy_.empty() ? models_ : fantasy_;
  }
  std::vector<gp::Prediction> lowPredictions(const Models& models,
                                             const Vector& u) const;
  std::vector<gp::Prediction> highPredictions(const Models& models,
                                              const Vector& u) const;
  /// Clone the fitted surrogates into the fantasy set (once per batch).
  void makeFantasies();
  /// Feed @p slot into the fantasy models as a constant-liar observation.
  void applyLiar(const ProposedSlot& slot);
  /// Steps 5-7 of Algorithm 1 for one batch slot, on activeModels().
  ProposedSlot proposeSlot(std::size_t slot_index, double projected_cost,
                           const Dataset& pending_points);

  MfboOptions options_;
  Models models_;
  Models fantasy_;
};

/// The WEIBO baseline on the same skeleton (sequential, batch size 1).
class WeiboEngine final : public Engine {
 public:
  WeiboEngine(Problem& problem, std::uint64_t seed, WeiboOptions options);

  SynthesisResult run() override;

 protected:
  const char* algoName() const override { return "weibo"; }
  double budget() const override { return options_.max_sims; }
  double minStepCost() const override { return 1.0; }
  std::size_t retrainEvery() const override { return options_.retrain_every; }
  std::size_t initTotal() const override {
    return std::min<std::size_t>(options_.n_init,
                                 static_cast<std::size_t>(options_.max_sims));
  }
  Fidelity initFidelity(std::size_t) const override { return Fidelity::kHigh; }
  std::size_t maxBatch() const override { return 1; }
  const IterationObserver& observerRef() const override {
    return options_.observer;
  }
  void handleInit() override;
  void handlePropose() override;
  double observedAcquisition(const ProposedSlot& slot) override;
  void buildModels() override;
  void fitModels() override;
  void addRow(Fidelity f, std::size_t row) override;
  std::vector<std::vector<double>> hyperparameters() const override;
  Json optionsDigest() const override;

 private:
  std::vector<gp::Prediction> constraintPredictions(const Vector& u) const;

  WeiboOptions options_;
  std::vector<gp::GpRegressor> models_;
};

}  // namespace mfbo::bo
