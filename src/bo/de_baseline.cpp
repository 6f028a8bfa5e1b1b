#include "bo/de_baseline.h"

#include <algorithm>

#include "common/check.h"
#include "common/spans.h"
#include "common/telemetry.h"

namespace mfbo::bo {

namespace {

/// Deb's feasibility rules: does @p a beat (or tie) @p b?
bool dominatesByDeb(const Evaluation& a, const Evaluation& b) {
  const bool fa = a.feasible(), fb = b.feasible();
  if (fa != fb) return fa;
  if (fa) return a.objective <= b.objective;
  return a.totalViolation() <= b.totalViolation();
}

}  // namespace

SynthesisResult DeBaseline::run(Problem& problem, std::uint64_t seed) const {
  const std::size_t d = problem.dim();
  MFBO_CHECK(d > 0, "problem has zero dimensions");
  const Box box = problem.bounds();
  Rng rng(seed);
  const spans::ScopedSpan run_span("de");
  telemetry::Counter& generations_total =
      telemetry::counter("bo.de.generations");
  telemetry::Counter& replacements_total =
      telemetry::counter("bo.de.replacements");

  CostTracker tracker(problem.costRatio());
  std::vector<HistoryEntry> history;

  auto evaluate = [&](const Vector& x) {
    const spans::ScopedSpan sim_span("simulate_high");
    Evaluation eval = problem.evaluate(x, Fidelity::kHigh);
    tracker.charge(Fidelity::kHigh);
    history.push_back({x, eval, Fidelity::kHigh, tracker.cost()});
    return history.back().eval;
  };
  auto budget_left = [&] {
    return tracker.cost() + 1.0 <= options_.max_sims + 1e-9;
  };

  const std::size_t np = std::max<std::size_t>(options_.population, 4);
  std::vector<Vector> pop = linalg::latinHypercube(np, box, rng);
  std::vector<Evaluation> evals(np);
  for (std::size_t i = 0; i < np && budget_left(); ++i)
    evals[i] = evaluate(pop[i]);

  std::size_t generation = 0;
  while (budget_left()) {
    ++generation;
    generations_total.add();
    for (std::size_t i = 0; i < np && budget_left(); ++i) {
      const auto picks = rng.distinctIndices(3, np, i);
      const Vector& a = pop[picks[0]];
      const Vector& b = pop[picks[1]];
      const Vector& c = pop[picks[2]];
      Vector trial = pop[i];
      const std::size_t forced = rng.index(d);
      for (std::size_t j = 0; j < d; ++j) {
        if (j == forced || rng.uniform() < options_.crossover)
          trial[j] = a[j] + options_.differential * (b[j] - c[j]);
      }
      trial = box.clamp(std::move(trial));
      const Evaluation trial_eval = evaluate(trial);
      if (dominatesByDeb(trial_eval, evals[i])) {
        pop[i] = std::move(trial);
        evals[i] = trial_eval;
        replacements_total.add();
      }
    }

    // One progress record per generation (every trial costs a simulation,
    // so per-trial events would dwarf the BO algorithms' traces).
    if (options_.observer && !history.empty()) {
      const spans::ScopedSpan observe_span("observe");
      IterationRecord rec;
      rec.algo = "de";
      rec.iteration = generation;
      rec.fidelity = Fidelity::kHigh;
      rec.cumulative_cost = tracker.cost();
      rec.x = &history.back().x;
      rec.eval = &history.back().eval;
      if (const auto best = bestHighIndex(history)) {
        rec.best_objective = history[*best].eval.objective;
        rec.feasible_found = history[*best].eval.feasible();
      }
      options_.observer(rec);
    }
  }

  return finalizeResult(std::move(history), tracker);
}

}  // namespace mfbo::bo
