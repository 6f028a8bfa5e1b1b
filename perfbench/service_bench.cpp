// Service benchmark: closed-loop synthesis traffic through the public
// session API (service::SessionManager create / stepRound / destroy) on one
// process, with the parallel pool sized to the machine's hardware threads.
//
//   service_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--ckpt-root DIR]
//
// Every workload is a closed loop: C clients each submit their next
// session only when the previous one returns. Session i gets seed N + i.
// Admission stops once S seconds have passed (and the workload's quality
// prefix has been admitted); the sessions still in flight then drain, so
// every admitted session completes and counts.
//
// --trace 0 measures the end-to-end metrics. Their session figures run on
// the process CPU clock, which a shared machine's other tenants do not
// advance; the wall-clock figures are printed beside them without a bound
// (perfbench/README.md, "Clocks"). --trace 1 runs the same loop
// with the layer decorators of bench_support.h installed, then the same
// sessions again without them, prints the per-layer metrics, the tracing
// overhead (each end-to-end metric traced against untraced), and checks
// that every traced session's result bytes equal the untraced run's.
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is 1 when a correctness check fails, 2 on bad arguments.
// perfbench/README.md documents the workloads and every metric.
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_support.h"
#include "bo/engine.h"
#include "bo/mfbo.h"
#include "common/json.h"
#include "common/memstats.h"
#include "common/parallel.h"
#include "problems/charge_pump.h"
#include "problems/power_amplifier.h"
#include "problems/synthetic.h"
#include "service/session_manager.h"

namespace {

using namespace mfbo;
using perfbench::Clock;
using perfbench::LayerCounters;
using perfbench::secondsBetween;

// ---------------------------------------------------------------------------
// Workloads

enum class ProblemKind { kPowerAmplifier, kChargePump, kQuadratic };

struct Workload {
  const char* name;
  ProblemKind problem;
  std::size_t clients;           ///< C: sessions in flight at once
  std::size_t quality_sessions;  ///< sessions 0..Q-1 feed the quality guards
  /// > 0: checkpoint every step into a directory and rebuild the manager
  /// every R rounds (the recovery path); 0: no persistence.
  std::size_t churn_rounds;

  bool persists() const { return churn_rounds > 0; }
};

// perfbench/README.md gives the reason for each workload, and why the
// persisting fleet without churn is not one of them.
constexpr Workload kWorkloads[] = {
    {"pa_mfbo", ProblemKind::kPowerAmplifier, 4, 8, 0},
    {"cp_mfbo", ProblemKind::kChargePump, 4, 8, 0},
    {"fleet_churn", ProblemKind::kQuadratic, 16, 200, 25},
};

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::unique_ptr<bo::Problem> makeProblem(ProblemKind kind) {
  switch (kind) {
    case ProblemKind::kPowerAmplifier:
      return std::make_unique<problems::PowerAmplifierProblem>();
    case ProblemKind::kChargePump:
      return std::make_unique<problems::ChargePumpProblem>();
    case ProblemKind::kQuadratic:
      return std::make_unique<problems::ConstrainedQuadraticProblem>(2);
  }
  return nullptr;
}

/// Session options. The PA follows table1 --quick and the charge pump
/// table2 --quick (acquisition and NARGP settings), with budgets cut to fix
/// the number of proposals; the fleet sessions are micro_sessions' tiny
/// session with q in {1, 2} interleaved.
bo::MfboOptions sessionOptions(ProblemKind kind, std::size_t index) {
  bo::MfboOptions opt;
  switch (kind) {
    case ProblemKind::kPowerAmplifier:
      // Initial design 10 low + 5 high (cost 5.5); the remaining 0.95 fits
      // no high-fidelity simulation, so each session makes exactly 19
      // proposals, each downgraded to low fidelity after its eq. (11)/(12)
      // decision. Equal work per session keeps runs comparable across
      // seeds.
      opt.n_init_low = 10;
      opt.n_init_high = 5;
      opt.budget = 6.45;
      opt.retrain_every = 2;
      opt.msp.n_starts = 12;
      opt.msp.local.max_evaluations = 80;
      opt.nargp.n_mc = 40;
      break;
    case ProblemKind::kChargePump:
      // Initial design 20 low + 3 high (cost 3.74); the remaining 0.51
      // buys exactly 13 low-fidelity proposals per session (1/27 each).
      opt.n_init_low = 20;
      opt.n_init_high = 3;
      opt.budget = 4.25;
      opt.retrain_every = 3;
      opt.msp.n_starts = 10;
      opt.msp.local.max_evaluations = 80;
      opt.nargp.n_mc = 40;
      break;
    case ProblemKind::kQuadratic:
      opt.n_init_low = 4;
      opt.n_init_high = 2;
      opt.budget = 4.0;
      opt.gamma = 0.5;
      opt.retrain_every = 2;
      opt.batch_size = 1 + index % 2;
      opt.x_star_seeds = 2;
      opt.msp.n_starts = 3;
      opt.msp.local.max_evaluations = 25;
      opt.nargp.n_mc = 8;
      opt.nargp.low.n_restarts = 1;
      opt.nargp.high.n_restarts = 1;
      break;
  }
  return opt;
}

std::string sessionId(std::size_t index) {
  return "s" + std::to_string(index);
}

/// Everything a session factory may record into: the decorators' counters
/// and the Engine* of each live session (the bo-layer progress reads).
struct Tracing {
  LayerCounters counters;
  std::map<std::string, bo::Engine*> engines;
};

/// Spec of session @p index — a pure function of (workload, seed, index),
/// so churn recovery and the identity re-runs rebuild the same session.
service::SessionSpec sessionSpec(const Workload& w, std::uint64_t seed,
                                 std::size_t index, Tracing* tracing) {
  service::SessionSpec spec;
  spec.id = sessionId(index);
  const ProblemKind kind = w.problem;
  spec.problem = [kind, tracing]() -> std::unique_ptr<bo::Problem> {
    if (tracing == nullptr) return makeProblem(kind);
    return std::make_unique<perfbench::TimedProblem>(makeProblem(kind),
                                                     tracing->counters);
  };
  const std::uint64_t session_seed = seed + index;
  const std::string id = spec.id;
  spec.engine = [kind, index, session_seed, tracing, id](bo::Problem& p) {
    bo::MfboOptions options = sessionOptions(kind, index);
    if (tracing != nullptr) perfbench::instrument(options, tracing->counters);
    auto engine = std::make_unique<bo::MfboEngine>(p, session_seed, options);
    if (tracing != nullptr) tracing->engines[id] = engine.get();
    return engine;
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Result checks and quality

struct Quality {
  // The session's result: its best high-fidelity evaluation.
  double best_objective = 0.0;
  bool feasible = false;
  double sims_to_best = 0.0;  ///< equivalent sims when the best was found
  // The best of the session's proposals (the history after the initial
  // design), at whatever fidelity each was simulated.
  double proposal_objective = 0.0;
  bool proposal_feasible = false;
  double proposal_cost = 0.0;  ///< equivalent sims when it was simulated
};

/// Validate one completed session's result document and extract its
/// quality figures. Returns an error message, or empty when consistent.
std::string checkResult(const Json& doc, const bo::MfboOptions& options,
                        const bo::Problem& problem, Quality* quality) {
  if (!doc.isObject() || !doc.contains("result")) return "no result object";
  const Json& r = doc.at("result");
  const double budget = options.budget;
  const double spent = r.at("equivalent_high_sims").asNumber();
  if (!(spent > 0.0) || spent > budget + 1e-9)
    return "equivalent_high_sims " + std::to_string(spent) +
           " outside (0, budget]";
  const Json& history = r.at("history");
  const std::size_t n_low =
      static_cast<std::size_t>(r.at("n_low").asNumber());
  const std::size_t n_high =
      static_cast<std::size_t>(r.at("n_high").asNumber());
  if (history.size() != n_low + n_high) return "history length mismatch";
  if (n_low < options.n_init_low || n_high < options.n_init_high)
    return "fewer evaluations than the initial design";
  const linalg::Box box = problem.bounds();
  const Json& best_x = r.at("best_x");
  if (best_x.size() != problem.dim()) return "best_x has the wrong size";
  for (std::size_t i = 0; i < best_x.size(); ++i) {
    // Unit-cube to design-box mapping may round one ulp past a bound.
    const double v = best_x.at(i).asNumber();
    const double slack = 1e-9 * (box.upper[i] - box.lower[i]);
    if (!(v >= box.lower[i] - slack && v <= box.upper[i] + slack))
      return "best_x outside the design box";
  }
  const double best = r.at("best_objective").asNumber();
  if (!std::isfinite(best)) return "best objective is not finite";
  bool all_satisfied = true;
  const Json& best_c = r.at("best_constraints");
  for (std::size_t i = 0; i < best_c.size(); ++i)
    all_satisfied = all_satisfied && best_c.at(i).asNumber() < 0.0;
  const bool feasible = r.at("feasible_found").asBool();
  if (feasible != all_satisfied)
    return "feasible_found disagrees with the best constraints";
  // The reported best must be one of the high-fidelity evaluations; the
  // first one with its values marks when it was reached.
  std::optional<double> reached;
  for (std::size_t i = 0; i < history.size() && !reached; ++i) {
    const Json& h = history.at(i);
    if (h.at("fidelity").asString() == "high" &&
        h.at("objective").asNumber() == best &&
        h.at("constraints").dump() == best_c.dump())
      reached = h.at("cost").asNumber();
  }
  if (!reached) return "best design missing from the high-fidelity history";
  quality->best_objective = best;
  quality->feasible = feasible;
  quality->sims_to_best = *reached;
  // The history starts with the initial design (low prefix, then high),
  // which the seed alone decides. On the circuit workloads every proposal
  // is a low-fidelity simulation, so the result above is the initial
  // design's best; the proposals show what acquisition and fitting found.
  const std::size_t n_init = options.n_init_low + options.n_init_high;
  if (history.size() <= n_init) return "no proposals after the initial design";
  std::optional<perfbench::Candidate> best_proposal;
  for (std::size_t i = n_init; i < history.size(); ++i) {
    const Json& h = history.at(i);
    std::vector<double> constraints;
    for (const Json& c : h.at("constraints").items())
      constraints.push_back(c.asNumber());
    const perfbench::Candidate candidate =
        perfbench::makeCandidate(h.at("objective").asNumber(), constraints);
    if (best_proposal && !perfbench::betterCandidate(candidate, *best_proposal))
      continue;
    best_proposal = candidate;
    quality->proposal_cost = h.at("cost").asNumber();
  }
  quality->proposal_objective = best_proposal->objective;
  quality->proposal_feasible = best_proposal->feasible;
  return "";
}

// ---------------------------------------------------------------------------
// One closed-loop pass

struct PassConfig {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;           ///< admission window (when admit_count == 0)
  std::size_t admit_count = 0;    ///< > 0: admit exactly this many sessions
  std::string ckpt_dir;           ///< persistence directory (persist workloads)
  Tracing* tracing = nullptr;     ///< decorators on (traced pass)
  /// Keep every session's result bytes (the traced run compares them all);
  /// otherwise only every kIdentityStride-th, so the benchmark's own memory
  /// stays out of peak_rss_mb.
  bool keep_all_results = false;
};

/// Sessions whose index is a multiple of this are re-run uninterrupted on
/// the persisting workloads and compared byte for byte.
constexpr std::size_t kIdentityStride = 100;

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_s = 0.0;  ///< CPU time the host took from this machine
  std::size_t admitted = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  // Per completed session, on the wall clock and on the process CPU clock
  // (CPU seconds of all threads; it stands still while the host or another
  // tenant holds the CPUs).
  std::vector<double> session_s;      ///< admission to result
  std::vector<double> done_at;        ///< completion since the loop began
  std::vector<double> session_cpu_s;  ///< admission to result, CPU clock
  std::vector<double> cpu_done_at;    ///< completion since the loop, CPU clock
  std::map<std::size_t, std::string> results;  ///< index → resultJson bytes
  std::map<std::size_t, Quality> quality;
  std::vector<std::string> failures;  ///< sessions whose create/step threw
  std::vector<std::string> errors;    ///< failed correctness checks
  // service layer
  std::vector<double> round_s, create_s, recover_s, persist_s, ckpt_bytes;
  std::uint64_t ckpt_reads = 0;
  std::uint64_t ckpt_writes = 0;
  // bo layer (read through the kept Engine*)
  std::uint64_t steps = 0;
  std::uint64_t iterations = 0;
  // common/parallel
  std::uint64_t regions = 0;
  std::uint64_t pooled_regions = 0;
};

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU time the hypervisor has stolen from this machine, summed over its
/// CPUs (the steal column of /proc/stat); 0 where that is not available.
double machineStealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int read = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                               &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                               &v[7]);
  std::fclose(f);
  if (read != 8) return 0.0;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

bool fileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

void resetDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create '%s': %s\n", dir.c_str(),
                 ec.message().c_str());
    std::exit(2);
  }
}

PassResult runPass(const PassConfig& cfg) {
  const Workload& w = *cfg.workload;
  PassResult out;
  service::SessionManagerOptions manager_options;
  if (w.persists()) {
    resetDirectory(cfg.ckpt_dir);
    manager_options.checkpoint_dir = cfg.ckpt_dir;
    manager_options.checkpoint_every = 1;
  }

  struct InFlight {
    std::size_t index;
    std::string id;
    Clock::time_point admitted;
    double cpu_admitted;
  };
  std::vector<InFlight> in_flight;  // creation order == scheduling order
  std::size_t next_index = 0;

  const parallel::PoolStats pool_before = parallel::poolStats();
  const double cpu_before = processCpuSeconds();
  const double steal_before = machineStealSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));

  auto manager = std::make_unique<service::SessionManager>(manager_options);

  const auto wantMore = [&] {
    if (cfg.admit_count > 0) return out.admitted < cfg.admit_count;
    return Clock::now() < deadline || out.admitted < w.quality_sessions;
  };
  const auto admit = [&] {
    const std::size_t index = next_index++;
    ++out.admitted;
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = processCpuSeconds();
    try {
      manager->create(sessionSpec(w, cfg.seed, index, cfg.tracing));
    } catch (const std::exception& e) {
      ++out.failed;
      out.failures.push_back(sessionId(index) + " create: " + e.what());
      return;
    }
    out.create_s.push_back(secondsBetween(t0, Clock::now()));
    in_flight.push_back({index, sessionId(index), t0, cpu0});
  };
  const auto forget = [&](std::size_t pos) {
    // destroy() erases the session before it builds the recovery file
    // paths from its argument, so the id passed must not be the session's
    // own string: hand it our copy.
    const std::string id = in_flight[pos].id;
    manager->destroy(id);
    if (cfg.tracing != nullptr) cfg.tracing->engines.erase(id);
    in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pos));
  };

  for (std::size_t c = 0; c < w.clients && wantMore(); ++c) admit();
  std::size_t rounds = 0;
  std::size_t persist_probe = 0;
  while (!in_flight.empty()) {
    std::vector<std::size_t> steps_before;
    for (const InFlight& f : in_flight)
      steps_before.push_back(manager->session(f.id).steps());
    const Clock::time_point r0 = Clock::now();
    std::optional<std::string> thrown;
    try {
      manager->stepRound();
      out.round_s.push_back(secondsBetween(r0, Clock::now()));
    } catch (const std::exception& e) {
      thrown = e.what();
    }
    ++rounds;
    if (w.persists()) {
      for (std::size_t pos = 0; pos < in_flight.size(); ++pos)
        if (manager->session(in_flight[pos].id).steps() != steps_before[pos])
          ++out.ckpt_writes;  // checkpoint_every = 1: one document per step
    }
    if (thrown) {
      // stepRound steps sessions in creation order; the first running one
      // that did not advance is the one that threw.
      for (std::size_t pos = 0; pos < in_flight.size(); ++pos) {
        const service::Session& s = manager->session(in_flight[pos].id);
        if (s.done() || s.steps() != steps_before[pos]) continue;
        ++out.failed;
        out.failures.push_back(in_flight[pos].id + " step: " + *thrown);
        forget(pos);
        if (wantMore()) admit();
        break;
      }
    }

    // Harvest completed sessions; each frees its client for the next.
    for (std::size_t pos = 0; pos < in_flight.size();) {
      const service::Session& s = manager->session(in_flight[pos].id);
      if (!s.done()) {
        ++pos;
        continue;
      }
      const InFlight f = in_flight[pos];
      const Clock::time_point now = Clock::now();
      const double cpu_now = processCpuSeconds();
      out.session_s.push_back(secondsBetween(f.admitted, now));
      out.done_at.push_back(secondsBetween(start, now));
      out.session_cpu_s.push_back(cpu_now - f.cpu_admitted);
      out.cpu_done_at.push_back(cpu_now - cpu_before);
      ++out.completed;
      out.steps += s.steps();
      if (cfg.tracing != nullptr)
        out.iterations += cfg.tracing->engines.at(f.id)->iterationCount();
      const Json& doc = s.resultJson();
      if (cfg.keep_all_results || f.index % kIdentityStride == 0)
        out.results[f.index] = doc.dump();
      if (f.index < w.quality_sessions) {
        Quality q;
        const std::unique_ptr<bo::Problem> problem = makeProblem(w.problem);
        std::string error;
        try {
          error = checkResult(doc, sessionOptions(w.problem, f.index),
                              *problem, &q);
        } catch (const std::exception& e) {  // a field missing or mistyped
          error = e.what();
        }
        if (!error.empty())
          out.errors.push_back(f.id + " result: " + error);
        out.quality[f.index] = q;
      }
      forget(pos);
      if (wantMore()) admit();
    }

    // Traced persist workloads: time one explicit persist() of a running
    // session per round (rewrites the boundary stepRound just wrote).
    if (cfg.tracing != nullptr && w.persists() && !in_flight.empty()) {
      const InFlight& f = in_flight[persist_probe++ % in_flight.size()];
      const Clock::time_point p0 = Clock::now();
      manager->persist(f.id);
      out.persist_s.push_back(secondsBetween(p0, Clock::now()));
      ++out.ckpt_writes;
      std::error_code ec;
      const auto bytes = std::filesystem::file_size(
          cfg.ckpt_dir + "/" + f.id + ".ckpt.json", ec);
      if (!ec) out.ckpt_bytes.push_back(static_cast<double>(bytes));
    }

    // Churn: drop the manager and recover every in-flight session by id.
    if (w.churn_rounds > 0 && rounds % w.churn_rounds == 0 &&
        !in_flight.empty()) {
      manager.reset();
      if (cfg.tracing != nullptr) cfg.tracing->engines.clear();
      manager = std::make_unique<service::SessionManager>(manager_options);
      std::vector<InFlight> survivors;
      std::size_t lost = 0;
      for (const InFlight& f : in_flight) {
        const bool persisted =
            fileExists(cfg.ckpt_dir + "/" + f.id + ".ckpt.json");
        const Clock::time_point t0 = Clock::now();
        try {
          manager->create(sessionSpec(w, cfg.seed, f.index, cfg.tracing));
        } catch (const std::exception& e) {
          ++out.failed;
          ++lost;
          out.failures.push_back(f.id + " recover: " + e.what());
          continue;
        }
        const double elapsed = secondsBetween(t0, Clock::now());
        if (persisted) {
          out.recover_s.push_back(elapsed);
          ++out.ckpt_reads;
        } else {
          out.create_s.push_back(elapsed);
        }
        survivors.push_back(f);
      }
      in_flight = std::move(survivors);
      for (; lost > 0 && wantMore(); --lost) admit();
    }
  }
  manager.reset();
  out.wall_s = secondsBetween(start, Clock::now());
  out.cpu_s = processCpuSeconds() - cpu_before;
  out.steal_s = machineStealSeconds() - steal_before;
  const parallel::PoolStats pool_after = parallel::poolStats();
  out.regions = pool_after.regions - pool_before.regions;
  out.pooled_regions = pool_after.pooled_regions - pool_before.pooled_regions;
  return out;
}

/// Run session @p index alone, uninterrupted and without persistence, and
/// return its result bytes.
std::string soloResult(const Workload& w, std::uint64_t seed,
                       std::size_t index) {
  service::Session session(sessionSpec(w, seed, index, nullptr));
  while (!session.done()) session.step();
  return session.resultJson().dump();
}

// ---------------------------------------------------------------------------
// Set-up: everything a run does before its timed loop, repeated and
// reported as the median. Half the repetitions run before the timed loop
// and half after it, so a burst of machine noise at one end of a run does
// not move the median.

constexpr int kSetupRepsPerSide = 12;
constexpr std::uint64_t kWarmupSeed = 1;

/// One set-up; returns its {wall, CPU-clock} seconds.
std::pair<double, double> setupOnce(const Workload& w, const std::string& dir) {
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = processCpuSeconds();
  service::SessionManagerOptions options;
  if (w.persists()) {
    resetDirectory(dir);
    options.checkpoint_dir = dir;
  }
  service::SessionManager manager(options);
  // The workload's problem (circuit construction for PA / CP).
  const std::unique_ptr<bo::Problem> problem = makeProblem(w.problem);
  // A tiny warm-up session: starts the pool, touches every layer once. Its
  // seed is fixed, so set-up does the same work whatever the run's seed.
  Workload warm = w;
  warm.problem = ProblemKind::kQuadratic;
  manager.create(sessionSpec(warm, kWarmupSeed, 0, nullptr));
  manager.runAll();
  const std::string id = sessionId(0);
  manager.destroy(id);
  return {secondsBetween(t0, Clock::now()), processCpuSeconds() - cpu0};
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count / base, printed on the human line
};

/// Peak resident set of this process image in MB (VmHWM). Unlike
/// getrusage's ru_maxrss it is not inherited across exec, so a launcher's
/// footprint does not leak into the figure.
double peakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return static_cast<double>(memstats::peakRssBytes()) / 1e6;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  std::fclose(f);
  return kb * 1024.0 / 1e6;
}

/// Throughput and session latency of a pass on one clock, taken per window
/// of the run and reported as the median over windows (bench_support.h,
/// windowStats), with a note giving the sample counts.
struct LoopFigures {
  double sessions_per_s = 0.0;
  double session_s_p50 = 0.0;
  double session_s_p95 = 0.0;
  std::string note;
  std::string p95_note;
};

LoopFigures loopFigures(const std::vector<double>& done_at,
                        const std::vector<double>& latency) {
  const std::vector<perfbench::WindowStats> windows =
      perfbench::windowStats(done_at, latency, perfbench::kWindowSessions);
  const auto overWindows = [&](double perfbench::WindowStats::*field) {
    std::vector<double> values;
    for (const perfbench::WindowStats& w : windows) values.push_back(w.*field);
    return perfbench::median(values);
  };
  const std::size_t n = latency.size();
  const std::size_t per_window = windows.empty() ? 0 : n / windows.size();
  LoopFigures f;
  f.sessions_per_s = overWindows(&perfbench::WindowStats::sessions_per_s);
  f.session_s_p50 = overWindows(&perfbench::WindowStats::session_s_p50);
  f.session_s_p95 = overWindows(&perfbench::WindowStats::session_s_p95);
  f.note = "n=" + std::to_string(n) + " sessions, median over " +
           std::to_string(windows.size()) + " window(s) of ~" +
           std::to_string(per_window);
  f.p95_note = f.note;
  if (!perfbench::percentileSupported(per_window, 0.95))
    f.p95_note += ", " +
                  std::to_string(perfbench::samplesBeyond(per_window, 0.95)) +
                  " beyond p95: below the 10-sample tail rule";
  return f;
}

/// The end-to-end metrics. Session figures run on the process CPU clock
/// (perfbench/README.md, "Clocks"): on a shared machine the wall clock
/// mostly measures the other tenants.
std::vector<Metric> endToEndMetrics(const PassResult& r, double setup_s,
                                    double peak_rss_mb) {
  const LoopFigures cpu = loopFigures(r.cpu_done_at, r.session_cpu_s);
  return {
      {"sessions_per_cpu_s", cpu.sessions_per_s, "1/cpu_s",
       cpu.note + ", " + std::to_string(r.cpu_s) + " cpu s"},
      {"session_cpu_s_p50", cpu.session_s_p50, "cpu_s", cpu.note},
      {"session_cpu_s_p95", cpu.session_s_p95, "cpu_s", cpu.p95_note},
      {"setup_s", setup_s, "s",
       "CPU clock, median of " + std::to_string(2 * kSetupRepsPerSide) +
           " set-ups, half before and half after the loop"},
      {"peak_rss_mb", peak_rss_mb, "MB", "process high-water mark (VmHWM)"},
  };
}

/// The same figures on the wall clock: what a client of the service waits.
std::vector<Metric> wallMetrics(const PassResult& r) {
  const LoopFigures wall = loopFigures(r.done_at, r.session_s);
  return {
      {"wall.sessions_per_s", wall.sessions_per_s, "1/s",
       wall.note + ", " + std::to_string(r.wall_s) + " s wall"},
      {"wall.session_s_p50", wall.session_s_p50, "s", wall.note},
      {"wall.session_s_p95", wall.session_s_p95, "s", wall.p95_note},
  };
}

/// Quality guards over the workload's fixed session prefix 0..Q-1:
/// deterministic for a seed, so they catch a speed-up that comes from
/// optimizing less.
std::vector<Metric> qualityMetrics(const Workload& w, const PassResult& r) {
  std::vector<double> objective, feasible, to_best;
  std::vector<double> p_objective, p_feasible, p_cost;
  for (const auto& [index, q] : r.quality) {
    objective.push_back(q.best_objective);
    feasible.push_back(q.feasible ? 1.0 : 0.0);
    to_best.push_back(q.sims_to_best);
    p_objective.push_back(q.proposal_objective);
    p_feasible.push_back(q.proposal_feasible ? 1.0 : 0.0);
    p_cost.push_back(q.proposal_cost);
  }
  const std::string note = "sessions 0.." +
                           std::to_string(w.quality_sessions - 1) + " (n=" +
                           std::to_string(objective.size()) + ")";
  return {
      {"best_objective_mean", perfbench::mean(objective), "objective",
       note},
      {"feasible_frac", perfbench::mean(feasible), "ratio",
       note + ", feasible sessions / sessions"},
      {"equiv_sims_to_best_mean", perfbench::mean(to_best), "sims", note},
      {"proposal_best_objective_mean", perfbench::mean(p_objective),
       "objective", note + ", best proposal, feasible first"},
      {"proposal_feasible_frac", perfbench::mean(p_feasible), "ratio",
       note + ", sessions with a feasible proposal / sessions"},
      {"proposal_cost_to_best_mean", perfbench::mean(p_cost), "sims", note},
  };
}

std::vector<Metric> perLayerMetrics(const PassResult& r, const Tracing& t,
                                    std::size_t threads) {
  const LayerCounters& c = t.counters;
  const double sim_busy = c.sim_low.busySeconds() + c.sim_high.busySeconds();
  const std::uint64_t predicts = c.predict.callCount();
  const std::uint64_t iterations = c.iterations.load();
  const auto q = [](const std::vector<double>& v, double p) {
    return v.empty() ? 0.0 : perfbench::quantile(v, p);
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto sum = [](const std::vector<double>& v) {
    double acc = 0.0;
    for (const double x : v) acc += x;
    return acc;
  };
  const std::string rounds = "n=" + std::to_string(r.round_s.size()) + " rounds";
  std::string p99_note = rounds;
  if (!perfbench::percentileSupported(r.round_s.size(), 0.99))
    p99_note += ", tail not supported";
  return {
      {"sim.low.calls", count(c.sim_low.callCount()), "count", ""},
      {"sim.high.calls", count(c.sim_high.callCount()), "count", ""},
      {"sim.low.ms_p50", 1e3 * c.sim_low_latency.quantile(0.5), "ms", ""},
      {"sim.high.ms_p50", 1e3 * c.sim_high_latency.quantile(0.5), "ms", ""},
      {"sim.busy_s", sim_busy, "s", "summed over threads"},
      {"sim.share", perfbench::simShare(sim_busy, r.wall_s), "ratio",
       "sim busy s / wall s"},
      {"surrogate.fit.calls", count(c.fit.callCount()), "count", ""},
      {"surrogate.fit.busy_s", c.fit.busySeconds(), "s", ""},
      {"surrogate.add_retrain.calls", count(c.add_retrain.callCount()),
       "count", ""},
      {"surrogate.add_retrain.busy_s", c.add_retrain.busySeconds(), "s", ""},
      {"surrogate.add_incremental.calls",
       count(c.add_incremental.callCount()), "count", ""},
      {"surrogate.add_incremental.busy_s", c.add_incremental.busySeconds(),
       "s", ""},
      {"surrogate.add_incremental_frac",
       perfbench::incrementalFrac(c.add_incremental.callCount(),
                                  c.add_retrain.callCount()),
       "ratio", "incremental adds / all adds"},
      {"surrogate.predict.calls", count(predicts), "count", ""},
      {"surrogate.predict.busy_s", c.predict.busySeconds(), "s",
       "summed over threads"},
      {"surrogate.predict_high.us_p50",
       1e6 * c.predict_high_latency.quantile(0.5), "us", ""},
      {"surrogate.clone.calls", count(c.clones.load()), "count", ""},
      {"acq.predicts_per_iter",
       perfbench::ratio(count(predicts), count(iterations)), "count",
       "predict calls / proposals"},
      {"engine.iterations", count(r.iterations), "count", ""},
      {"engine.steps", count(r.steps), "count", ""},
      {"bo.low_frac",
       perfbench::lowFrac(c.low_iterations.load(), iterations), "ratio",
       "low-fidelity proposals / proposals"},
      {"service.round_ms_p50", 1e3 * q(r.round_s, 0.5), "ms", rounds},
      {"service.round_ms_p99", 1e3 * q(r.round_s, 0.99), "ms", p99_note},
      {"service.create_ms_p50", 1e3 * q(r.create_s, 0.5), "ms",
       "n=" + std::to_string(r.create_s.size()) + " fresh creates"},
      {"service.recover.calls", count(r.recover_s.size()), "count",
       "create() calls that restored a checkpoint"},
      {"service.recover_ms_p50", 1e3 * q(r.recover_s, 0.5), "ms", ""},
      {"service.recover.busy_s", sum(r.recover_s), "s", ""},
      {"service.persist_ms_p50", 1e3 * q(r.persist_s, 0.5), "ms",
       "n=" + std::to_string(r.persist_s.size()) + " timed persists"},
      {"service.ckpt_bytes_mean", perfbench::mean(r.ckpt_bytes), "bytes", ""},
      {"service.ckpt_read_per_write",
       perfbench::ratio(count(r.ckpt_reads), count(r.ckpt_writes)), "ratio",
       std::to_string(r.ckpt_reads) + " reads / " +
           std::to_string(r.ckpt_writes) + " writes"},
      {"pool.cpu_util", perfbench::cpuUtil(r.cpu_s, r.wall_s, threads),
       "ratio", "cpu s / (wall s x " + std::to_string(threads) + " threads)"},
      {"pool.pooled_frac",
       perfbench::ratio(count(r.pooled_regions), count(r.regions)), "ratio",
       std::to_string(r.pooled_regions) + " pooled / " +
           std::to_string(r.regions) + " regions"},
  };
}

/// The host's CPU steal during a pass, as a share of the machine's CPU
/// time: on a shared VM it explains a slow run.
void printSteal(const PassResult& r, std::size_t threads) {
  std::printf("# host steal during the loop: %.1f%% of %zu CPUs' time "
              "(/proc/stat)\n",
              100.0 * perfbench::cpuUtil(r.steal_s, r.wall_s, threads),
              threads);
}

void printMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-34s %14.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

std::string resultLine(bool correct, std::size_t attempted,
                       std::size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  return line;
}

/// Name of the filesystem holding @p path, as the checkpoint latency
/// depends on it.
std::string filesystemName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  const auto type = static_cast<unsigned long>(fs.f_type);
  if (type == 0x01021994UL) return "tmpfs";
  if (type == 0xEF53UL) return "ext2/3/4";
  if (type == 0x794C7630UL) return "overlayfs";
  char hex[32];
  std::snprintf(hex, sizeof(hex), "type 0x%lx", type);
  return hex;
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "service_bench: %s\n"
               "usage: service_bench --workload "
               "pa_mfbo|cp_mfbo|fleet_churn --seed N "
               "--seconds S --trace 0|1 [--ckpt-root DIR]\n",
               message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, ckpt_root = ".bench_build/ckpt";
  std::optional<std::uint64_t> seed;
  std::optional<double> seconds;
  std::optional<int> trace;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty() || value[0] == '-')
        usage("--seed takes a non-negative integer");
      seed = v;
    } else if (flag == "--seconds") {
      const double v = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(v > 0.0) || v > 3600.0)
        usage("--seconds takes a number in (0, 3600]");
      seconds = v;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--ckpt-root") {
      ckpt_root = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload* workload = findWorkload(workload_name);
  if (workload == nullptr) usage("unknown or missing --workload");
  if (!seed || !seconds || !trace) usage("--seed, --seconds, --trace required");
  const Workload& w = *workload;

  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  parallel::setMaxThreads(threads);
  const std::string ckpt_dir = ckpt_root + "/" + w.name;
  std::printf("# service_bench workload=%s seed=%llu seconds=%g trace=%d "
              "threads=%zu clients=%zu\n",
              w.name, static_cast<unsigned long long>(*seed), *seconds, *trace,
              threads, w.clients);
  if (w.persists()) {
    resetDirectory(ckpt_dir);
    std::printf("# checkpoint dir %s on %s\n", ckpt_dir.c_str(),
                filesystemName(ckpt_dir).c_str());
  }

  std::vector<double> setups, setups_wall;
  const auto setUp = [&] {
    for (int rep = 0; rep < kSetupRepsPerSide; ++rep) {
      const auto [wall_s, cpu_s] = setupOnce(w, ckpt_dir);
      setups_wall.push_back(wall_s);
      setups.push_back(cpu_s);
    }
  };
  setUp();

  bool correct = true;
  const auto fail = [&](const std::string& what) {
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  };
  const auto reportErrors = [&](const PassResult& r) {
    for (const std::string& f : r.failures)
      std::fprintf(stderr, "session failed: %s\n", f.c_str());
    for (const std::string& e : r.errors) fail(e);
    if (r.quality.size() + r.failed < w.quality_sessions)
      fail("quality sessions missing");
  };

  PassConfig pass;
  pass.workload = &w;
  pass.seed = *seed;
  pass.seconds = *seconds;
  pass.ckpt_dir = ckpt_dir;

  std::string line;
  if (*trace == 0) {
    const PassResult r = runPass(pass);
    setUp();
    const double setup_s = perfbench::quantile(setups, 0.5);
    reportErrors(r);
    // Recovery and persistence must not change what a session computes:
    // re-run a sample uninterrupted and compare result bytes.
    if (w.persists()) {
      for (const auto& [index, bytes] : r.results)
        if (soloResult(w, *seed, index) != bytes)
          fail(sessionId(index) + " differs from its uninterrupted re-run");
      std::printf("# identity: %zu sampled sessions re-run uninterrupted\n",
                  r.results.size());
    }
    const std::vector<Metric> metrics =
        endToEndMetrics(r, setup_s, peakRssMb());
    std::printf("# admitted %zu completed %zu failed %zu failed_frac %.6g "
                "(failed / admitted)\n",
                r.admitted, r.completed, r.failed,
                perfbench::ratio(static_cast<double>(r.failed),
                                 static_cast<double>(r.admitted)));
    printSteal(r, threads);
    printMetrics("end-to-end", metrics);
    std::vector<Metric> wall = wallMetrics(r);
    wall.push_back({"wall.setup_s", perfbench::quantile(setups_wall, 0.5), "s",
                    "wall clock, same set-ups"});
    printMetrics("wall clock (not bounded)", wall);
    printMetrics("quality guards", qualityMetrics(w, r));
    line = resultLine(correct, r.admitted, r.failed, metrics);
  } else {
    Tracing tracing;
    pass.tracing = &tracing;
    pass.keep_all_results = true;
    const PassResult traced = runPass(pass);
    const double traced_rss = peakRssMb();
    reportErrors(traced);
    // The same sessions without decorators: the byte-identity reference
    // and the base of the tracing overhead.
    PassConfig plain = pass;
    plain.tracing = nullptr;
    plain.admit_count = traced.admitted;
    const PassResult untraced = runPass(plain);
    setUp();
    const double setup_s = perfbench::quantile(setups, 0.5);
    reportErrors(untraced);
    std::size_t compared = 0;
    for (const auto& [index, bytes] : traced.results) {
      const auto it = untraced.results.find(index);
      if (it == untraced.results.end()) {
        fail(sessionId(index) + " missing from the untraced run");
        continue;
      }
      ++compared;
      if (it->second != bytes)
        fail(sessionId(index) + " traced result differs from untraced");
    }
    std::printf("# identity: %zu traced sessions byte-compared\n", compared);
    printSteal(traced, threads);
    std::vector<Metric> layers = perLayerMetrics(traced, tracing, threads);
    for (Metric& m : qualityMetrics(w, traced)) layers.push_back(std::move(m));
    // Wall-clock figures of the untraced pass, beside the layers they sum.
    for (Metric& m : wallMetrics(untraced)) layers.push_back(std::move(m));
    printMetrics("per-layer (traced run)", layers);
    // Peak RSS is a process-wide high-water mark: the untraced figure
    // includes the traced pass that ran before it.
    std::vector<Metric> on = endToEndMetrics(traced, setup_s, traced_rss);
    std::vector<Metric> off =
        endToEndMetrics(untraced, setup_s, peakRssMb());
    for (Metric& m : wallMetrics(traced)) on.push_back(std::move(m));
    for (Metric& m : wallMetrics(untraced)) off.push_back(std::move(m));
    std::printf("# tracing overhead (traced, untraced, traced/untraced; "
                "same %zu sessions)\n",
                traced.admitted);
    for (std::size_t i = 0; i < on.size(); ++i)
      std::printf("  %-34s %14.6g %14.6g %9.4f\n", on[i].name.c_str(),
                  on[i].value, off[i].value,
                  perfbench::ratio(on[i].value, off[i].value));
    line = resultLine(correct, traced.admitted, traced.failed, layers);
  }
  std::error_code ec;
  std::filesystem::remove_all(ckpt_dir, ec);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
