#include "common/telemetry.h"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/check.h"
#include "common/memstats.h"
#include "common/spans.h"

namespace mfbo {
namespace telemetry {

namespace {

/// The calling thread's scoped registry, nullptr meaning globalMetrics().
/// Stored raw (not resolved) so nested scopes restore exactly.
thread_local MetricsRegistry* t_active_registry = nullptr;

}  // namespace

/// Name-keyed counter store. std::map keeps snapshots sorted (deterministic
/// artifact output); unique_ptr keeps references stable. Lookups and
/// traversals lock: parallel workers resolve counter() through the
/// function-local `Counter&` lookups of instrumentation sites.
struct MetricsRegistry::Impl {
  std::mutex mu;
  // Transparent comparator: lookups by string_view without allocating.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
};

std::size_t Histogram::bucketIndex(double seconds) {
  // NaN and sub-minimum samples land in the underflow bucket: the
  // comparison below is false for NaN, so only the explicit <= edge test
  // routes — keep it first.
  if (!(seconds > 1e-7)) return 0;
  const double min_edge = static_cast<double>(kMinExponent);
  const double position =
      (std::log10(seconds) - min_edge) * kBucketsPerDecade;
  if (position >= static_cast<double>(kBuckets - 2)) return kBuckets - 1;
  const std::size_t idx = 1 + static_cast<std::size_t>(position);
  return idx < kBuckets - 1 ? idx : kBuckets - 1;
}

double Histogram::bucketUpperEdge(std::size_t index) {
  MFBO_DCHECK(index < kBuckets, "bucket index out of range");
  if (index == 0) return 1e-7;
  // The overflow bucket reports the last finite edge (1e3 s): a bounded
  // answer an SLO dashboard can plot, explicitly "at least this".
  if (index >= kBuckets - 1) index = kBuckets - 2;
  return std::pow(
      10.0, static_cast<double>(kMinExponent) +
                static_cast<double>(index) /
                    static_cast<double>(kBucketsPerDecade));
}

void Histogram::record(double seconds) {
  counts_[bucketIndex(seconds)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const double ns = seconds * 1e9;
  const std::int64_t clamped =
      ns > 0.0 ? static_cast<std::int64_t>(ns) : 0;
  total_ns_.fetch_add(clamped, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::totalSeconds() const {
  return static_cast<double>(total_ns_.load(std::memory_order_relaxed)) *
         1e-9;
}

double Histogram::quantileSeconds(double q) const {
  MFBO_CHECK(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  const std::uint64_t total = count_.load(std::memory_order_relaxed);
  if (total == 0) return 0.0;
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i].load(std::memory_order_relaxed);
    if (seen >= rank) return bucketUpperEdge(i);
  }
  return bucketUpperEdge(kBuckets - 1);
}

void Histogram::reset() {
  for (std::size_t i = 0; i < kBuckets; ++i)
    counts_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  total_ns_.store(0, std::memory_order_relaxed);
}

MetricsRegistry::MetricsRegistry() {
  // The registry skeleton itself is observability overhead, not workload
  // memory (sessions construct theirs inside instrumented scopes).
  const memstats::PauseScope alloc_pause;
  impl_ = std::make_unique<Impl>();
}

MetricsRegistry::~MetricsRegistry() = default;

Counter& MetricsRegistry::counter(std::string_view name) {
  // First-use counter creation is telemetry overhead; keep it out of the
  // per-span memory attribution (common/memstats.h) so a counter's first
  // bump costs the same "workload memory" as every later one: none.
  const memstats::PauseScope alloc_pause;
  const std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->counters.find(name);
  if (it == impl_->counters.end()) {
    it = impl_->counters
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& entry : impl_->counters) entry.second->reset();
}

Json MetricsRegistry::metricsJson() const {
  // Snapshot construction allocates heavily; none of it is workload memory.
  const memstats::PauseScope alloc_pause;
  Json counter_obj = Json::object();
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    for (const auto& entry : impl_->counters)
      counter_obj.set(entry.first,
                      Json::number(static_cast<double>(entry.second->value())));
  }
  Json snapshot = Json::object();
  snapshot.set("counters", std::move(counter_obj));
  return snapshot;
}

MetricsRegistry& globalMetrics() {
  static MetricsRegistry registry;
  return registry;
}

TelemetryScope::TelemetryScope(MetricsRegistry& registry)
    : previous_(detail::exchangeActiveRegistry(&registry)) {}

TelemetryScope::~TelemetryScope() {
  detail::exchangeActiveRegistry(previous_);
}

namespace detail {

MetricsRegistry* activeRegistry() {
  return t_active_registry != nullptr ? t_active_registry : &globalMetrics();
}

// mfbo-lint: allow(C001) — nullptr is the documented "back to global" value
MetricsRegistry* exchangeActiveRegistry(MetricsRegistry* registry) {
  MetricsRegistry* previous = t_active_registry;
  t_active_registry = registry;
  return previous;
}

}  // namespace detail

Counter& counter(std::string_view name) {
  return detail::activeRegistry()->counter(name);
}

Json metricsSnapshot(bool include_timing) {
  // Snapshot construction allocates heavily; none of it is workload memory.
  const memstats::PauseScope alloc_pause;
  Json snapshot = detail::activeRegistry()->metricsJson();
  if (include_timing) {
    // The kernel's high-water mark, like the span wall times, is
    // real-machine state: meaningful for a human, nondeterministic by
    // nature, and therefore only present when the wall-clock fields are.
    snapshot.set("peak_rss_bytes",
                 Json::number(static_cast<double>(memstats::peakRssBytes())));
  }
  if (spans::enabled())
    snapshot.set("spans", spans::snapshot(include_timing));
  return snapshot;
}

void resetMetrics() { detail::activeRegistry()->reset(); }

}  // namespace telemetry
}  // namespace mfbo
