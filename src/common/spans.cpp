#include "common/spans.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/memstats.h"
#include "common/telemetry.h"
#include "common/timeline.h"

namespace mfbo {
namespace spans {

/// One aggregated node of a thread's span tree. Children are keyed by their
/// (literal) name pointer — compared by pointer first, then by content, so
/// the same phase name used from two translation units still aggregates.
/// Child lists are small (a handful of phases per level), so lookup is a
/// linear scan; insertion order is preserved and sorting happens only at
/// serialization / merge time.
struct SpanNode {
  const char* name;
  SpanNode* parent;
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::vector<std::pair<const char*, std::uint64_t>> counters;
  std::vector<std::unique_ptr<SpanNode>> children;

  SpanNode(const char* n, SpanNode* p) : name(n), parent(p) {}

  static bool sameName(const char* a, const char* b) {
    return a == b || std::strcmp(a, b) == 0;
  }

  SpanNode* child(const char* n) {
    for (const auto& c : children)
      if (sameName(c->name, n)) return c.get();
    children.push_back(std::make_unique<SpanNode>(n, this));
    return children.back().get();
  }

  void addCounter(const char* n, std::uint64_t v) {
    for (auto& entry : counters) {
      if (sameName(entry.first, n)) {
        entry.second += v;
        return;
      }
    }
    counters.emplace_back(n, v);
  }
};

namespace {

/// One flags word so the disabled fast path in ScopedSpan stays a single
/// relaxed atomic load even with two independent features hanging off it.
constexpr unsigned kProfile = 1u;   ///< aggregating profiler (setEnabled)
constexpr unsigned kTimeline = 2u;  ///< timeline recording (timeline::start)

std::atomic<unsigned> g_flags{0};

unsigned activeFlags() { return g_flags.load(std::memory_order_relaxed); }

/// Per-thread arena: an implicit root (never timed, never counted) plus
/// the innermost-open-span cursor. Lazily allocated on first enabled use;
/// owned by the thread and freed at thread exit. alloc_mark is the
/// memstats counter snapshot taken at the last span boundary; the delta
/// against it is what flushAllocations() attributes to the innermost span.
struct ThreadState {
  std::unique_ptr<SpanNode> owned_root;
  SpanNode* root = nullptr;
  SpanNode* current = nullptr;
  memstats::ThreadCounters alloc_mark;

  SpanNode* ensureRoot() {
    if (root == nullptr) {
      const memstats::PauseScope pause;
      owned_root = std::make_unique<SpanNode>("root", nullptr);
      root = owned_root.get();
      current = root;
      // Allocations made before profiling started belong to nobody.
      alloc_mark = memstats::threadCounters();
    }
    return root;
  }
};

ThreadState& threadState() {
  thread_local ThreadState state;
  return state;
}

/// Attribute the allocations since the last span boundary to the innermost
/// open span (the thread root when none is open) and advance the mark.
/// Called at every span open/close, at snapshot(), and when a worker hands
/// back its capture arena — the same points where `current` changes, so
/// every workload allocation lands on the span that was innermost while it
/// happened. The counter bookkeeping itself runs paused, which is what
/// keeps the attributed values identical at 1 and N threads.
void flushAllocations(ThreadState& state) {
  const memstats::ThreadCounters now = memstats::threadCounters();
  const std::uint64_t delta_count =
      now.alloc_count - state.alloc_mark.alloc_count;
  const std::uint64_t delta_bytes =
      now.alloc_bytes - state.alloc_mark.alloc_bytes;
  state.alloc_mark = now;
  if (delta_count == 0) return;
  const memstats::PauseScope pause;
  state.current->addCounter("alloc_count", delta_count);
  state.current->addCounter("alloc_bytes", delta_bytes);
}

/// Merge @p src (and its subtree) into @p dst: counts and wall time add,
/// counters add by name, children merge recursively by name.
void mergeInto(SpanNode& dst, const SpanNode& src) {
  dst.count += src.count;
  dst.total_ns += src.total_ns;
  for (const auto& counter : src.counters)
    dst.addCounter(counter.first, counter.second);
  for (const auto& src_child : src.children)
    mergeInto(*dst.child(src_child->name), *src_child);
}

Json nodeToJson(const SpanNode& node, bool include_timing, bool is_root) {
  Json out = Json::object();
  if (!is_root) {
    out.set("count", Json::number(static_cast<double>(node.count)));
    if (include_timing) {
      const double total_s = static_cast<double>(node.total_ns) * 1e-9;
      std::int64_t child_ns = 0;
      for (const auto& c : node.children) child_ns += c->total_ns;
      // Children that ran on pool workers accumulate CPU time, which can
      // exceed this span's wall time; clamp rather than report negatives.
      const double self_s =
          std::max(0.0, static_cast<double>(node.total_ns - child_ns) * 1e-9);
      out.set("total_s", Json::number(total_s));
      out.set("self_s", Json::number(self_s));
    }
  }
  if (!node.counters.empty()) {
    std::vector<const std::pair<const char*, std::uint64_t>*> sorted;
    sorted.reserve(node.counters.size());
    for (const auto& counter : node.counters) sorted.push_back(&counter);
    std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
      return std::strcmp(a->first, b->first) < 0;
    });
    Json counters = Json::object();
    for (const auto* counter : sorted)
      counters.set(counter->first,
                   Json::number(static_cast<double>(counter->second)));
    out.set("counters", std::move(counters));
  }
  if (!node.children.empty()) {
    std::vector<const SpanNode*> sorted;
    sorted.reserve(node.children.size());
    for (const auto& c : node.children) sorted.push_back(c.get());
    std::sort(sorted.begin(), sorted.end(),
              [](const SpanNode* a, const SpanNode* b) {
                return std::strcmp(a->name, b->name) < 0;
              });
    Json children = Json::object();
    for (const SpanNode* c : sorted)
      children.set(c->name, nodeToJson(*c, include_timing, /*is_root=*/false));
    out.set("children", std::move(children));
  }
  return out;
}

}  // namespace

void setEnabled(bool on) {
  if (on) {
    g_flags.fetch_or(kProfile, std::memory_order_relaxed);
    // Create the calling thread's arena eagerly. If it were created lazily
    // at the first span open, the mark resync in ensureRoot() would discard
    // whatever the workload allocated between enabling and that first span
    // — an amount that depends on which thread reaches a span first, which
    // would break 1-vs-N-thread byte identity of the root counters.
    threadState().ensureRoot();
  } else {
    g_flags.fetch_and(~kProfile, std::memory_order_relaxed);
  }
}

bool enabled() { return (activeFlags() & kProfile) != 0; }

// mfbo-lint: allow(C001) — nullptr is the documented "no latency feed" value
ScopedSpan::ScopedSpan(const char* name, telemetry::Histogram* latency)
    : latency_(latency) {
  const unsigned flags = activeFlags();
  if (flags == 0 && latency == nullptr) return;
  if ((flags & kProfile) != 0) {
    ThreadState& state = threadState();
    state.ensureRoot();
    flushAllocations(state);
    {
      // Arena growth is profiler overhead, not workload memory.
      const memstats::PauseScope pause;
      node_ = state.current->child(name);
    }
    node_->count += 1;
    state.current = node_;
  }
  if ((flags & kTimeline) != 0) {
    timeline_name_ = name;
    timeline::detail::recordBegin(name);
  }
  if (node_ != nullptr || latency_ != nullptr)
    start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (timeline_name_ != nullptr) timeline::detail::recordEnd(timeline_name_);
  if (node_ == nullptr && latency_ == nullptr) return;
  const std::int64_t elapsed_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count();
  if (latency_ != nullptr)
    latency_->record(static_cast<double>(elapsed_ns) * 1e-9);
  if (node_ == nullptr) return;
  node_->total_ns += elapsed_ns;
  ThreadState& state = threadState();
  // This span was innermost since the last boundary: the allocation delta
  // is its self-allocation. Flush before moving the cursor to the parent.
  flushAllocations(state);
  state.current = node_->parent;
}

void addCounter(const char* name, std::uint64_t n) {
  if (!enabled()) return;
  ThreadState& state = threadState();
  state.ensureRoot();
  const memstats::PauseScope pause;
  state.current->addCounter(name, n);
}

Json snapshot(bool include_timing) {
  ThreadState& state = threadState();
  if (state.root == nullptr) return Json::object();
  // Attribute the tail since the last span closed, then serialize with the
  // accounting paused so snapshot cost never shows up as workload memory.
  flushAllocations(state);
  const memstats::PauseScope pause;
  return nodeToJson(*state.root, include_timing, /*is_root=*/true);
}

void reset() {
  ThreadState& state = threadState();
  state.owned_root.reset();
  state.root = nullptr;
  state.current = nullptr;
  state.alloc_mark = memstats::threadCounters();
  // Keep the eager-arena invariant (see setEnabled) across mid-session
  // resets: while profiling is on, this thread must never hit the lazy
  // ensureRoot mark resync in the middle of workload code.
  if (enabled()) state.ensureRoot();
}

SpanArena::SpanArena() = default;

SpanArena::~SpanArena() {
  const memstats::PauseScope pause;
  delete root_;
}

ArenaScope::ArenaScope(SpanArena& arena) {
  if (!enabled()) return;
  ThreadState& state = threadState();
  state.ensureRoot();
  MFBO_CHECK(state.current == state.root,
             "ArenaScope: cannot install a span arena while a span is open");
  // The pending allocation delta happened under the previous tree; flush it
  // there before the swap so the session never inherits foreign bytes.
  flushAllocations(state);
  const memstats::PauseScope pause;
  if (arena.root_ == nullptr) arena.root_ = new SpanNode("root", nullptr);
  arena_ = &arena;
  saved_root_ = state.root;
  saved_current_ = state.current;
  state.owned_root.release();
  state.owned_root.reset(arena.root_);
  state.root = arena.root_;
  state.current = arena.root_;
  state.alloc_mark = memstats::threadCounters();
}

ArenaScope::~ArenaScope() noexcept(false) {
  if (arena_ == nullptr) return;
  ThreadState& state = threadState();
  MFBO_CHECK(state.current == state.root,
             "ArenaScope: a span is still open at arena uninstall");
  // The session's tail (allocations since its last span closed) belongs to
  // the session root, not to the restored thread tree.
  flushAllocations(state);
  const memstats::PauseScope pause;
  // reset() may have replaced the tree while installed; re-adopt whatever
  // root the thread holds now so the arena never dangles.
  arena_->root_ = state.owned_root.release();
  state.owned_root.reset(saved_root_);
  state.root = saved_root_;
  state.current = saved_current_;
  state.alloc_mark = memstats::threadCounters();
}

namespace detail {

WorkerCapture beginWorkerCapture() {
  WorkerCapture capture;
  if (!enabled()) return capture;
  const memstats::PauseScope pause;
  ThreadState& state = threadState();
  capture.saved_root = state.root;
  capture.saved_current = state.current;
  // Fresh arena for this job; released (not freed) by endWorkerCapture.
  capture.capture_root = new SpanNode("root", nullptr);
  state.owned_root.release();
  state.owned_root.reset(capture.capture_root);
  state.root = capture.capture_root;
  state.current = capture.capture_root;
  // Allocation attribution restarts at the job boundary: everything the
  // bodies allocate lands in the capture tree, which the calling thread
  // merges into its innermost span — exactly where the serial path would
  // have attributed it.
  state.alloc_mark = memstats::threadCounters();
  return capture;
}

SpanNode* endWorkerCapture(const WorkerCapture& capture) {
  if (capture.capture_root == nullptr) return nullptr;
  ThreadState& state = threadState();
  // Attribute the job's tail (allocations after the last body span closed)
  // to the capture root before handing the arena back.
  flushAllocations(state);
  const memstats::PauseScope pause;
  state.owned_root.release();
  state.owned_root.reset(capture.saved_root);
  state.root = capture.saved_root;
  state.current = capture.saved_current;
  // Whatever this worker allocates next (pool bookkeeping, the next job's
  // glue) belongs to no captured arena.
  state.alloc_mark = memstats::threadCounters();
  // An empty capture (the worker claimed no chunks, or the bodies opened no
  // spans) is dropped here instead of travelling through the merge.
  if (capture.capture_root->children.empty() &&
      capture.capture_root->counters.empty()) {
    delete capture.capture_root;
    return nullptr;
  }
  return capture.capture_root;
}

// mfbo-lint: allow(C001) — nullptr is the documented empty-capture value
void mergeCapturedTree(SpanNode* tree) {
  if (tree == nullptr) return;
  const std::unique_ptr<SpanNode> owned(tree);
  if (!enabled()) return;
  const memstats::PauseScope pause;
  ThreadState& state = threadState();
  state.ensureRoot();
  SpanNode& target = *state.current;
  for (const auto& counter : tree->counters)
    target.addCounter(counter.first, counter.second);
  for (const auto& child : tree->children)
    mergeInto(*target.child(child->name), *child);
}

void setTimelineRecording(bool on) {
  if (on) {
    g_flags.fetch_or(kTimeline, std::memory_order_relaxed);
  } else {
    g_flags.fetch_and(~kTimeline, std::memory_order_relaxed);
  }
}

}  // namespace detail

}  // namespace spans
}  // namespace mfbo
