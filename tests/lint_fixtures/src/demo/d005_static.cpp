// Fixture: D005 fires on mutable static state in src/, including interned
// telemetry handles (they pin the registry active at first call across
// every later scope).
namespace telemetry {
struct Counter;
Counter& counter(const char* name);
}  // namespace telemetry

namespace demo {

static int call_count = 0;

int bump() { return ++call_count; }

void hit() {
  static telemetry::Counter& hits = telemetry::counter("demo.hits");
  (void)hits;
}

}  // namespace demo
