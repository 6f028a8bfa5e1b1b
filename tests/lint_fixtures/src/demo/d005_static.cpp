// Fixture: D005 fires on mutable static state in src/, including interned
// telemetry handles (they pin the registry active at first call across
// every later scope).
namespace telemetry {
struct Counter;
struct Histogram;
Counter& counter(const char* name);
Histogram& histogram(const char* name);
}  // namespace telemetry

namespace demo {

static int call_count = 0;

int bump() { return ++call_count; }

void hit() {
  static telemetry::Counter& hits = telemetry::counter("demo.hits");
  static telemetry::Histogram& latency = telemetry::histogram("demo.latency");
  (void)hits;
  (void)latency;
}

}  // namespace demo
