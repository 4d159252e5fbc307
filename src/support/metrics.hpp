// Self-observability primitives: a named-metric registry, so the profiler
// can report on its own machinery (ring backpressure, shadow-memory growth,
// trace compression) without perturbing the run it is measuring.
//
// Two metric kinds, both unsigned 64-bit:
//   counter — monotonic total (events seen, bytes written, stall ns)
//   gauge   — last value plus a high-water mark (ring occupancy, pages)
//
// Thread model: the Registry is mutex-protected and meant for post-run
// publication only. Hot paths never touch it: they bump plain counters
// that their owner publishes once the run is over (the pipeline's readers
// are joined by then). Names are dotted lowercase paths
// ("pipeline.batches_published"); rendering iterates std::map, so text and
// JSON output is sorted and stable-keyed by construction.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tq::metrics {

struct GaugeValue {
  std::uint64_t value = 0;
  std::uint64_t high_water = 0;
};

/// Sorted, self-contained copy of a registry's contents.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, GaugeValue>> gauges;
};

/// The shared store. Every operation takes the registry mutex, so this is
/// for publication points, not per-event paths.
class Registry {
 public:
  /// Counter: add `delta` to `name` (creating it at zero).
  void add(const std::string& name, std::uint64_t delta);

  /// Gauge: overwrite the value, raising the high-water mark.
  void set_gauge(const std::string& name, std::uint64_t value);

  /// Gauge: keep the maximum of the current and new value (and high-water).
  void max_gauge(const std::string& name, std::uint64_t value);

  Snapshot snapshot() const;

  /// "name value" lines (gauges append the high-water), sorted by name.
  std::string render_text() const;

  /// One JSON object {"counters":{...},"gauges":{...}} with sorted, stable
  /// keys.
  std::string render_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, GaugeValue> gauges_;
};

}  // namespace tq::metrics
