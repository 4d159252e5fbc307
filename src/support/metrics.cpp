#include "support/metrics.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace tq::metrics {

void Registry::add(const std::string& name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] += delta;
}

void Registry::set_gauge(const std::string& name, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  GaugeValue& gauge = gauges_[name];
  gauge.value = value;
  if (value > gauge.high_water) gauge.high_water = value;
}

void Registry::max_gauge(const std::string& name, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  GaugeValue& gauge = gauges_[name];
  if (value > gauge.value) gauge.value = value;
  if (value > gauge.high_water) gauge.high_water = value;
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.counters.assign(counters_.begin(), counters_.end());
  snap.gauges.assign(gauges_.begin(), gauges_.end());
  return snap;
}

namespace {

void append_line(std::string& out, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  const int n = std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  if (n > 0) out.append(buffer, static_cast<std::size_t>(n));
}

}  // namespace

std::string Registry::render_text() const {
  const Snapshot snap = snapshot();
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    append_line(out, "%s %" PRIu64 "\n", name.c_str(), value);
  }
  for (const auto& [name, gauge] : snap.gauges) {
    append_line(out, "%s %" PRIu64 " (high %" PRIu64 ")\n", name.c_str(),
                gauge.value, gauge.high_water);
  }
  return out;
}

namespace {

// Metric names are dotted lowercase identifiers, but escape defensively so
// the output is valid JSON whatever ends up in a name.
void append_json_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          append_line(out, "\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

std::string Registry::render_json() const {
  const Snapshot snap = snapshot();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    append_line(out, ": %" PRIu64, value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : snap.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    append_line(out, ": {\"value\": %" PRIu64 ", \"high_water\": %" PRIu64 "}",
                gauge.value, gauge.high_water);
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace tq::metrics
