// What every BENCH_*.json shares: the host stamp (a number is only
// comparable with numbers from the same host, and the pipeline gate only
// applies on >= 4 hardware threads), the paired runs every bench_overhead
// gate decides by, and one writer. DESIGN.md §3f describes the statistic
// and what each file records.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace tq::bench {

inline const char* byte_order_name() {
  if constexpr (std::endian::native == std::endian::little) return "little";
  if constexpr (std::endian::native == std::endian::big) return "big";
  return "mixed";
}

inline std::string compiler_name() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#elif defined(_MSC_VER)
  return "msvc " + std::to_string(_MSC_VER);
#else
  return "unknown";
#endif
}

/// The pair count of every paired comparison.
inline constexpr int kPairs = 9;

/// Median and quartiles of a sample set, linearly interpolated between the
/// order statistics; `samples` keeps the values in the order they were taken.
struct Summary {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::vector<double> samples;
};

inline Summary summarize(std::vector<double> samples) {
  Summary out;
  out.samples = samples;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double p) {
    const double pos = p * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
  };
  out.q1 = at(0.25);
  out.median = at(0.5);
  out.q3 = at(0.75);
  return out;
}

/// Both sides of a paired comparison and the per-pair ratios a/b.
struct PairedRuns {
  Summary a;
  Summary b;
  Summary ratio;
};

/// Runs kPairs pairs of `a` and `b`, `a` first in even pairs and `b` first
/// in odd ones. Each is a callable that returns the seconds it timed, so it
/// can keep its own set-up out of the timed region.
template <typename A, typename B>
PairedRuns run_pairs(A&& a, B&& b) {
  std::vector<double> a_s;
  std::vector<double> b_s;
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double a_seconds = 0.0;
    double b_seconds = 0.0;
    if (pair % 2 == 0) {
      a_seconds = a();
      b_seconds = b();
    } else {
      b_seconds = b();
      a_seconds = a();
    }
    a_s.push_back(a_seconds);
    b_s.push_back(b_seconds);
    ratios.push_back(a_seconds / b_seconds);
  }
  return {summarize(std::move(a_s)), summarize(std::move(b_s)), summarize(std::move(ratios))};
}

/// A bound on the median per-pair ratio: a floor the median must reach, or
/// a ceiling it must stay below.
struct RatioBound {
  const char* ratio;  ///< what the ratio is, e.g. "speedup"
  double value;
  bool floor;

  /// "passed", or "failed:" and the reading that broke the bound.
  std::string verdict(double median) const {
    if (floor ? median >= value : median < value) return "passed";
    char why[128];
    std::snprintf(why, sizeof why, "failed:%s median %.3f %s %.3f", ratio, median,
                  floor ? "below the floor" : "at or above the ceiling", value);
    return why;
  }
};

/// Builds one BENCH_*.json object, host stamp first. The members of the
/// object and of the objects and arrays directly in it go one per line;
/// anything nested deeper stays on its line. Separators are the writer's
/// business, so callers only name members and values.
class JsonWriter {
 public:
  JsonWriter() {
    field("hw_threads", std::thread::hardware_concurrency());
    field("byte_order", byte_order_name());
    field("compiler", compiler_name());
  }

  template <std::integral T>
  JsonWriter& field(std::string_view key, T value) {
    member(key);
    text_ += std::to_string(value);
    return *this;
  }
  JsonWriter& field(std::string_view key, double value) {
    member(key);
    number(value);
    return *this;
  }
  JsonWriter& field(std::string_view key, std::string_view value) {
    member(key);
    quoted(value);
    return *this;
  }
  /// `{"median", "q1", "q3", "samples"}` of one summary.
  JsonWriter& field(std::string_view key, const Summary& summary) {
    begin_object(key);
    field("median", summary.median).field("q1", summary.q1).field("q3", summary.q3);
    begin_array("samples");
    for (double value : summary.samples) {
      member({});
      number(value);
    }
    return end_array().end_object();
  }

  JsonWriter& begin_object(std::string_view key = {}) { return begin(key, '{'); }
  JsonWriter& end_object() { return end('}'); }
  JsonWriter& begin_array(std::string_view key) { return begin(key, '['); }
  JsonWriter& end_array() { return end(']'); }

  /// Closes the object and writes it to `path`, then says so on stdout, or
  /// on stderr that it could not.
  void write(const char* path) {
    const std::string text = "{" + text_ + "\n}\n";
    std::FILE* file = std::fopen(path, "w");
    bool ok = file != nullptr && std::fwrite(text.data(), 1, text.size(), file) == text.size();
    if (file != nullptr && std::fclose(file) != 0) ok = false;
    if (ok) {
      std::printf("wrote %s\n", path);
    } else {
      std::fprintf(stderr, "could not write %s\n", path);
    }
  }

 private:
  // Separator, line break and indent at the two outer levels, and
  // `"key": ` when named.
  void member(std::string_view key) {
    if (!first_.back()) text_ += ',';
    if (first_.size() <= 2) {
      text_ += '\n';
      text_.append(2 * first_.size(), ' ');
    } else if (!first_.back()) {
      text_ += ' ';
    }
    first_.back() = false;
    if (!key.empty()) {
      quoted(key);
      text_ += ": ";
    }
  }
  JsonWriter& begin(std::string_view key, char open) {
    member(key);
    text_ += open;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& end(char close) {
    const bool broke_lines = first_.size() == 2 && !first_.back();
    first_.pop_back();
    if (broke_lines) text_ += "\n  ";
    text_ += close;
    return *this;
  }
  void number(double value) {
    if (!std::isfinite(value)) {
      text_ += "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    text_ += buf;
  }
  void quoted(std::string_view s) {
    text_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        text_ += '\\';
        text_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        text_ += buf;
      } else {
        text_ += c;
      }
    }
    text_ += '"';
  }

  std::string text_;
  std::vector<bool> first_{true};  ///< one entry per open object or array
};

/// The members every paired gate writes: the pair count and statistic, both
/// sides' and the ratio's summaries, the bound and the verdict.
inline void write_paired_gate(JsonWriter& json, const char* a_key, const char* b_key,
                              const PairedRuns& runs, const RatioBound& bound,
                              std::string_view gate) {
  json.field("pairs", kPairs)
      .field("statistic", "median of per-pair ratios, pairs alternating which side runs first")
      .field(a_key, runs.a)
      .field(b_key, runs.b)
      .field(bound.ratio, runs.ratio)
      .field(std::string(bound.ratio) + (bound.floor ? "_floor" : "_ceiling"), bound.value)
      .field("gate", gate);
}

/// One line per side and one for the ratio: median and quartiles.
inline void print_paired(const char* a_label, const char* b_label, const char* ratio_label,
                         const PairedRuns& runs) {
  const auto line = [](const char* label, const Summary& s, const char* unit) {
    std::printf("%-44s %10.3f%s  (q1 %.3f, q3 %.3f)\n", label, s.median, unit, s.q1, s.q3);
  };
  line(a_label, runs.a, " s");
  line(b_label, runs.b, " s");
  line(ratio_label, runs.ratio, "x");
}

}  // namespace tq::bench
