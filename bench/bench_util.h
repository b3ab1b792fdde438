// Shared helpers for the table/figure reproduction harnesses.

#ifndef DYNAMITE_BENCH_BENCH_UTIL_H_
#define DYNAMITE_BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace dynamite {
namespace bench {

/// Parses a harness argument as a strictly positive number of type T, or
/// prints `usage` to stderr and exits with status 2. The whole argument must
/// parse and be finite; integral T additionally requires a whole number that
/// fits. A negative count therefore never wraps to a huge size_t, and a typo
/// never silently becomes 0.
template <typename T>
T ParsePositiveOrExit(const char* arg, const char* usage) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(arg, &end);
  bool ok = end != arg && *end == '\0' && errno != ERANGE && std::isfinite(v) && v > 0;
  if (ok && std::is_integral<T>::value) {
    // Strict `<`: max() rounds up to a power of two as a double for 64-bit T.
    ok = std::floor(v) == v && v < static_cast<double>(std::numeric_limits<T>::max());
  }
  if (!ok) {
    std::fprintf(stderr, "invalid argument '%s'\nusage: %s\n", arg, usage);
    std::exit(2);
  }
  return static_cast<T>(v);
}

/// Fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::pair<std::string, int>> columns)
      : columns_(std::move(columns)) {}

  void PrintHeader() const {
    for (const auto& [name, width] : columns_) {
      std::printf("%-*s", width, name.c_str());
    }
    std::printf("\n");
    int total = 0;
    for (const auto& [name, width] : columns_) total += width;
    for (int i = 0; i < total; ++i) std::printf("-");
    std::printf("\n");
  }

  void PrintRow(const std::vector<std::string>& cells) const {
    for (size_t i = 0; i < cells.size() && i < columns_.size(); ++i) {
      std::printf("%-*s", columns_[i].second, cells[i].c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::pair<std::string, int>> columns_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

inline std::string FmtSize(size_t v) { return std::to_string(v); }

/// Scientific notation like the paper's search-space column ("4.8e120").
inline std::string FmtSci(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1e", v);
  return buf;
}

/// Collects per-benchmark results and writes them as machine-readable JSON
/// (one object per benchmark: name, wall time, throughput). Used to track
/// the perf trajectory across PRs (BENCH_micro.json at the repo root).
class JsonWriter {
 public:
  struct Entry {
    std::string name;
    double wall_ms = 0;            ///< mean wall time per iteration
    double items_per_second = 0;   ///< derived-tuple / record throughput (0 = n/a)
  };

  void Record(std::string name, double wall_ms, double items_per_second) {
    entries_.push_back({std::move(name), wall_ms, items_per_second});
  }

  /// Adds a name→value pair to the "metrics" section of the output — the
  /// run's metrics::Snapshot() lands here so perf numbers carry their own
  /// workload annotation (how many join candidates, SAT solves and sketch
  /// shapes the measured runs actually did). Kept as plain pairs so this
  /// header stays free of a util/metrics.h dependency.
  void RecordMetric(std::string name, uint64_t value) {
    metrics_.emplace_back(std::move(name), value);
  }

  bool empty() const { return entries_.empty(); }

  /// JSON string escaping (quotes, backslashes, control characters).
  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  /// Serializes all entries; `label` tags the run (e.g. a git revision).
  std::string ToJson(const std::string& label) const {
    std::string out = "{\n  \"label\": \"" + Escape(label) + "\",\n  \"benchmarks\": [\n";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "    {\"name\": \"%s\", \"wall_ms\": %.6f, \"items_per_second\": %.1f}%s\n",
                    Escape(e.name).c_str(), e.wall_ms, e.items_per_second,
                    i + 1 < entries_.size() ? "," : "");
      out += buf;
    }
    out += "  ]";
    if (!metrics_.empty()) {
      out += ",\n  \"metrics\": {\n";
      for (size_t i = 0; i < metrics_.size(); ++i) {
        char buf[192];
        std::snprintf(buf, sizeof(buf), "    \"%s\": %llu%s\n",
                      Escape(metrics_[i].first).c_str(),
                      static_cast<unsigned long long>(metrics_[i].second),
                      i + 1 < metrics_.size() ? "," : "");
        out += buf;
      }
      out += "  }";
    }
    out += "\n}\n";
    return out;
  }

  /// Writes ToJson(label) to `path`; returns false on I/O failure.
  bool WriteFile(const std::string& path, const std::string& label) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::string json = ToJson(label);
    size_t written = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return written == json.size();
  }

 private:
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, uint64_t>> metrics_;
};

}  // namespace bench
}  // namespace dynamite

#endif  // DYNAMITE_BENCH_BENCH_UTIL_H_
