// dynamite::metrics — the process-wide registry of named counters and
// gauges behind Session::Metrics().
//
// The pipeline's stats used to live in disjoint structs (IngestStats,
// MigrationStats, the interactive result) that a caller had to know about
// individually and that no caller could export uniformly. This registry absorbs those counters behind one flat
// namespace of dotted names ("solver.solves", "ingest.child_index_builds",
// ...) without touching the structs themselves: the legacy stats remain the
// per-object source of truth — and keep their bit-identity contracts —
// while the same increment sites ALSO bump the process-wide metric, so
// `metrics::Snapshot()` sees the whole process and each stats struct still
// sees one run.
//
// Cost model, in line with the failpoint standard (util/failpoint.h):
//
//   * An increment is one relaxed fetch_add on the counter's atomic. Every
//     stage runs on its caller's thread, so a counter is contended only
//     when Sessions on several threads bump it at once.
//   * Call sites cache the registry lookup in a function-local static
//     (DYNAMITE_METRIC_ADD), so the name→object map is consulted once per
//     site per process, never on the hot path.
//   * Registered objects are never destroyed (same leak-on-exit contract as
//     StringPool::Global): a reference obtained from GetCounter stays valid
//     for the life of the process, including during static teardown.
//
// Snapshot() is safe to call concurrently with increments (relaxed reads of
// monotone counters: values are at-least-as-old-as the call, exact once the
// writers have quiesced — e.g. after a Session call returns).

#ifndef DYNAMITE_UTIL_METRICS_H_
#define DYNAMITE_UTIL_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dynamite {
namespace metrics {

/// Monotone counter.
class Counter {
 public:
  void Add(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }

  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-value / high-water gauge (e.g. memory-budget peak bytes).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }

  /// Monotone max update (the high-water pattern); a CAS loop that exits
  /// immediately when `v` is not a new record.
  void UpdateMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Registry lookup; creates the metric on first use. The returned reference
/// is valid for the life of the process. Looking the same name up as two
/// different kinds is a programming error (checked: the second kind aborts
/// via DYNAMITE_CHECK).
Counter& GetCounter(const std::string& name);
Gauge& GetGauge(const std::string& name);

/// Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;

  /// Value of a counter/gauge by name; 0 when the metric has not been
  /// registered yet (a metric that never incremented may not exist).
  uint64_t counter(std::string_view name) const;
  int64_t gauge(std::string_view name) const;
};

/// Snapshots the whole registry (see file comment for concurrency).
MetricsSnapshot Snapshot();

}  // namespace metrics
}  // namespace dynamite

/// Hot-path increment: the registry lookup happens once (function-local
/// static), every execution after that is one relaxed fetch_add.
#define DYNAMITE_METRIC_ADD(metric_name, delta)                       \
  do {                                                                \
    static ::dynamite::metrics::Counter& _dynamite_metric =           \
        ::dynamite::metrics::GetCounter(metric_name);                 \
    _dynamite_metric.Add(delta);                                      \
  } while (false)

#define DYNAMITE_METRIC_INC(metric_name) DYNAMITE_METRIC_ADD(metric_name, 1)

#endif  // DYNAMITE_UTIL_METRICS_H_
