// dynamite::metrics — the process-wide registry of named counters, gauges,
// and histograms behind Session::Metrics().
//
// The pipeline's stats used to live in disjoint structs
// (DatalogEngine::stats(), IngestStats, the interactive result) that a
// caller had to know about individually and that a future service shell
// (ROADMAP item 4) could not export uniformly. This
// registry absorbs those counters behind one flat namespace of dotted names
// ("engine.plan_refreshes", "ingest.child_index_builds", ...) without touching
// the structs themselves: the legacy stats remain the per-object source of
// truth — and keep their bit-identity contracts — while the same increment
// sites ALSO bump the process-wide metric, so `metrics::Snapshot()` sees the
// whole process and `stats()` still sees one engine.
//
// Cost model, in line with the failpoint standard (util/failpoint.h):
//
//   * An increment is one relaxed fetch_add on a cache-line-padded stripe
//     selected by a thread-local index — counters bumped by Sessions on
//     different threads (string-pool interns, engine evals) never share a
//     line, mirroring StringPool's shard trick.
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

namespace internal {
/// Stable per-thread stripe index (assigned on first use, round-robin), so
/// concurrent incrementers of one counter land on different cache lines.
unsigned ThreadStripe();
}  // namespace internal

/// Monotone counter, striped across cache lines for contended sites.
class Counter {
 public:
  static constexpr size_t kStripes = 8;

  void Add(uint64_t delta = 1) {
    stripes_[internal::ThreadStripe() % kStripes].v.fetch_add(
        delta, std::memory_order_relaxed);
  }

  uint64_t value() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  Stripe stripes_[kStripes];
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

/// Log2-bucketed histogram: Observe(v) lands in bucket floor(log2(v)) (v=0
/// in bucket 0), so one cheap fetch_add captures the full dynamic range of
/// round counts, batch sizes, or byte volumes without configuration.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Observe(uint64_t v) {
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Bucket index: 0 for 0 and 1, else floor(log2(v)).
  static size_t BucketOf(uint64_t v) {
    size_t b = 0;
    while (v > 1) {
      v >>= 1;
      ++b;
    }
    return b;
  }

  uint64_t count() const {
    uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

/// Registry lookup; creates the metric on first use. The returned reference
/// is valid for the life of the process. Looking the same name up as two
/// different kinds is a programming error (checked: the second kind aborts
/// via DYNAMITE_CHECK).
Counter& GetCounter(const std::string& name);
Gauge& GetGauge(const std::string& name);
Histogram& GetHistogram(const std::string& name);

/// Point-in-time copy of every registered metric, sorted by name.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  /// Non-empty log2 buckets as (bucket index, count) pairs.
  std::vector<std::pair<size_t, uint64_t>> buckets;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Value of a counter/gauge by name; 0 when the metric has not been
  /// registered yet (a metric that never incremented may not exist).
  uint64_t counter(std::string_view name) const;
  int64_t gauge(std::string_view name) const;
  const HistogramSnapshot* histogram(std::string_view name) const;
};

/// Snapshots the whole registry (see file comment for concurrency).
MetricsSnapshot Snapshot();

}  // namespace metrics
}  // namespace dynamite

/// Hot-path increment: the registry lookup happens once (function-local
/// static), every execution after that is one striped relaxed fetch_add.
#define DYNAMITE_METRIC_ADD(metric_name, delta)                       \
  do {                                                                \
    static ::dynamite::metrics::Counter& _dynamite_metric =           \
        ::dynamite::metrics::GetCounter(metric_name);                 \
    _dynamite_metric.Add(delta);                                      \
  } while (false)

#define DYNAMITE_METRIC_INC(metric_name) DYNAMITE_METRIC_ADD(metric_name, 1)

#endif  // DYNAMITE_UTIL_METRICS_H_
