#include "util/metrics.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "util/check.h"
#include "util/thread_annotations.h"

namespace dynamite {
namespace metrics {
namespace {

// One registry for the process. Entries are heap-allocated and never freed
// (leak-on-exit, like StringPool::Global), so references handed out by
// GetCounter & co. survive static teardown in any order.
struct Registry {
  Mutex mu;
  // std::map keeps Snapshot() output sorted without a per-call sort of the
  // (small) metric population.
  std::map<std::string, Counter*> counters DYNAMITE_GUARDED_BY(mu);
  std::map<std::string, Gauge*> gauges DYNAMITE_GUARDED_BY(mu);
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

template <typename T>
T& LookupOrCreate(std::map<std::string, T*>& kind_map,
                  const std::string& name) {
  auto it = kind_map.find(name);
  if (it != kind_map.end()) return *it->second;
  kind_map.emplace(name, new T());
  return *kind_map.at(name);
}

}  // namespace

Counter& GetCounter(const std::string& name) {
  Registry& reg = GlobalRegistry();
  MutexLock lock(reg.mu);
  DYNAMITE_CHECK(reg.gauges.find(name) == reg.gauges.end(),
                 "metric registered under a different kind");
  return LookupOrCreate(reg.counters, name);
}

Gauge& GetGauge(const std::string& name) {
  Registry& reg = GlobalRegistry();
  MutexLock lock(reg.mu);
  DYNAMITE_CHECK(reg.counters.find(name) == reg.counters.end(),
                 "metric registered under a different kind");
  return LookupOrCreate(reg.gauges, name);
}

uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

int64_t MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0;
}

MetricsSnapshot Snapshot() {
  Registry& reg = GlobalRegistry();
  MetricsSnapshot snap;
  MutexLock lock(reg.mu);
  snap.counters.reserve(reg.counters.size());
  for (const auto& [name, counter] : reg.counters) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.gauges.reserve(reg.gauges.size());
  for (const auto& [name, gauge] : reg.gauges) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  return snap;
}

}  // namespace metrics
}  // namespace dynamite
