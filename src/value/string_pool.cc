#include "value/string_pool.h"

#include <cstdlib>

#include "util/debug_log.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/metrics.h"

namespace dynamite {

StringPool::StringPool(uint32_t max_strings) : max_strings_(max_strings) {}

StringPool::~StringPool() {
  for (auto& chunk : chunks_) delete[] chunk.load(std::memory_order_relaxed);
}

StringPool& StringPool::Global() {
  static StringPool* pool = new StringPool();  // never destroyed: ids and
  return *pool;                                // references outlive statics
}

uint32_t StringPool::Intern(std::string_view s) {
  Result<uint32_t> id = TryIntern(s);
  if (id.ok()) return id.ValueOrDie();
  // Fail fast: a truncated/aliased id would silently corrupt every Value
  // comparison from here on, and Value::String has no error channel.
  debug_log::Errorf("StringPool::Intern: %s\n",
                    id.status().ToString().c_str());
  std::abort();
}

Result<uint32_t> StringPool::TryIntern(std::string_view s) {
  MutexLock lock(mu_);
  auto it = ids_.find(s);
  if (it != ids_.end()) return it->second;

  // Placed after the lookup so only NOVEL strings can fail — interning of
  // already-seen strings (the synthesizer's steady state) stays infallible,
  // which is also what makes the overflow path testable: arm this site
  // instead of interning 2^32 distinct strings.
  DYNAMITE_FAILPOINT("string_pool.intern");
  // Novel strings only (the already-interned fast path above stays
  // metric-free).
  DYNAMITE_METRIC_INC("string_pool.interned_strings");
  DYNAMITE_METRIC_ADD("string_pool.interned_bytes", s.size());
  // A novel string costs its characters plus a map entry; charged before the
  // append so an exhausted budget is observed at the next poll even though
  // this insert itself still completes.
  MemoryBudget::ChargeCurrent(s.size() + sizeof(std::string) +
                              2 * sizeof(void*));

  const uint32_t id = size_.load(std::memory_order_relaxed);
  if (id >= max_strings_) {
    return Status::OutOfRange(
        "string pool overflow: " + std::to_string(max_strings_) +
        " distinct strings already interned; refusing to alias ids");
  }
  size_t chunk, offset;
  Locate(id, &chunk, &offset);
  std::string* storage = chunks_[chunk].load(std::memory_order_relaxed);
  if (storage == nullptr) {
    const size_t slots = size_t{1} << (chunk + kMinChunkBits);
    MemoryBudget::ChargeCurrent(slots * sizeof(std::string));
    storage = new std::string[slots];
    chunks_[chunk].store(storage, std::memory_order_release);
  }
  storage[offset] = std::string(s);
  // Publishes the string: a reader that learned `id` (through any
  // synchronizing channel, incl. this release / Get's acquire) sees it.
  size_.store(id + 1, std::memory_order_release);
  ids_.emplace(std::string_view(storage[offset]), id);
  return id;
}

}  // namespace dynamite
