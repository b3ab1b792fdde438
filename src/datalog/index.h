// Persistent, incrementally-maintained join indexes for the Datalog engine.
//
// A JoinIndex groups a relation's rows by a key projection (fixed column
// positions) and maps each distinct key to the list of row indices carrying
// it. Keys are never materialized: the index hashes the key columns of the
// (column-major) relation directly and stores, per group, one representative
// row index — key equality checks read the relation's column storage. This
// is the columnar payoff: building or probing an index touches only the key
// columns, regardless of the relation's arity.
//
// Because Relations are append-only, an index is extended by scanning only
// the row-index suffix added since the last Refresh — it is never rebuilt.
// The engine keeps one index per (relation instance, key positions):
//
//   * EDB indexes live in the engine and survive across Eval calls, so the
//     synthesizer's thousands of candidate evaluations against the same
//     example instance pay the index build exactly once.
//   * IDB indexes live for one Eval and are extended as the fixpoint derives
//     new rows; semi-naive deltas are *views* — suffix ranges [lo, hi) of
//     the row space — not separate materialized relations.
//
// Per-key posting lists are sorted ascending by construction (rows are
// indexed in insertion order), which is what makes range-restricted lookups
// (the delta views) a lower_bound away.
//
// Thread-safety contract (ISSUE 4, parallel fixpoint): Refresh and
// IndexCache::Get mutate and require exclusive access; Lookup is const and
// safe to call concurrently from any number of threads provided no Refresh
// (and no append to the underlying relation) runs at the same time. The
// engine resolves and refreshes every index a plan needs single-threaded at
// plan entry, then freezes all relations while worker threads probe — so
// the parallel match phase only ever executes the concurrent-safe reads.

#ifndef DYNAMITE_DATALOG_INDEX_H_
#define DYNAMITE_DATALOG_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/thread_pool.h"
#include "value/relation.h"

namespace dynamite {

/// Hash index of one relation on a fixed set of key positions, extended
/// incrementally as the relation grows.
class JoinIndex {
 public:
  explicit JoinIndex(std::vector<size_t> key_positions)
      : key_positions_(std::move(key_positions)) {}

  /// Indexes rows [indexed_upto, rel.size()); no-op when up to date.
  /// `rel` must be the same logical relation on every call.
  ///
  /// With a non-null `pool` and a large enough unindexed suffix, key hashing
  /// — the scan-heavy half of a refresh — is chunked across the pool before
  /// the (serial) table insertion replays the precomputed hashes in row
  /// order. The resulting index is bit-identical to a sequential Refresh:
  /// insertion order, group numbering, and posting lists depend only on the
  /// hashes, which are deterministic per row. A pool failure (injected or
  /// real) silently falls back to hashing inline.
  void Refresh(const Relation& rel, ThreadPool* pool = nullptr) {
    size_t n = rel.size();
    size_t start = indexed_upto_;
    if (n > start) {
      // Posting-list growth: one uint32_t per newly indexed row (group
      // structs are charged as they appear below). Refresh has no Status
      // channel; exhaustion is observed at the engine's next poll.
      MemoryBudget::ChargeCurrent((n - start) * sizeof(uint32_t));
      DYNAMITE_FAILPOINT_THROW("engine.index.refresh");
    }
    std::vector<size_t> hashes;
    bool have_hashes = false;
    if (pool != nullptr && n - start >= kParallelHashMinRows) {
      MemoryBudget::ChargeCurrent((n - start) * sizeof(size_t));
      hashes.resize(n - start);
      size_t workers = pool->num_workers();
      size_t count = n - start;
      Status st = pool->Run([&](size_t w) {
        size_t lo = start + count * w / workers;
        size_t hi = start + count * (w + 1) / workers;
        for (size_t i = lo; i < hi; ++i) hashes[i - start] = HashRowKey(rel, i);
      });
      have_hashes = st.ok();
    }
    for (size_t i = start; i < n; ++i) {
      if (groups_.size() * 4 + 4 > group_slots_.size() * 3) {
        Regrow(group_slots_.empty() ? 16 : group_slots_.size() * 2);
      }
      size_t h = have_hashes ? hashes[i - start] : HashRowKey(rel, i);
      size_t mask = group_slots_.size() - 1;
      size_t s = h & mask;
      while (group_slots_[s] != kEmptySlot) {
        Group& g = groups_[group_slots_[s]];
        if (g.hash == h && KeysEqual(rel, g.head_row, i)) break;
        s = (s + 1) & mask;
      }
      if (group_slots_[s] == kEmptySlot) {
        group_slots_[s] = static_cast<uint32_t>(groups_.size());
        MemoryBudget::ChargeCurrent(sizeof(Group));
        groups_.push_back(Group{h, static_cast<uint32_t>(i), {}});
      }
      groups_[group_slots_[s]].rows.push_back(static_cast<uint32_t>(i));
    }
    indexed_upto_ = n;
  }

  /// Row indices whose key columns equal `key[0..count)`, sorted ascending;
  /// nullptr if none. `rel` must be the relation this index was built over
  /// (key verification reads its columns). The returned pointer is stable
  /// until the next Refresh.
  const std::vector<uint32_t>* Lookup(const Relation& rel, const Value* key,
                                      size_t count) const {
    if (group_slots_.empty()) return nullptr;
    size_t seed = HashValueRange(key, count);
    size_t mask = group_slots_.size() - 1;
    size_t s = seed & mask;
    while (group_slots_[s] != kEmptySlot) {
      const Group& g = groups_[group_slots_[s]];
      if (g.hash == seed && KeysEqualValues(rel, g.head_row, key)) return &g.rows;
      s = (s + 1) & mask;
    }
    return nullptr;
  }

  size_t indexed_upto() const { return indexed_upto_; }
  const std::vector<size_t>& key_positions() const { return key_positions_; }

  /// Unindexed-suffix size below which Refresh hashes inline even when
  /// handed a pool: chunk dispatch costs more than the hashing it saves.
  /// Public so callers can gate pool acquisition on the same threshold.
  static constexpr size_t kParallelHashMinRows = 4096;

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  /// One distinct key: its hash, a representative row (the key cells live in
  /// the relation's columns — no copy), and the posting list.
  struct Group {
    size_t hash;
    uint32_t head_row;
    std::vector<uint32_t> rows;
  };

  size_t HashRowKey(const Relation& rel, size_t row) const {
    ValueRowHasher h(key_positions_.size());
    for (size_t p : key_positions_) h.Add(rel.cell(row, p));
    return h.Finish();
  }

  bool KeysEqual(const Relation& rel, size_t row_a, size_t row_b) const {
    for (size_t p : key_positions_) {
      if (rel.cell(row_a, p) != rel.cell(row_b, p)) return false;
    }
    return true;
  }

  bool KeysEqualValues(const Relation& rel, size_t row, const Value* key) const {
    for (size_t i = 0; i < key_positions_.size(); ++i) {
      if (rel.cell(row, key_positions_[i]) != key[i]) return false;
    }
    return true;
  }

  void Regrow(size_t new_slot_count) {
    group_slots_.assign(new_slot_count, kEmptySlot);
    size_t mask = new_slot_count - 1;
    for (size_t gi = 0; gi < groups_.size(); ++gi) {
      size_t s = groups_[gi].hash & mask;
      while (group_slots_[s] != kEmptySlot) s = (s + 1) & mask;
      group_slots_[s] = static_cast<uint32_t>(gi);
    }
  }

  std::vector<size_t> key_positions_;
  size_t indexed_upto_ = 0;
  std::vector<Group> groups_;
  /// Open-addressing (linear probing) table of indices into groups_.
  std::vector<uint32_t> group_slots_;
};

/// Cache of JoinIndexes keyed by (relation uid, key positions). Get()
/// refreshes the index to cover the relation's current size, so callers
/// always see a complete index up to their snapshot point.
class IndexCache {
 public:
  /// The index for (rel, key_positions), created on first use and refreshed
  /// to rel.size(). The returned pointer is stable until Clear(); Get never
  /// evicts (callers hold raw pointers across a join plan — see
  /// MaybeEvict). A non-null `pool` parallelizes the refresh's key hashing
  /// (see JoinIndex::Refresh); the index contents are identical either way.
  JoinIndex* Get(const Relation& rel, const std::vector<size_t>& key_positions,
                 ThreadPool* pool = nullptr) {
    Key key{rel.uid(), key_positions};
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      it = entries_.emplace(std::move(key), std::make_unique<JoinIndex>(key_positions)).first;
    }
    it->second->Refresh(rel, pool);
    return it->second.get();
  }

  /// Bounds memory across long synthesizer sessions: a stale uid (destroyed
  /// relation) can never be queried again, so wholesale clearing is safe —
  /// but only between evaluations, when no JoinIndex pointers are live.
  /// The engine calls this at Eval entry, never mid-plan.
  void MaybeEvict() {
    if (entries_.size() > kMaxEntries) Clear();
  }

  void Clear() { entries_.clear(); }
  size_t size() const { return entries_.size(); }

 private:
  static constexpr size_t kMaxEntries = 1024;

  struct Key {
    uint64_t uid;
    std::vector<size_t> positions;
    bool operator==(const Key& o) const {
      return uid == o.uid && positions == o.positions;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t seed = k.uid;
      for (size_t p : k.positions) HashCombine(&seed, p);
      return seed;
    }
  };

  std::unordered_map<Key, std::unique_ptr<JoinIndex>, KeyHash> entries_;
};

}  // namespace dynamite

#endif  // DYNAMITE_DATALOG_INDEX_H_
