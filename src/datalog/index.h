// Join indexes for the Datalog engine.
//
// A JoinIndex groups a relation's rows by a key projection (fixed column
// positions) and maps each distinct key to the list of row indices carrying
// it. Keys are never materialized: the index hashes the key columns of the
// (column-major) relation directly and stores, per group, one representative
// row index — key equality checks read the relation's column storage. This
// is the columnar payoff: building or probing an index touches only the key
// columns, regardless of the relation's arity.
//
// An index is built once, in its constructor, over a relation that must not
// change while the index is in use. The engine keeps one index per (EDB
// relation, key positions) for the length of one Eval; rule bodies read
// only the EDB, which no Eval modifies. Per-key posting lists are sorted
// ascending by construction (rows are indexed in insertion order), so a
// probe visits rows in the order a positional scan would.
//
// Thread-safety: none while building; Lookup is const. An index belongs to
// one Eval, which runs on one thread. The engine builds every index a plan
// needs at plan entry, so the match loop only calls Lookup.

#ifndef DYNAMITE_DATALOG_INDEX_H_
#define DYNAMITE_DATALOG_INDEX_H_

#include <cstdint>
#include <vector>

#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "value/relation.h"

namespace dynamite {

/// The rows of one key, ascending: a view into a JoinIndex, valid as long as
/// the index. Empty when the key is absent.
class PostingList {
 public:
  PostingList() = default;
  PostingList(const uint32_t* begin, const uint32_t* end) : begin_(begin), end_(end) {}
  const uint32_t* begin() const { return begin_; }
  const uint32_t* end() const { return end_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }

 private:
  const uint32_t* begin_ = nullptr;
  const uint32_t* end_ = nullptr;
};

/// Hash index of one relation on a fixed set of key positions.
class JoinIndex {
 public:
  /// Indexes every row of `rel`, which must stay unchanged while the index
  /// is probed.
  JoinIndex(const Relation& rel, std::vector<size_t> key_positions)
      : key_positions_(std::move(key_positions)) {
    const size_t n = rel.size();
    if (n > 0) {
      // Posting lists: one uint32_t per row (group structs are charged as
      // they appear below). A constructor has no Status channel; exhaustion
      // is observed at the engine's next poll.
      MemoryBudget::ChargeCurrent(n * sizeof(uint32_t));
      DYNAMITE_FAILPOINT_THROW("engine.index.refresh");
    }
    for (size_t i = 0; i < n; ++i) {
      if (groups_.size() * 4 + 4 > group_slots_.size() * 3) {
        Regrow(group_slots_.empty() ? 16 : group_slots_.size() * 2);
      }
      size_t h = HashRowKey(rel, i);
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
      } else {
        Group& g = groups_[group_slots_[s]];
        if (g.rows.empty()) g.rows.push_back(g.head_row);
        g.rows.push_back(static_cast<uint32_t>(i));
      }
    }
  }

  /// Row indices whose key columns equal `key[0..count)`, sorted ascending;
  /// empty if none. `rel` must be the relation this index was built over
  /// (key verification reads its columns).
  PostingList Lookup(const Relation& rel, const Value* key, size_t count) const {
    if (group_slots_.empty()) return PostingList();
    size_t seed = HashValueRange(key, count);
    size_t mask = group_slots_.size() - 1;
    size_t s = seed & mask;
    while (group_slots_[s] != kEmptySlot) {
      const Group& g = groups_[group_slots_[s]];
      if (g.hash == seed && KeysEqualValues(rel, g.head_row, key)) {
        if (g.rows.empty()) return PostingList(&g.head_row, &g.head_row + 1);
        return PostingList(g.rows.data(), g.rows.data() + g.rows.size());
      }
      s = (s + 1) & mask;
    }
    return PostingList();
  }

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  /// One distinct key: its hash, its first row (the key cells live in the
  /// relation's columns — no copy), and the posting list. Most keys of a
  /// migration's facts are unique ids, so a key's only row is head_row
  /// itself; `rows` is allocated when a second row arrives and then holds
  /// them all. Building and freeing an index thus costs an allocation per
  /// repeated key, not per key.
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
  std::vector<Group> groups_;
  /// Open-addressing (linear probing) table of indices into groups_.
  std::vector<uint32_t> group_slots_;
};

}  // namespace dynamite

#endif  // DYNAMITE_DATALOG_INDEX_H_
