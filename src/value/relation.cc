#include "value/relation.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/check.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/strings.h"

namespace dynamite {

namespace {

uint64_t NextUid() {
  // Lock-free uid allocation: the only cross-thread state in this file
  // (Sessions on different threads create relations concurrently).
  // Relations themselves are externally synchronized.
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

size_t PowerOfTwoAtLeast(size_t n) {
  size_t cap = 16;
  while (cap < n) cap *= 2;
  return cap;
}

}  // namespace

Relation::Relation() : uid_(NextUid()) {}

Relation::Relation(std::string name, std::vector<std::string> attributes)
    : name_(std::move(name)), attributes_(std::move(attributes)), uid_(NextUid()) {
  columns_.resize(attributes_.size());
}

Relation::Relation(const Relation& other)
    : name_(other.name_),
      attributes_(other.attributes_),
      columns_(other.columns_),
      row_hashes_(other.row_hashes_),
      slots_(other.slots_),
      num_rows_(other.num_rows_),
      uid_(NextUid()) {}

Relation& Relation::operator=(const Relation& other) {
  if (this != &other) {
    name_ = other.name_;
    attributes_ = other.attributes_;
    columns_ = other.columns_;
    row_hashes_ = other.row_hashes_;
    slots_ = other.slots_;
    num_rows_ = other.num_rows_;
    uid_ = NextUid();
  }
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : name_(std::move(other.name_)),
      attributes_(std::move(other.attributes_)),
      columns_(std::move(other.columns_)),
      row_hashes_(std::move(other.row_hashes_)),
      slots_(std::move(other.slots_)),
      num_rows_(other.num_rows_),
      uid_(other.uid_) {
  other.num_rows_ = 0;
  other.uid_ = NextUid();
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this != &other) {
    name_ = std::move(other.name_);
    attributes_ = std::move(other.attributes_);
    columns_ = std::move(other.columns_);
    row_hashes_ = std::move(other.row_hashes_);
    slots_ = std::move(other.slots_);
    num_rows_ = other.num_rows_;
    uid_ = other.uid_;
    other.num_rows_ = 0;
    other.uid_ = NextUid();
  }
  return *this;
}

void Relation::Rehash(size_t new_slot_count) {
  if (new_slot_count > slots_.size()) {
    MemoryBudget::ChargeCurrent((new_slot_count - slots_.size()) *
                                sizeof(uint32_t));
  }
  slots_.assign(new_slot_count, kEmptySlot);
  size_t mask = new_slot_count - 1;
  for (size_t idx = 0; idx < num_rows_; ++idx) {
    size_t i = row_hashes_[idx] & mask;
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(idx);
  }
}

bool Relation::RowEqualsValues(size_t idx, const Value* vals) const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c][idx] != vals[c]) return false;
  }
  return true;
}

bool Relation::InsertRow(const Value* vals, size_t count) {
  // A mismatched arity scribbles past column ends — abort in release too.
  DYNAMITE_CHECK(count == arity(), "InsertRow arity mismatch");
  const size_t h = HashValueRange(vals, count);
  DYNAMITE_FAILPOINT_THROW("relation.insert.alloc");
  // Grow at 3/4 load (slot count is a power of two).
  if (slots_.empty()) {
    Rehash(16);
  } else if ((num_rows_ + 1) * 4 > slots_.size() * 3) {
    Rehash(slots_.size() * 2);
  }
  size_t mask = slots_.size() - 1;
  size_t i = h & mask;
  while (slots_[i] != kEmptySlot) {
    size_t idx = slots_[i];
    if (row_hashes_[idx] == h && RowEqualsValues(idx, vals)) return false;
    i = (i + 1) & mask;
  }
  slots_[i] = static_cast<uint32_t>(num_rows_);
  MemoryBudget::ChargeCurrent(columns_.size() * sizeof(Value) +
                              sizeof(size_t));
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].push_back(vals[c]);
  row_hashes_.push_back(h);
  ++num_rows_;
  return true;
}

bool Relation::Insert(const Tuple& t) {
  DYNAMITE_CHECK(t.arity() == arity(), "Insert arity mismatch");
  return InsertRow(t.values().data(), t.arity());
}

bool Relation::ContainsRow(const Value* vals, size_t count) const {
  DYNAMITE_CHECK(count == arity(), "ContainsRow arity mismatch");
  if (slots_.empty()) return false;
  size_t h = HashValueRange(vals, count);
  size_t mask = slots_.size() - 1;
  size_t i = h & mask;
  while (slots_[i] != kEmptySlot) {
    size_t idx = slots_[i];
    if (row_hashes_[idx] == h && RowEqualsValues(idx, vals)) return true;
    i = (i + 1) & mask;
  }
  return false;
}

bool Relation::Contains(const Tuple& t) const {
  return t.arity() == arity() && ContainsRow(t.values().data(), t.arity());
}

Tuple Relation::TupleAt(size_t i) const {
  std::vector<Value> vals;
  vals.reserve(arity());
  for (size_t c = 0; c < columns_.size(); ++c) vals.push_back(columns_[c][i]);
  return Tuple(std::move(vals));
}

Result<size_t> Relation::AttributeIndex(const std::string& attribute) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i] == attribute) return i;
  }
  return Status::NotFound("relation " + name_ + " has no attribute " + attribute);
}

Result<RelationView> Relation::Project(const std::vector<std::string>& attrs) const {
  std::vector<size_t> cols;
  cols.reserve(attrs.size());
  for (const std::string& a : attrs) {
    DYNAMITE_ASSIGN_OR_RETURN(size_t idx, AttributeIndex(a));
    cols.push_back(idx);
  }
  return RelationView(this, std::move(cols), attrs);
}

RelationView Relation::ViewColumns(std::vector<size_t> columns,
                                   std::vector<std::string> new_attrs) const {
  return RelationView(this, std::move(columns), std::move(new_attrs));
}

Relation Relation::ProjectColumns(const std::vector<size_t>& columns,
                                  std::vector<std::string> new_attrs) const {
  return ViewColumns(columns, std::move(new_attrs)).Materialize();
}

bool Relation::RowsEqual(size_t idx, const Relation& other, size_t other_row) const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c][idx] != other.columns_[c][other_row]) return false;
  }
  return true;
}

bool Relation::SetEquals(const Relation& other, bool by_position) const {
  if (arity() != other.arity() || size() != other.size()) return false;
  if (by_position) {
    if (slots_.empty()) return other.empty();
    // Probe this relation's row table with other's *memoized* row hashes
    // (both sides use the canonical HashValueRange algorithm); cells are
    // compared column-against-column, so no row is copied or re-hashed.
    size_t mask = slots_.size() - 1;
    for (size_t r = 0; r < other.num_rows_; ++r) {
      size_t h = other.row_hashes_[r];
      size_t i = h & mask;
      bool found = false;
      while (slots_[i] != kEmptySlot) {
        size_t idx = slots_[i];
        if (row_hashes_[idx] == h && RowsEqual(idx, other, r)) {
          found = true;
          break;
        }
        i = (i + 1) & mask;
      }
      if (!found) return false;
    }
    return true;
  }
  // Align other's columns to this relation's attribute names via an
  // occurrence-matched bijection: each column of `this` claims the first
  // unclaimed column of `other` with the same name (duplicate names pair up
  // in order), and every column of `other` must end up claimed — the
  // arities are equal and the matching is injective, so full coverage of
  // `this` implies full coverage of `other`.
  std::vector<size_t> remap(arity());
  std::vector<char> claimed(arity(), 0);
  for (size_t c = 0; c < attributes_.size(); ++c) {
    bool matched = false;
    for (size_t oc = 0; oc < other.attributes_.size(); ++oc) {
      if (!claimed[oc] && other.attributes_[oc] == attributes_[c]) {
        remap[c] = oc;
        claimed[oc] = 1;
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  // Permuted rows must be re-hashed (the memoized hash covers the original
  // column order).
  std::vector<Value> buf(arity());
  for (size_t r = 0; r < other.num_rows_; ++r) {
    for (size_t c = 0; c < buf.size(); ++c) buf[c] = other.columns_[remap[c]][r];
    if (!ContainsRow(buf.data(), buf.size())) return false;
  }
  return true;
}

std::string Relation::ToString() const {
  std::vector<Tuple> sorted;
  sorted.reserve(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) sorted.push_back(TupleAt(i));
  std::sort(sorted.begin(), sorted.end());
  std::string out = name_ + "(" + Join(attributes_, ", ") + ") {\n";
  for (const Tuple& t : sorted) {
    out += "  " + t.ToString() + "\n";
  }
  out += "}";
  return out;
}

Relation RelationView::Materialize() const {
  Relation out(base_->name(), attributes_);
  std::vector<Value> buf(columns_.size());
  size_t n = base_->size();
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) buf[c] = base_->cell(r, columns_[c]);
    out.InsertRow(buf.data(), buf.size());
  }
  return out;
}

bool RelationView::SetEquals(const RelationView& other) const {
  if (arity() != other.arity()) return false;
  const size_t n = base_rows();
  const size_t m = other.base_rows();

  // Distinct projected rows of *this* as an open-addressing table of base
  // row indices, with per-slot hashes and matched flags. No tuples are
  // materialized on either side; comparisons read the column slices.
  constexpr uint32_t kEmpty = UINT32_MAX;
  const size_t cap = PowerOfTwoAtLeast(n * 2 + 16);
  const size_t mask = cap - 1;
  std::vector<uint32_t> slot_row(cap, kEmpty);
  std::vector<size_t> slot_hash(cap, 0);
  std::vector<char> slot_matched(cap, 0);

  auto project_hash = [](const RelationView& view, size_t row) {
    ValueRowHasher h(view.arity());
    for (size_t c = 0; c < view.arity(); ++c) h.Add(view.At(row, c));
    return h.Finish();
  };
  auto rows_equal = [this](size_t my_row, const RelationView& view, size_t their_row) {
    for (size_t c = 0; c < arity(); ++c) {
      if (At(my_row, c) != view.At(their_row, c)) return false;
    }
    return true;
  };

  size_t distinct = 0;
  for (size_t r = 0; r < n; ++r) {
    size_t h = project_hash(*this, r);
    size_t i = h & mask;
    while (slot_row[i] != kEmpty) {
      if (slot_hash[i] == h && rows_equal(slot_row[i], *this, r)) break;
      i = (i + 1) & mask;
    }
    if (slot_row[i] == kEmpty) {
      slot_row[i] = static_cast<uint32_t>(r);
      slot_hash[i] = h;
      ++distinct;
    }
  }

  // Every projected row of `other` must be present, and every distinct row
  // of `this` must be hit at least once.
  size_t matched = 0;
  for (size_t r = 0; r < m; ++r) {
    size_t h = project_hash(other, r);
    size_t i = h & mask;
    while (slot_row[i] != kEmpty) {
      if (slot_hash[i] == h && rows_equal(slot_row[i], other, r)) break;
      i = (i + 1) & mask;
    }
    if (slot_row[i] == kEmpty) return false;
    if (!slot_matched[i]) {
      slot_matched[i] = 1;
      ++matched;
    }
  }
  return matched == distinct;
}

}  // namespace dynamite
