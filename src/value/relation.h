// Relation: a named set of rows with fixed arity and named attributes.
//
// Relations are *sets* (duplicate insertion is a no-op), matching Datalog's
// set semantics. Attribute names are carried so that projections — used
// heavily by attribute-mapping inference (§4.1) and MDP analysis (§4.3) —
// can be expressed by name.
//
// Storage is COLUMN-MAJOR: one insertion-ordered `Value` vector per
// attribute, plus a vector of memoized per-row hashes and an open-addressing
// hash table of row indices for set semantics. Fixed-width interned values
// (see value.h) make each column a dense array the Datalog engine can scan
// touching only the columns a join actually needs, and make projections
// zero-copy column-slice views (RelationView). Relations are append-only,
// which is what lets the engine maintain incremental join indexes as suffix
// extensions (see src/datalog/index.h): `uid()` identifies this relation
// instance and rows are only ever appended, never reordered or removed.
//
// Row access goes through `RowRef`, a cursor of (relation, row index) that
// re-fetches column storage on every cell read — safe to hold across
// appends that reallocate the column vectors (the engine emits into a
// relation mid-scan).
//
// Thread-safety: concurrent const reads (cell/column/ContainsRow/row_hash/
// SetEquals/...) are safe; any mutation requires exclusive access. A
// relation belongs to one engine or Session, which evaluates on one thread,
// so there is deliberately no locking on the probe or insert paths.

#ifndef DYNAMITE_VALUE_RELATION_H_
#define DYNAMITE_VALUE_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "value/tuple.h"

namespace dynamite {

class RowRef;
class RelationView;

/// A named set of equal-arity rows, stored column-major.
class Relation {
 public:
  Relation();

  /// Creates an empty relation with the given name and attribute names.
  Relation(std::string name, std::vector<std::string> attributes);

  /// Copies take a fresh uid: the copy's contents diverge from the
  /// original's, so cached indexes keyed on uid must not apply to it.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  /// Moves transfer the uid to the moved-to object (same logical relation);
  /// the moved-from object gets a fresh uid so that, if reused, it cannot
  /// impersonate the transferred identity in uid-keyed index caches.
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  const std::string& name() const { return name_; }
  const std::vector<std::string>& attributes() const { return attributes_; }
  size_t arity() const { return attributes_.size(); }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Process-unique identity of this relation instance; used as a cache key
  /// by the engine's persistent join indexes. Stable under moves and
  /// appends, refreshed on copy.
  uint64_t uid() const { return uid_; }

  /// Appends the row `vals[0..arity())`; returns true if it was not already
  /// present. The hot insertion path: no Tuple is materialized.
  bool InsertRow(const Value* vals, size_t count);

  /// Convenience overload for an in-place row buffer.
  bool InsertRow(const std::vector<Value>& vals) {
    return InsertRow(vals.data(), vals.size());
  }

  /// Inserts a tuple (row-major convenience wrapper over InsertRow);
  /// returns true if it was not already present. The tuple arity must
  /// match the relation arity.
  bool Insert(const Tuple& t);

  /// True if the row `vals[0..count)` is present.
  bool ContainsRow(const Value* vals, size_t count) const;

  /// True if the tuple is present.
  bool Contains(const Tuple& t) const;

  /// Column `c` as a dense vector, one entry per row in insertion order.
  /// Appended to by insertion, never reordered or shrunk (though the vector
  /// may reallocate — do not hold references across inserts; index instead).
  const std::vector<Value>& column(size_t c) const { return columns_[c]; }

  /// Cell at (row, col). Re-fetches storage on every call, so the returned
  /// reference pattern `rel.cell(r, c)` is safe even while the relation is
  /// being appended to (the engine's emit path).
  const Value& cell(size_t row, size_t col) const { return columns_[col][row]; }

  /// Memoized hash of row `i` (same algorithm as Tuple::Hash, never 0).
  size_t row_hash(size_t i) const { return row_hashes_[i]; }

  /// Cursor for row `i` (see RowRef below).
  RowRef row(size_t i) const;

  /// Row `i` materialized as a Tuple (allocates; prefer row()/cell() on hot
  /// paths).
  Tuple TupleAt(size_t i) const;

  /// Index of the attribute with the given name.
  Result<size_t> AttributeIndex(const std::string& attribute) const;

  /// Zero-copy projection onto the named attributes: returns a column-slice
  /// view over this relation (no rows copied, duplicates not folded). Call
  /// RelationView::Materialize() when an owning, deduplicated Relation is
  /// required; RelationView::SetEquals compares with set semantics without
  /// materializing.
  Result<RelationView> Project(const std::vector<std::string>& attrs) const;

  /// Zero-copy projection onto column indices.
  RelationView ViewColumns(std::vector<size_t> columns,
                           std::vector<std::string> new_attrs) const;

  /// Materialized projection onto column indices (set semantics: duplicates
  /// fold). Equivalent to ViewColumns(...).Materialize().
  Relation ProjectColumns(const std::vector<size_t>& columns,
                          std::vector<std::string> new_attrs) const;

  /// Set equality with another relation.
  ///
  /// With `by_position` (the default) rows are compared positionally:
  /// arities must match and attribute names are ignored. With
  /// `by_position = false`, `other`'s columns are first aligned to this
  /// relation's attribute names via an occurrence-matched bijection (every
  /// attribute of `this` must exist in `other` and vice versa, duplicated
  /// names pairing up in order; otherwise the relations are unequal), so
  /// the two relations may list their attributes in different orders.
  bool SetEquals(const Relation& other, bool by_position = true) const;

  /// Canonical multi-line printout, rows sorted.
  std::string ToString() const;

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  /// Doubles (or initializes) the slot table and reinserts all row indices.
  void Rehash(size_t new_slot_count);

  /// True if row `idx` equals `vals[0..arity())` cell-for-cell.
  bool RowEqualsValues(size_t idx, const Value* vals) const;

  /// True if row `idx` of this relation equals row `other_row` of `other`
  /// cell-for-cell (same column order; arities must already match).
  bool RowsEqual(size_t idx, const Relation& other, size_t other_row) const;

  std::string name_;
  std::vector<std::string> attributes_;
  /// Column-major payload: columns_[c][r] is the cell at row r, column c.
  /// All columns have length num_rows_.
  std::vector<std::vector<Value>> columns_;
  /// Memoized per-row hashes (same algorithm as Tuple::Hash); parallel to
  /// the columns. Dedup, indexing, and set comparison all start from these.
  std::vector<size_t> row_hashes_;
  /// Open-addressing (linear probing) table of row indices; kEmptySlot
  /// marks a free slot. Size is always a power of two.
  std::vector<uint32_t> slots_;
  size_t num_rows_ = 0;
  uint64_t uid_;
};

/// Lightweight row cursor: (relation, row index). Cell reads re-fetch the
/// relation's column storage, so a RowRef stays valid across appends that
/// reallocate columns (it is invalidated only by destroying the relation).
class RowRef {
 public:
  RowRef() = default;
  RowRef(const Relation* rel, size_t row) : rel_(rel), row_(row) {}

  size_t arity() const { return rel_->arity(); }
  size_t row_index() const { return row_; }
  const Value& operator[](size_t col) const { return rel_->cell(row_, col); }

  /// Memoized row hash (same algorithm as Tuple::Hash).
  size_t Hash() const { return rel_->row_hash(row_); }

  /// Materializes the row as an owning Tuple (allocates).
  Tuple ToTuple() const { return rel_->TupleAt(row_); }

  /// "(v1, v2, ...)" canonical form, same as Tuple::ToString.
  std::string ToString() const { return ToTuple().ToString(); }

 private:
  const Relation* rel_ = nullptr;
  size_t row_ = 0;
};

inline RowRef Relation::row(size_t i) const { return RowRef(this, i); }

/// Zero-copy projection: a column-reordering window over a base relation.
/// No rows are copied and duplicate projected rows remain visible
/// (`base_rows()` counts base rows, not distinct projected rows); set
/// semantics apply on Materialize() and inside SetEquals(). The view
/// borrows the base relation and must not outlive it. Appends to the base
/// relation are reflected by the view (it is a window, not a snapshot).
class RelationView {
 public:
  RelationView() = default;
  RelationView(const Relation* base, std::vector<size_t> columns,
               std::vector<std::string> attributes)
      : base_(base), columns_(std::move(columns)), attributes_(std::move(attributes)) {}

  const Relation* base() const { return base_; }
  const std::vector<size_t>& columns() const { return columns_; }
  const std::vector<std::string>& attributes() const { return attributes_; }
  size_t arity() const { return columns_.size(); }

  /// Number of rows in the underlying relation (duplicates under the
  /// projection are not folded — this is not the distinct-row count).
  size_t base_rows() const { return base_->size(); }

  /// Cell at (base row, view column).
  const Value& At(size_t row, size_t col) const {
    return base_->cell(row, columns_[col]);
  }

  /// Owning, deduplicated Relation with this view's columns and attributes.
  Relation Materialize() const;

  /// Set-semantic equality of the projected row sets (positional, like
  /// Relation::SetEquals): duplicates fold, insertion order is ignored.
  /// Compares column slices directly — neither side is materialized.
  bool SetEquals(const RelationView& other) const;

 private:
  const Relation* base_ = nullptr;
  std::vector<size_t> columns_;
  std::vector<std::string> attributes_;
};

}  // namespace dynamite

#endif  // DYNAMITE_VALUE_RELATION_H_
