// RecordForest: the common in-memory form of a database instance.
//
// Relational, document, and graph instances all convert to/from a forest of
// typed records (each record has primitive attribute values and, for
// record-typed attributes, lists of child records). The instance-to-facts
// conversion (§3.3) and its inverse BuildRecord operate on this form, so
// each concrete instance kind only needs a RecordForest adapter.

#ifndef DYNAMITE_INSTANCE_RECORD_FOREST_H_
#define DYNAMITE_INSTANCE_RECORD_FOREST_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "schema/schema.h"
#include "util/result.h"
#include "value/value.h"

namespace dynamite {

/// One record instance: primitive attribute values plus child records per
/// record-typed attribute.
struct RecordNode {
  std::string type;  ///< record type name in the schema
  std::vector<std::pair<std::string, Value>> prims;  ///< attr -> value
  std::vector<std::pair<std::string, std::vector<RecordNode>>> children;

  /// Value of primitive attribute `attr`; Null if absent.
  const Value& Prim(const std::string& attr) const;

  /// Children under record-typed attribute `attr` (empty list if absent).
  const std::vector<RecordNode>& Children(const std::string& attr) const;
};

/// A forest of top-level records, possibly of several record types.
struct RecordForest {
  std::vector<RecordNode> roots;

  /// Roots of the given record type.
  std::vector<const RecordNode*> RootsOfType(const std::string& type) const;

  /// Total number of records (including nested ones).
  size_t TotalRecords() const;
};

struct RecordLayout;

/// One attribute of a record type, resolved against the schema.
struct AttrLayout {
  const std::string* name = nullptr;     ///< schema-owned attribute name
  const RecordLayout* record = nullptr;  ///< child type's layout; null for a primitive
  PrimitiveType prim = PrimitiveType::kInt;  ///< meaningful only for a primitive
  /// Position among the record's primitive attributes (for a primitive) or
  /// among its record-typed attributes (for a child group): where a producer
  /// that writes in schema order puts this attribute's entry.
  size_t slot = 0;
};

/// One record type of a schema, resolved once so that a forest walk follows
/// pointers instead of looking names up per record and per cell.
struct RecordLayout {
  const std::string* type = nullptr;  ///< schema-owned record type name
  size_t index = 0;     ///< position in Schema::RecordNames(): key for per-type walk state
  bool nested = false;  ///< Schema::IsNestedRecord
  std::vector<AttrLayout> attrs;              ///< schema attribute order
  std::vector<const AttrLayout*> groups;      ///< the record-typed entries of `attrs`
  size_t num_prims = 0;
};

/// The layouts of every record type of a validated schema, which must
/// outlive them. Layouts point at each other, so this is neither copied nor
/// moved.
class SchemaLayout {
 public:
  explicit SchemaLayout(const Schema& schema);
  SchemaLayout(const SchemaLayout&) = delete;
  SchemaLayout& operator=(const SchemaLayout&) = delete;

  /// Layout of record type `type`; null when `type` is not a record type.
  const RecordLayout* Find(const std::string& type) const;

  /// Every record type's layout, in Schema::RecordNames() order.
  const std::vector<RecordLayout>& records() const { return records_; }

 private:
  std::vector<RecordLayout> records_;
  std::unordered_map<std::string, const RecordLayout*> by_name_;
};

/// Reads one record's primitive values and child groups through its layout.
/// Each accessor returns exactly what RecordNode::Prim / Children return for
/// the attribute's name, provided every primitive attribute, and every
/// record-typed one, is read in schema order without skipping: while each
/// earlier entry sat at its slot, the entry at this attribute's slot, if it
/// carries the name, is the first with that name. After the first miss,
/// reads fall back to the name scan.
class RecordReader {
 public:
  explicit RecordReader(const RecordNode& node) : node_(node) {}

  const Value& Prim(const AttrLayout& attr) {
    if (prims_in_order_ && attr.slot < node_.prims.size() &&
        node_.prims[attr.slot].first == *attr.name) {
      return node_.prims[attr.slot].second;
    }
    prims_in_order_ = false;
    return node_.Prim(*attr.name);
  }

  const std::vector<RecordNode>& Children(const AttrLayout& attr) {
    if (groups_in_order_ && attr.slot < node_.children.size() &&
        node_.children[attr.slot].first == *attr.name) {
      return node_.children[attr.slot].second;
    }
    groups_in_order_ = false;
    return node_.Children(*attr.name);
  }

 private:
  const RecordNode& node_;
  bool prims_in_order_ = true;
  bool groups_in_order_ = true;
};

/// Validates that every record in the forest conforms to `schema`: known
/// record types, every primitive attribute present with a type-compatible
/// value, and children only under the record's own record-typed attributes,
/// at most one group per attribute.
Status ValidateForest(const RecordForest& forest, const Schema& schema);

/// ValidateForest with the schema already resolved.
Status ValidateForest(const RecordForest& forest, const SchemaLayout& layout);

}  // namespace dynamite

#endif  // DYNAMITE_INSTANCE_RECORD_FOREST_H_
