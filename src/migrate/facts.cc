#include "migrate/facts.h"

#include <algorithm>
#include <unordered_map>

#include "datalog/index.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace dynamite {

std::string ParentColumn(const std::string& record) { return "_parent_" + record; }

std::vector<std::string> FactSignature(const Schema& schema, const std::string& record) {
  std::vector<std::string> attrs;
  if (schema.IsNestedRecord(record)) attrs.push_back(ParentColumn(record));
  for (const std::string& a : schema.AttrsOf(record)) attrs.push_back(a);
  return attrs;
}

std::map<std::string, std::vector<std::string>> FactSignatures(const Schema& schema) {
  std::map<std::string, std::vector<std::string>> sigs;
  for (const std::string& rec : schema.RecordNames()) {
    sigs[rec] = FactSignature(schema, rec);
  }
  return sigs;
}

namespace {

/// Per-record-type conversion state, resolved once per ToFacts call: the
/// target relation, the (stable) schema attribute list, and per-attribute
/// primitive/record classification. Resolving these per record instead
/// makes name lookups dominate ingest on wide schemas.
struct TypeInfo {
  Relation* rel = nullptr;
  const std::vector<std::string>* attrs = nullptr;  // Schema::AttrsOf, stable
  std::vector<bool> is_prim;         // parallel to *attrs
  std::vector<size_t> record_attrs;  // indices into *attrs of record attrs
  size_t arity = 0;
};

using TypeInfoMap = std::unordered_map<std::string, TypeInfo>;

/// Declares one relation per record type, in schema RecordNames() order,
/// and resolves each TypeInfo.
Result<TypeInfoMap> DeclareRelations(const Schema& schema, FactDatabase* db) {
  TypeInfoMap types;
  for (const std::string& rec : schema.RecordNames()) {
    DYNAMITE_ASSIGN_OR_RETURN(Relation * rel,
                              db->DeclareRelation(rec, FactSignature(schema, rec)));
    TypeInfo info;
    info.rel = rel;
    info.attrs = &schema.AttrsOf(rec);
    info.arity = rel->arity();
    info.is_prim.reserve(info.attrs->size());
    for (size_t i = 0; i < info.attrs->size(); ++i) {
      bool prim = schema.IsPrimitive((*info.attrs)[i]);
      info.is_prim.push_back(prim);
      if (!prim && schema.IsRecord((*info.attrs)[i])) info.record_attrs.push_back(i);
    }
    types.emplace(rec, std::move(info));
  }
  return types;
}

/// Columnar fact emission: rows are appended straight into the relations
/// through one reused value buffer — no per-record Tuple, no per-record name
/// lookup beyond the single TypeInfo probe.
struct FactsEmitter {
  const TypeInfoMap& types;
  uint64_t* next_id;
  std::vector<Value> row_buf;

  Status Emit(const RecordNode& node, const Value* parent_id) {
    Value my_id = Value::Id((*next_id)++);
    auto it = types.find(node.type);
    if (it == types.end()) return Status::NotFound("no relation named " + node.type);
    const TypeInfo& info = it->second;
    const std::vector<std::string>& attrs = *info.attrs;
    row_buf.clear();
    if (parent_id != nullptr) row_buf.push_back(*parent_id);
    for (size_t i = 0; i < attrs.size(); ++i) {
      row_buf.push_back(info.is_prim[i] ? node.Prim(attrs[i]) : my_id);
    }
    if (row_buf.size() != info.arity) {
      return Status::InvalidArgument("arity mismatch adding fact to " + node.type);
    }
    info.rel->InsertRow(row_buf.data(), row_buf.size());
    // row_buf is free to reuse below: the row was appended column-wise.
    for (size_t ai : info.record_attrs) {
      for (const RecordNode& child : node.Children(attrs[ai])) {
        DYNAMITE_RETURN_NOT_OK(Emit(child, &my_id));
      }
    }
    return Status::OK();
  }
};

}  // namespace

Result<FactDatabase> ToFacts(const RecordForest& forest, const Schema& schema,
                             uint64_t* next_id, const RunContext* ctx) {
  DYNAMITE_TRACE_SPAN("ingest.to_facts");
  DYNAMITE_RETURN_NOT_OK(ValidateForest(forest, schema));
  FactDatabase db;
  DYNAMITE_ASSIGN_OR_RETURN(TypeInfoMap types, DeclareRelations(schema, &db));
  FactsEmitter emitter{types, next_id, {}};
  size_t ticks = 0;
  for (const RecordNode& root : forest.roots) {
    DYNAMITE_FAILPOINT("facts.emit");
    if (ctx != nullptr && (++ticks & 0xff) == 0) {
      DYNAMITE_RETURN_NOT_OK(ctx->Check("facts conversion"));
    }
    DYNAMITE_RETURN_NOT_OK(emitter.Emit(root, nullptr));
  }
  return db;
}

namespace {

/// Posting-list index over a child relation's parent column: build-once,
/// backed by the engine's JoinIndex on key position {0}, so forest
/// reconstruction shares the same open-addressed group table (and the same
/// memory-budget accounting) as join evaluation. Postings are ascending row
/// indices — children rebuild in fact insertion order, exactly like the
/// linear scan the old per-value hash map replaced.
class ChildIndex {
 public:
  explicit ChildIndex(const Relation* rel) : rel_(rel), index_({0}) {
    if (rel_ != nullptr) index_.Refresh(*rel_);
  }

  const std::vector<uint32_t>& Lookup(const Value& parent) const {
    static const std::vector<uint32_t> kEmpty;
    if (rel_ == nullptr) return kEmpty;
    const std::vector<uint32_t>* rows = index_.Lookup(*rel_, &parent, 1);
    return rows == nullptr ? kEmpty : *rows;
  }

  const Relation* relation() const { return rel_; }

 private:
  const Relation* rel_ = nullptr;
  JoinIndex index_;
};

struct Rebuilder {
  const FactDatabase& db;
  const Schema& schema;
  IngestStats* stats;  // may be null
  std::map<std::string, ChildIndex> child_indexes;

  const ChildIndex& IndexFor(const std::string& record) {
    auto it = child_indexes.find(record);
    if (it == child_indexes.end()) {
      const Relation* rel = nullptr;
      auto found = db.Find(record);
      if (found.ok()) rel = found.ValueOrDie();
      it = child_indexes.emplace(record, ChildIndex(rel)).first;
      if (stats != nullptr) ++stats->child_index_builds;
    }
    return it->second;
  }

  /// BuildRecord (§3.3): reconstructs one record from its fact row.
  /// `offset` = 1 when the relation has a parent column.
  RecordNode Build(const std::string& record, RowRef fact, size_t offset) {
    RecordNode node;
    node.type = record;
    const auto& attrs = schema.AttrsOf(record);
    for (size_t i = 0; i < attrs.size(); ++i) {
      const Value& cell = fact[offset + i];
      if (schema.IsPrimitive(attrs[i])) {
        node.prims.push_back({attrs[i], cell});
      } else {
        std::vector<RecordNode> kids;
        const ChildIndex& index = IndexFor(attrs[i]);
        if (stats != nullptr) ++stats->child_index_lookups;
        for (uint32_t child_row : index.Lookup(cell)) {
          kids.push_back(Build(attrs[i], index.relation()->row(child_row), 1));
        }
        node.children.push_back({attrs[i], std::move(kids)});
      }
    }
    return node;
  }
};

}  // namespace

Result<RecordForest> BuildForest(const FactDatabase& db, const Schema& schema,
                                 const RunContext* ctx, IngestStats* stats) {
  DYNAMITE_TRACE_SPAN("ingest.build_forest");
  // The per-lookup stats increments in Rebuilder are too hot to mirror one
  // by one; the registry gets the run's delta in bulk on success.
  const size_t builds_before = stats != nullptr ? stats->child_index_builds : 0;
  const size_t lookups_before = stats != nullptr ? stats->child_index_lookups : 0;
  Rebuilder rb{db, schema, stats, {}};
  RecordForest forest;
  size_t ticks = 0;
  for (const std::string& rec : schema.TopLevelRecords()) {
    auto found = db.Find(rec);
    if (!found.ok()) continue;  // absent relation: no records of this type
    const Relation* rel = found.ValueOrDie();
    size_t expected_arity = FactSignature(schema, rec).size();
    if (rel->arity() != expected_arity) {
      return Status::InvalidArgument("relation " + rec + " has arity " +
                                     std::to_string(rel->arity()) + ", schema expects " +
                                     std::to_string(expected_arity));
    }
    for (size_t r = 0; r < rel->size(); ++r) {
      DYNAMITE_FAILPOINT("facts.build");
      if (ctx != nullptr && (++ticks & 0xff) == 0) {
        DYNAMITE_RETURN_NOT_OK(ctx->Check("forest reconstruction"));
      }
      forest.roots.push_back(rb.Build(rec, rel->row(r), 0));
    }
  }
  if (stats != nullptr) {
    DYNAMITE_METRIC_ADD("ingest.child_index_builds",
                        stats->child_index_builds - builds_before);
    DYNAMITE_METRIC_ADD("ingest.child_index_lookups",
                        stats->child_index_lookups - lookups_before);
  }
  return forest;
}

namespace {

std::string CanonicalNode(const RecordNode& node) {
  std::string out = node.type + "{";
  std::vector<std::string> fields;
  for (const auto& [attr, value] : node.prims) {
    fields.push_back(attr + "=" + value.ToString());
  }
  std::sort(fields.begin(), fields.end());
  for (const std::string& f : fields) {
    out += f;
    out += ";";
  }
  std::vector<std::string> child_groups;
  for (const auto& [attr, kids] : node.children) {
    std::vector<std::string> canon_kids;
    canon_kids.reserve(kids.size());
    for (const RecordNode& k : kids) canon_kids.push_back(CanonicalNode(k));
    std::sort(canon_kids.begin(), canon_kids.end());
    canon_kids.erase(std::unique(canon_kids.begin(), canon_kids.end()), canon_kids.end());
    std::string group = attr + ":[";
    for (const std::string& c : canon_kids) {
      group += c;
      group += ",";
    }
    group += "]";
    child_groups.push_back(std::move(group));
  }
  std::sort(child_groups.begin(), child_groups.end());
  for (const std::string& g : child_groups) {
    out += g;
    out += ";";
  }
  out += "}";
  return out;
}

}  // namespace

std::vector<std::string> CanonicalForest(const RecordForest& forest) {
  std::vector<std::string> out;
  out.reserve(forest.roots.size());
  for (const RecordNode& r : forest.roots) out.push_back(CanonicalNode(r));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool ForestEquals(const RecordForest& a, const RecordForest& b) {
  return CanonicalForest(a) == CanonicalForest(b);
}

namespace {

/// Recursively produces the flattened rows for one record subtree.
void FlattenNode(const RecordNode& node, const Schema& schema,
                 std::vector<Value>* prefix, std::vector<std::vector<Value>>* out) {
  size_t mark = prefix->size();
  for (const std::string& attr : schema.PrimAttrbsOf(node.type)) {
    prefix->push_back(node.Prim(attr));
  }
  // Cross product over nested collections (outer join: empty -> null pad).
  std::vector<std::string> nested;
  for (const std::string& attr : schema.AttrsOf(node.type)) {
    if (schema.IsRecord(attr)) nested.push_back(attr);
  }
  if (nested.empty()) {
    out->push_back(*prefix);
    prefix->resize(mark);
    return;
  }
  // For each nested attribute, compute the flattened sub-rows of each child
  // and pad with nulls when there are none.
  std::vector<std::vector<std::vector<Value>>> per_attr;  // attr -> rows
  for (const std::string& attr : nested) {
    std::vector<std::vector<Value>> sub_rows;
    for (const RecordNode& child : node.Children(attr)) {
      std::vector<Value> sub_prefix;
      std::vector<std::vector<Value>> child_rows;
      FlattenNode(child, schema, &sub_prefix, &child_rows);
      for (auto& r : child_rows) sub_rows.push_back(std::move(r));
    }
    if (sub_rows.empty()) {
      size_t width = schema.PrimAttrbsOfTree(attr).size();
      sub_rows.push_back(std::vector<Value>(width, Value::Null()));
    }
    per_attr.push_back(std::move(sub_rows));
  }
  // Cross product of the per-attribute row sets.
  std::vector<std::vector<Value>> acc = {{}};
  for (const auto& sub_rows : per_attr) {
    std::vector<std::vector<Value>> next;
    for (const auto& base : acc) {
      for (const auto& sub : sub_rows) {
        std::vector<Value> row = base;
        row.insert(row.end(), sub.begin(), sub.end());
        next.push_back(std::move(row));
      }
    }
    acc = std::move(next);
  }
  for (const auto& suffix : acc) {
    std::vector<Value> row = *prefix;
    row.insert(row.end(), suffix.begin(), suffix.end());
    out->push_back(std::move(row));
  }
  prefix->resize(mark);
}

}  // namespace

Result<Relation> FlattenForestView(const RecordForest& forest, const Schema& schema,
                                   const std::string& top_record,
                                   const RunContext* ctx) {
  if (!schema.IsRecord(top_record)) {
    return Status::InvalidArgument("not a record type: " + top_record);
  }
  Relation view("flat_" + top_record, schema.PrimAttrbsOfTree(top_record));
  size_t ticks = 0;
  for (const RecordNode& root : forest.roots) {
    if (root.type != top_record) continue;
    if (ctx != nullptr && (++ticks & 0xff) == 0) {
      DYNAMITE_RETURN_NOT_OK(ctx->Check("flatten view"));
    }
    std::vector<Value> prefix;
    std::vector<std::vector<Value>> rows;
    FlattenNode(root, schema, &prefix, &rows);
    for (const auto& r : rows) view.InsertRow(r.data(), r.size());
  }
  return view;
}

Result<Relation> FlattenView(const FactDatabase& db, const Schema& schema,
                             const std::string& top_record, const RunContext* ctx) {
  DYNAMITE_ASSIGN_OR_RETURN(RecordForest forest, BuildForest(db, schema, ctx));
  // Keep only the requested tree's roots (BuildForest builds all).
  return FlattenForestView(forest, schema, top_record, ctx);
}

}  // namespace dynamite
