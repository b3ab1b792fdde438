#include "migrate/facts.h"

#include <algorithm>
#include <optional>

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

/// Columnar fact emission: rows are appended straight into the relations
/// through one reused value buffer. Each record's layout comes from its
/// parent's attribute, so the walk does no name lookup below the roots.
struct FactsEmitter {
  std::vector<Relation*> rels;  // by RecordLayout::index
  uint64_t* next_id;
  std::vector<Value> row_buf;

  void Emit(const RecordNode& node, const RecordLayout& rl, const Value* parent_id) {
    Value my_id = Value::Id((*next_id)++);
    RecordReader reader(node);
    row_buf.clear();
    if (parent_id != nullptr) row_buf.push_back(*parent_id);
    for (const AttrLayout& attr : rl.attrs) {
      row_buf.push_back(attr.record == nullptr ? reader.Prim(attr) : my_id);
    }
    rels[rl.index]->InsertRow(row_buf.data(), row_buf.size());
    // row_buf is free to reuse below: the row was appended column-wise.
    for (const AttrLayout* group : rl.groups) {
      for (const RecordNode& child : reader.Children(*group)) {
        Emit(child, *group->record, &my_id);
      }
    }
  }
};

}  // namespace

Result<FactDatabase> ToFacts(const RecordForest& forest, const Schema& schema,
                             uint64_t* next_id, const RunContext* ctx) {
  DYNAMITE_TRACE_SPAN("ingest.to_facts");
  const SchemaLayout layout(schema);
  DYNAMITE_RETURN_NOT_OK(ValidateForest(forest, layout));
  FactDatabase db;
  FactsEmitter emitter{{}, next_id, {}};
  // One relation per record type, declared in schema RecordNames() order.
  for (const RecordLayout& rl : layout.records()) {
    DYNAMITE_ASSIGN_OR_RETURN(Relation * rel,
                              db.DeclareRelation(*rl.type, FactSignature(schema, *rl.type)));
    emitter.rels.push_back(rel);
  }
  size_t ticks = 0;
  for (const RecordNode& root : forest.roots) {
    DYNAMITE_FAILPOINT("facts.emit");
    if (ctx != nullptr && (++ticks & 0xff) == 0) {
      DYNAMITE_RETURN_NOT_OK(ctx->Check("facts conversion"));
    }
    // ValidateForest resolved every root's type.
    emitter.Emit(root, *layout.Find(root.type), nullptr);
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
  explicit ChildIndex(const Relation* rel) : rel_(rel) {
    if (rel_ != nullptr) index_.emplace(*rel_, std::vector<size_t>{0});
  }

  PostingList Lookup(const Value& parent) const {
    if (rel_ == nullptr) return PostingList();
    return index_->Lookup(*rel_, &parent, 1);
  }

  const Relation* relation() const { return rel_; }

 private:
  const Relation* rel_ = nullptr;
  std::optional<JoinIndex> index_;  // empty when rel_ is null
};

struct Rebuilder {
  const FactDatabase& db;
  IngestStats counts;
  std::vector<std::optional<ChildIndex>> child_indexes;  // by RecordLayout::index

  const ChildIndex& IndexFor(const RecordLayout& record) {
    std::optional<ChildIndex>& index = child_indexes[record.index];
    if (!index.has_value()) {
      const Relation* rel = nullptr;
      auto found = db.Find(*record.type);
      if (found.ok()) rel = found.ValueOrDie();
      index.emplace(rel);
      ++counts.child_index_builds;
    }
    return *index;
  }

  /// BuildRecord (§3.3): reconstructs one record from its fact row.
  /// `offset` = 1 when the relation has a parent column.
  RecordNode Build(const RecordLayout& rl, RowRef fact, size_t offset) {
    RecordNode node;
    node.type = *rl.type;
    node.prims.reserve(rl.num_prims);
    node.children.reserve(rl.groups.size());
    for (size_t i = 0; i < rl.attrs.size(); ++i) {
      const AttrLayout& attr = rl.attrs[i];
      const Value& cell = fact[offset + i];
      if (attr.record == nullptr) {
        node.prims.push_back({*attr.name, cell});
      } else {
        std::vector<RecordNode> kids;
        const ChildIndex& index = IndexFor(*attr.record);
        ++counts.child_index_lookups;
        for (uint32_t child_row : index.Lookup(cell)) {
          kids.push_back(Build(*attr.record, index.relation()->row(child_row), 1));
        }
        node.children.push_back({*attr.name, std::move(kids)});
      }
    }
    return node;
  }
};

}  // namespace

Result<RecordForest> BuildForest(const FactDatabase& db, const Schema& schema,
                                 const RunContext* ctx, IngestStats* stats) {
  DYNAMITE_TRACE_SPAN("ingest.build_forest");
  // The per-lookup increments in Rebuilder are too hot to mirror one by one:
  // it counts into locals, and the registry (and `*stats`, when given) gets
  // the run's totals in bulk on success.
  const SchemaLayout layout(schema);
  Rebuilder rb{db, IngestStats(),
               std::vector<std::optional<ChildIndex>>(layout.records().size())};
  // Every relation's arity is checked before any is read: Rebuilder::Build
  // reads a nested relation's columns without bounds checks. A nested type
  // carries its parent id in column 0.
  for (const RecordLayout& rl : layout.records()) {
    auto found = db.Find(*rl.type);
    if (!found.ok()) continue;  // absent relation: no records of this type
    const size_t arity = found.ValueOrDie()->arity();
    const size_t expected = rl.attrs.size() + (rl.nested ? 1 : 0);
    if (arity != expected) {
      return Status::InvalidArgument("relation " + *rl.type + " has arity " +
                                     std::to_string(arity) + ", schema expects " +
                                     std::to_string(expected));
    }
  }
  RecordForest forest;
  size_t ticks = 0;
  // Top-level types in schema order: Schema::TopLevelRecords().
  for (const RecordLayout& rl : layout.records()) {
    if (rl.nested) continue;
    auto found = db.Find(*rl.type);
    if (!found.ok()) continue;
    const Relation* rel = found.ValueOrDie();
    for (size_t r = 0; r < rel->size(); ++r) {
      DYNAMITE_FAILPOINT("facts.build");
      if (ctx != nullptr && (++ticks & 0xff) == 0) {
        DYNAMITE_RETURN_NOT_OK(ctx->Check("forest reconstruction"));
      }
      forest.roots.push_back(rb.Build(rl, rel->row(r), 0));
    }
  }
  DYNAMITE_METRIC_ADD("ingest.child_index_builds", rb.counts.child_index_builds);
  DYNAMITE_METRIC_ADD("ingest.child_index_lookups", rb.counts.child_index_lookups);
  if (stats != nullptr) {
    stats->child_index_builds += rb.counts.child_index_builds;
    stats->child_index_lookups += rb.counts.child_index_lookups;
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

/// Number of primitive attributes in the record tree rooted at `rl` (the
/// width of its flattened rows), stored for `rl` and every nested type.
size_t TreeWidth(const RecordLayout& rl, std::vector<size_t>* widths) {
  size_t width = rl.num_prims;
  for (const AttrLayout* group : rl.groups) width += TreeWidth(*group->record, widths);
  (*widths)[rl.index] = width;
  return width;
}

/// Recursively produces the flattened rows for one record subtree.
/// `widths` holds TreeWidth for every type in the subtree.
void FlattenNode(const RecordNode& node, const RecordLayout& rl,
                 const std::vector<size_t>& widths, std::vector<Value>* prefix,
                 std::vector<std::vector<Value>>* out) {
  size_t mark = prefix->size();
  RecordReader reader(node);
  for (const AttrLayout& attr : rl.attrs) {
    if (attr.record == nullptr) prefix->push_back(reader.Prim(attr));
  }
  // Cross product over nested collections (outer join: empty -> null pad).
  if (rl.groups.empty()) {
    out->push_back(*prefix);
    prefix->resize(mark);
    return;
  }
  // For each nested attribute, compute the flattened sub-rows of each child
  // and pad with nulls when there are none.
  std::vector<std::vector<std::vector<Value>>> per_attr;  // attr -> rows
  for (const AttrLayout* group : rl.groups) {
    std::vector<std::vector<Value>> sub_rows;
    for (const RecordNode& child : reader.Children(*group)) {
      std::vector<Value> sub_prefix;
      std::vector<std::vector<Value>> child_rows;
      FlattenNode(child, *group->record, widths, &sub_prefix, &child_rows);
      for (auto& r : child_rows) sub_rows.push_back(std::move(r));
    }
    if (sub_rows.empty()) {
      sub_rows.push_back(std::vector<Value>(widths[group->record->index], Value::Null()));
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
  const SchemaLayout layout(schema);
  const RecordLayout* top = layout.Find(top_record);
  if (top == nullptr) {
    return Status::InvalidArgument("not a record type: " + top_record);
  }
  std::vector<size_t> widths(layout.records().size());
  TreeWidth(*top, &widths);
  Relation view("flat_" + top_record, schema.PrimAttrbsOfTree(top_record));
  size_t ticks = 0;
  for (const RecordNode& root : forest.roots) {
    if (root.type != top_record) continue;
    if (ctx != nullptr && (++ticks & 0xff) == 0) {
      DYNAMITE_RETURN_NOT_OK(ctx->Check("flatten view"));
    }
    std::vector<Value> prefix;
    std::vector<std::vector<Value>> rows;
    FlattenNode(root, *top, widths, &prefix, &rows);
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
