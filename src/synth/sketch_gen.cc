#include "synth/sketch_gen.h"

#include <algorithm>
#include <functional>

namespace dynamite {

namespace {

/// Head connector variable for nested target record C.
std::string HeadConnectorVar(const std::string& record) { return "v_" + record; }

/// Builds the fixed head atoms for `target_record` and its nested records
/// (GenIntensionalPreds, Figure 5). Head variables are named after their
/// target attribute; nested records are linked by connector variables.
void GenIntensionalPreds(const Schema& target, const std::string& record,
                         std::vector<Atom>* heads) {
  Atom atom;
  atom.relation = record;
  if (target.IsNestedRecord(record)) {
    atom.terms.push_back(Term::Var(HeadConnectorVar(record)));
  }
  for (const std::string& attr : target.AttrsOf(record)) {
    if (target.IsPrimitive(attr)) {
      atom.terms.push_back(Term::Var(attr));
    } else {
      atom.terms.push_back(Term::Var(HeadConnectorVar(attr)));
    }
  }
  heads->push_back(std::move(atom));
  for (const std::string& attr : target.AttrsOf(record)) {
    if (target.IsRecord(attr)) GenIntensionalPreds(target, attr, heads);
  }
}

/// Chain copies per leaf source record in the full sketch: one copy of the
/// chain of RecName(a) per (source attribute a, alias in the tree) pair.
std::map<std::string, int> FullCopyCounts(const AttributeMapping& psi, const Schema& source,
                                          const std::set<std::string>& tree_attrs) {
  std::map<std::string, int> counts;
  for (const auto& [a, aliases] : psi) {
    int k = 0;
    for (const std::string& a2 : aliases) {
      if (tree_attrs.count(a2) > 0) ++k;
    }
    if (k > 0) counts[source.RecName(a)] += k;
  }
  return counts;
}

/// True if the filtering extension may pin target attribute `attr` to a
/// constant: its example output column holds a single value.
bool MayPinToConstant(const std::string& attr,
                      const std::map<std::string, std::set<Value>>& output_value_sets,
                      const SketchGenOptions& options) {
  if (!options.enable_filtering) return false;
  auto it = output_value_sets.find(attr);
  return it != output_value_sets.end() && it->second.size() == 1;
}

Status NoSourceFor(const std::string& target_record) {
  return Status::SynthesisFailure(
      "attribute mapping relates no source attribute to target record " + target_record);
}

/// State for building the body and domains of one rule sketch.
struct BodyBuilder {
  const Schema& source;
  RuleSketch* sketch;
  // Copies per source relation (CopyNum).
  std::map<std::string, int> copy_count;
  // (relation, copy index, attr) -> hole index.
  std::map<std::string, int> hole_of;  // key: rel|copy|attr
  int fresh_connector = 0;

  static std::string HoleKey(const std::string& rel, int copy, const std::string& attr) {
    return rel + "|" + std::to_string(copy) + "|" + attr;
  }

  /// Adds one copy of the extensional predicate chain for record `rec`
  /// (GenExtensionalPreds, Figure 6): predicates for every record from the
  /// top-level ancestor down to `rec`, linked by fresh connector variables.
  void AddChainCopy(const std::string& rec) {
    std::vector<int> chain_holes;
    std::vector<std::string> chain = source.ChainToTopLevel(rec);
    // Assign a copy index to each record on the chain.
    std::map<std::string, int> copy_idx;
    for (const std::string& r : chain) copy_idx[r] = ++copy_count[r];
    // Connector variable between consecutive chain links.
    std::map<std::string, std::string> link_var;  // child record -> var name
    for (size_t i = 1; i < chain.size(); ++i) {
      link_var[chain[i]] = "v" + std::to_string(++fresh_connector);
    }
    for (size_t i = 0; i < chain.size(); ++i) {
      const std::string& r = chain[i];
      SketchBodyAtom atom;
      atom.relation = r;
      if (source.IsNestedRecord(r)) {
        BodySlot s;
        s.kind = BodySlot::Kind::kVar;
        s.var = link_var.at(r);
        atom.slots.push_back(std::move(s));
      }
      const std::string* next = (i + 1 < chain.size()) ? &chain[i + 1] : nullptr;
      for (const std::string& attr : source.AttrsOf(r)) {
        BodySlot s;
        if (source.IsPrimitive(attr)) {
          s.kind = BodySlot::Kind::kHole;
          s.hole = static_cast<int>(sketch->holes.size());
          hole_of[HoleKey(r, copy_idx[r], attr)] = s.hole;
          chain_holes.push_back(s.hole);
          SketchHole hole;
          hole.source_attr = attr;
          hole.copy = copy_idx[r];
          sketch->holes.push_back(std::move(hole));
        } else if (next != nullptr && attr == *next) {
          s.kind = BodySlot::Kind::kVar;
          s.var = link_var.at(attr);
        } else {
          s.kind = BodySlot::Kind::kWildcard;
        }
        atom.slots.push_back(std::move(s));
      }
      sketch->body.push_back(std::move(atom));
    }
    sketch->chain_copies.push_back({rec, std::move(chain_holes)});
  }
};

}  // namespace

Result<RuleSketch> GenRuleSketch(
    const AttributeMapping& psi, const Schema& source, const Schema& target,
    const std::string& target_record,
    const std::map<std::string, std::set<Value>>& output_value_sets,
    const SketchGenOptions& options, const SketchShape* shape) {
  if (!target.IsRecord(target_record) || target.IsNestedRecord(target_record)) {
    return Status::InvalidArgument("not a top-level target record: " + target_record);
  }
  RuleSketch sketch;
  sketch.target_record = target_record;
  GenIntensionalPreds(target, target_record, &sketch.heads);

  // Target attributes this rule must produce.
  std::vector<std::string> tree_attrs = target.PrimAttrbsOfTree(target_record);
  std::set<std::string> tree_attr_set(tree_attrs.begin(), tree_attrs.end());

  // Body skeleton: one chain copy of RecName(a) per (a, alias-in-this-tree),
  // while the shape allows another copy of that record.
  BodyBuilder builder{source, &sketch, {}, {}, 0};
  std::map<std::string, int> leaf_copies;
  for (const auto& [a, aliases] : psi) {
    const std::string& rec = source.RecName(a);
    int cap = 0;
    if (shape != nullptr) {
      auto it = shape->find(rec);
      if (it != shape->end()) cap = it->second;
    }
    for (const std::string& a2 : aliases) {
      if (tree_attr_set.count(a2) == 0) continue;
      if (shape != nullptr && leaf_copies[rec] >= cap) break;
      ++leaf_copies[rec];
      builder.AddChainCopy(rec);
    }
  }
  if (sketch.body.empty()) return NoSourceFor(target_record);

  // Intern head variable symbols.
  for (const std::string& attr : tree_attrs) {
    SketchSymbol sym;
    sym.kind = SketchSymbol::Kind::kHeadVar;
    sym.name = attr;
    sym.attr = attr;
    sketch.symbols.Intern(std::move(sym));
  }
  // Intern body attribute variable symbols v^i_a for every copy.
  auto body_attr_symbol = [&](const std::string& attr, int copy) {
    SketchSymbol sym;
    sym.kind = SketchSymbol::Kind::kBodyAttrVar;
    sym.name = attr + std::to_string(copy);
    sym.attr = attr;
    return sketch.symbols.Intern(std::move(sym));
  };

  // Domain generation (Algorithm 2, lines 13-18).
  auto alias_of = [&](const std::string& x, const std::string& y) {
    // True if y ∈ Ψ(x) or x ∈ Ψ(y).
    auto it = psi.find(x);
    if (it != psi.end() && it->second.count(y) > 0) return true;
    auto jt = psi.find(y);
    if (jt != psi.end() && jt->second.count(x) > 0) return true;
    return false;
  };

  for (SketchHole& hole : sketch.holes) {
    const std::string& a = hole.source_attr;
    // Head variables for target aliases of a.
    auto it = psi.find(a);
    if (it != psi.end()) {
      for (const std::string& a2 : it->second) {
        if (tree_attr_set.count(a2) > 0) {
          hole.domain.push_back(sketch.symbols.FindHeadVar(a2));
        }
      }
    }
    // Body attribute variables of a and of every source alias of a.
    std::vector<std::string> source_aliases = {a};
    for (const std::string& a2 : source.PrimAttrbs()) {
      if (a2 != a && alias_of(a, a2)) source_aliases.push_back(a2);
    }
    hole.own_symbol = body_attr_symbol(a, hole.copy);
    for (const std::string& a2 : source_aliases) {
      auto cit = builder.copy_count.find(source.RecName(a2));
      if (cit == builder.copy_count.end()) continue;
      for (int copy = 1; copy <= cit->second; ++copy) {
        hole.domain.push_back(body_attr_symbol(a2, copy));
      }
    }
    // Filtering extension: constants from the output example whose type
    // matches the hole's attribute.
    if (options.enable_filtering) {
      size_t added = 0;
      PrimitiveType want = source.PrimitiveOf(a);
      for (const auto& [tattr, values] : output_value_sets) {
        if (!target.IsPrimitive(tattr) || target.PrimitiveOf(tattr) != want) continue;
        if (tree_attr_set.count(tattr) == 0) continue;
        for (const Value& v : values) {
          if (added >= options.max_constants_per_hole) break;
          SketchSymbol sym;
          sym.kind = SketchSymbol::Kind::kConstant;
          sym.constant = v;
          hole.domain.push_back(sketch.symbols.Intern(std::move(sym)));
          ++added;
        }
      }
    }
    std::sort(hole.domain.begin(), hole.domain.end());
    hole.domain.erase(std::unique(hole.domain.begin(), hole.domain.end()),
                      hole.domain.end());
    if (hole.domain.empty()) {
      // A hole with an empty domain can never be filled; give it a private
      // fresh variable (equivalent to a wildcard position).
      SketchSymbol sym;
      sym.kind = SketchSymbol::Kind::kBodyAttrVar;
      sym.name = a + "_free" + std::to_string(&hole - sketch.holes.data());
      sym.attr = a;
      hole.domain.push_back(sketch.symbols.Intern(std::move(sym)));
    }
  }

  // Connector unknowns for nested target records: the head connector
  // variable unifies with some body variable — a source connector variable
  // or any body attribute variable (grouping by attribute value).
  std::vector<int> connector_domain_base;
  {
    // Source connector variables present in the body.
    for (const SketchBodyAtom& atom : sketch.body) {
      for (const BodySlot& s : atom.slots) {
        if (s.kind == BodySlot::Kind::kVar) {
          SketchSymbol sym;
          sym.kind = SketchSymbol::Kind::kConnectorVar;
          sym.name = s.var;
          connector_domain_base.push_back(sketch.symbols.Intern(std::move(sym)));
        }
      }
    }
    // Body attribute variables (all copies of all attributes with holes).
    for (const auto& [key, hole_idx] : builder.hole_of) {
      (void)hole_idx;
      size_t p1 = key.find('|');
      size_t p2 = key.find('|', p1 + 1);
      std::string copy = key.substr(p1 + 1, p2 - p1 - 1);
      std::string attr = key.substr(p2 + 1);
      connector_domain_base.push_back(body_attr_symbol(attr, std::stoi(copy)));
    }
    std::sort(connector_domain_base.begin(), connector_domain_base.end());
    connector_domain_base.erase(
        std::unique(connector_domain_base.begin(), connector_domain_base.end()),
        connector_domain_base.end());
  }
  for (const std::string& nested : target.NestedRecordsOf(target_record)) {
    SketchConnector conn;
    conn.target_record = nested;
    conn.head_var = HeadConnectorVar(nested);
    conn.domain = connector_domain_base;
    if (conn.domain.empty()) {
      return Status::SynthesisFailure("no candidate grouping variable for nested record " +
                                      nested);
    }
    sketch.connectors.push_back(std::move(conn));
  }

  // Filtering extension, head side: a target attribute whose example output
  // column holds a single value may be pinned to that constant instead of
  // being produced by the body (the head form of an equality filter).
  if (options.enable_filtering) {
    for (const std::string& attr : tree_attrs) {
      if (!MayPinToConstant(attr, output_value_sets, options)) continue;
      auto vit = output_value_sets.find(attr);
      SketchHeadBinding binding;
      binding.target_attr = attr;
      binding.head_var_symbol = sketch.symbols.FindHeadVar(attr);
      binding.domain.push_back(binding.head_var_symbol);
      SketchSymbol sym;
      sym.kind = SketchSymbol::Kind::kConstant;
      sym.constant = *vit->second.begin();
      binding.domain.push_back(sketch.symbols.Intern(std::move(sym)));
      sketch.head_bindings.push_back(std::move(binding));
    }
  }

  return sketch;
}

Result<SketchShapes> SketchShapes::Create(
    const AttributeMapping& psi, const Schema& source, const Schema& target,
    const std::string& target_record,
    const std::map<std::string, std::set<Value>>& output_value_sets,
    const SketchGenOptions& options) {
  if (!target.IsRecord(target_record) || target.IsNestedRecord(target_record)) {
    return Status::InvalidArgument("not a top-level target record: " + target_record);
  }
  std::vector<std::string> tree_attrs = target.PrimAttrbsOfTree(target_record);
  std::set<std::string> tree_attr_set(tree_attrs.begin(), tree_attrs.end());
  SketchShapes shapes;
  for (const auto& [rec, copies] : FullCopyCounts(psi, source, tree_attr_set)) {
    shapes.records_.push_back(rec);
    shapes.max_.push_back(copies);
  }
  if (shapes.records_.empty()) return NoSourceFor(target_record);

  // The bipartite graph of the matching: required head attribute -> source
  // attributes whose holes may carry it -> records whose chains hold them.
  std::map<std::string, size_t> attr_index;
  for (const std::string& h : tree_attrs) {
    if (MayPinToConstant(h, output_value_sets, options)) continue;
    std::vector<size_t> carriers;
    for (const auto& [a, aliases] : psi) {
      if (aliases.count(h) == 0) continue;
      auto [it, inserted] = attr_index.emplace(a, shapes.attr_records_.size());
      if (inserted) {
        std::vector<size_t> holders;
        for (size_t i = 0; i < shapes.records_.size(); ++i) {
          const std::vector<std::string> chain = source.ChainToTopLevel(shapes.records_[i]);
          if (std::find(chain.begin(), chain.end(), source.RecName(a)) != chain.end()) {
            holders.push_back(i);
          }
        }
        shapes.attr_records_.push_back(std::move(holders));
      }
      carriers.push_back(it->second);
    }
    shapes.required_.push_back(std::move(carriers));
  }

  // Matching only gains holes with copies: if the full shape fails it,
  // every shape does, and the full shape is the only one.
  shapes.counts_ = shapes.max_;
  if (shapes.Matches()) {
    shapes.counts_.assign(shapes.max_.size(), 0);  // no copies: before the first
    shapes.Advance();
  }
  return shapes;
}

SketchShape SketchShapes::Current() const {
  SketchShape shape;
  for (size_t i = 0; i < records_.size(); ++i) {
    if (counts_[i] > 0) shape[records_[i]] = counts_[i];
  }
  return shape;
}

bool SketchShapes::Step() {
  const size_t n = counts_.size();
  // Fills positions [from, n) with `sum` copies, lexicographically smallest
  // first: the last positions take as many as they hold.
  auto fill = [&](size_t from, int sum) {
    for (size_t j = n; j-- > from;) {
      counts_[j] = std::min(sum, max_[j]);
      sum -= counts_[j];
    }
  };
  // Same total: move one copy from the suffix to the rightmost position
  // that can take it, then refill the suffix smallest first.
  int suffix = counts_[n - 1];
  for (size_t i = n - 1; i-- > 0;) {
    if (suffix > 0 && counts_[i] < max_[i]) {
      ++counts_[i];
      fill(i + 1, suffix - 1);
      return true;
    }
    suffix += counts_[i];
  }
  // Next total; the full shape is the last.
  if (counts_ == max_) return false;
  fill(0, suffix + 1);
  return true;
}

bool SketchShapes::Advance() {
  // Step fails only at the full shape, which matches whenever an earlier
  // shape did, so the loop never ends on a shape that does not match.
  while (Step()) {
    if (Matches()) return true;
  }
  return false;
}

bool SketchShapes::Matches() const {
  // Holes per source attribute under the current shape.
  std::vector<int> capacity(attr_records_.size(), 0);
  for (size_t a = 0; a < attr_records_.size(); ++a) {
    for (size_t i : attr_records_[a]) capacity[a] += counts_[i];
  }
  // Kuhn's augmenting paths over attributes with capacities.
  std::vector<std::vector<size_t>> taken(attr_records_.size());
  std::vector<bool> visited;
  std::function<bool(size_t)> augment = [&](size_t h) {
    for (size_t a : required_[h]) {
      if (visited[a]) continue;
      visited[a] = true;
      if (taken[a].size() < static_cast<size_t>(capacity[a])) {
        taken[a].push_back(h);
        return true;
      }
      for (size_t& holder : taken[a]) {
        if (augment(holder)) {
          holder = h;
          return true;
        }
      }
    }
    return false;
  };
  for (size_t h = 0; h < required_.size(); ++h) {
    visited.assign(attr_records_.size(), false);
    if (!augment(h)) return false;
  }
  return true;
}

Result<std::vector<RuleSketch>> SketchGen(
    const AttributeMapping& psi, const Schema& source, const Schema& target,
    const std::map<std::string, std::set<Value>>& output_value_sets,
    const SketchGenOptions& options) {
  std::vector<RuleSketch> sketches;
  for (const std::string& rec : target.TopLevelRecords()) {
    DYNAMITE_ASSIGN_OR_RETURN(
        SketchShapes shapes,
        SketchShapes::Create(psi, source, target, rec, output_value_sets, options));
    const SketchShape shape = shapes.Current();
    DYNAMITE_ASSIGN_OR_RETURN(
        RuleSketch sketch,
        GenRuleSketch(psi, source, target, rec, output_value_sets, options, &shape));
    sketches.push_back(std::move(sketch));
  }
  return sketches;
}

}  // namespace dynamite
