#include "reference.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

namespace dynamite {
namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t StringDigest(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

/// Digest of a set: sorted, de-duplicated, then summed (order-insensitive).
uint64_t SetDigest(std::vector<uint64_t>* digests) {
  std::sort(digests->begin(), digests->end());
  digests->erase(std::unique(digests->begin(), digests->end()), digests->end());
  uint64_t sum = 0;
  for (uint64_t d : *digests) sum += Mix(d);
  return Mix(sum ^ Mix(digests->size()));
}

/// A value's digest from its content. A string Value's own hash is of its
/// string-pool id, which depends on the order the process interned its
/// strings, so a digest made in a measuring process would not match one
/// made in the driver.
uint64_t ValueDigest(const Value& v) {
  return v.is_string() ? Mix(StringDigest(v.AsString())) : static_cast<uint64_t>(v.Hash());
}

/// Mirrors CanonicalNode's equality: primitive fields in any order, child
/// groups as sets (empty groups included), identifiers ignored.
uint64_t NodeDigest(const RecordNode& node) {
  uint64_t prims = 0;
  for (const auto& [attr, value] : node.prims) {
    if (value.kind() == ValueKind::kId) continue;  // identifiers are existential
    prims += Mix(StringDigest(attr) ^ ValueDigest(value));
  }
  uint64_t groups = 0;
  std::vector<uint64_t> kids_digests;
  for (const auto& [attr, kids] : node.children) {
    kids_digests.clear();
    for (const RecordNode& kid : kids) kids_digests.push_back(NodeDigest(kid));
    groups += Mix(StringDigest(attr) ^ SetDigest(&kids_digests));
  }
  return Mix(Mix(Mix(StringDigest(node.type)) ^ prims) ^ groups);
}

/// Term position of one body atom, resolved against the rule's variable
/// slots.
struct Column {
  enum Kind { kSkip, kConst, kBound, kBind, kRepeat } kind = kSkip;
  size_t slot = 0;  ///< variable slot (kBound, kBind, kRepeat)
  Value constant;   ///< kConst
};

uint64_t KeyHash(uint64_t h, const Value& v) { return Mix(h ^ static_cast<uint64_t>(v.Hash())); }

/// Joins `rows` (bindings of width `width`) with one body atom.
Status JoinAtom(const Atom& atom, const Relation& rel, std::vector<bool>* bound,
                const std::map<std::string, size_t>& slots, size_t width, bool first,
                std::vector<Value>* rows) {
  if (atom.terms.size() != rel.arity()) {
    return Status::InvalidArgument("arity mismatch for " + atom.relation);
  }
  std::vector<Column> cols(atom.terms.size());
  std::vector<bool> bound_after = *bound;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    if (t.is_wildcard()) continue;
    if (t.is_constant()) {
      cols[i].kind = Column::kConst;
      cols[i].constant = t.constant();
      continue;
    }
    size_t slot = slots.at(t.var());
    cols[i].slot = slot;
    if ((*bound)[slot]) {
      cols[i].kind = Column::kBound;
    } else if (bound_after[slot]) {
      cols[i].kind = Column::kRepeat;  // bound earlier in this same atom
    } else {
      cols[i].kind = Column::kBind;
      bound_after[slot] = true;
    }
  }

  // Rows of `rel` matching the atom's constants and in-atom repeats.
  auto row_matches_self = [&](size_t r, std::vector<Value>* row_buf) {
    for (size_t i = 0; i < cols.size(); ++i) {
      const Value& v = rel.column(i)[r];
      switch (cols[i].kind) {
        case Column::kConst:
          if (!(v == cols[i].constant)) return false;
          break;
        case Column::kBind:
          (*row_buf)[cols[i].slot] = v;
          break;
        case Column::kRepeat:
          if (!(v == (*row_buf)[cols[i].slot])) return false;
          break;
        default:
          break;
      }
    }
    return true;
  };

  std::vector<Value> out;
  std::vector<Value> row_buf(width);
  if (first) {
    for (size_t r = 0; r < rel.size(); ++r) {
      if (row_matches_self(r, &row_buf)) out.insert(out.end(), row_buf.begin(), row_buf.end());
    }
  } else {
    // Hash the relation on the columns already bound by earlier atoms.
    std::vector<size_t> key_cols;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i].kind == Column::kBound) key_cols.push_back(i);
    }
    // Chained hash index: head row per key hash, then next-row links.
    constexpr uint32_t kEnd = UINT32_MAX;
    std::unordered_map<uint64_t, uint32_t> head;
    std::vector<uint32_t> next(rel.size(), kEnd);
    head.reserve(rel.size());
    for (size_t r = rel.size(); r-- > 0;) {
      uint64_t h = 0;
      for (size_t c : key_cols) h = KeyHash(h, rel.column(c)[r]);
      auto [it, fresh] = head.emplace(h, static_cast<uint32_t>(r));
      if (!fresh) {
        next[r] = it->second;
        it->second = static_cast<uint32_t>(r);
      }
    }
    const size_t n = rows->size() / width;
    for (size_t b = 0; b < n; ++b) {
      const Value* binding = rows->data() + b * width;
      uint64_t h = 0;
      for (size_t c : key_cols) h = KeyHash(h, binding[cols[c].slot]);
      auto it = head.find(h);
      if (it == head.end()) continue;
      for (uint32_t r = it->second; r != kEnd; r = next[r]) {
        bool keys_equal = true;
        for (size_t c : key_cols) {
          if (!(rel.column(c)[r] == binding[cols[c].slot])) {
            keys_equal = false;
            break;
          }
        }
        if (!keys_equal) continue;
        row_buf.assign(binding, binding + width);
        if (row_matches_self(r, &row_buf)) out.insert(out.end(), row_buf.begin(), row_buf.end());
      }
    }
  }
  *bound = std::move(bound_after);
  *rows = std::move(out);
  return Status::OK();
}

Status EvaluateRule(const Rule& rule, const FactDatabase& edb,
                    const std::set<std::string>& heads, FactDatabase* idb) {
  std::map<std::string, size_t> slots;
  for (const std::string& v : rule.BodyVariables()) slots.emplace(v, slots.size());
  const size_t width = std::max<size_t>(slots.size(), 1);

  std::vector<Value> rows;
  std::vector<bool> bound(width, false);
  std::vector<bool> done(rule.body.size(), false);
  for (size_t step = 0; step < rule.body.size(); ++step) {
    // Next atom: the first one sharing a bound variable, else the first left.
    size_t pick = rule.body.size();
    for (size_t i = 0; i < rule.body.size() && step > 0; ++i) {
      if (done[i]) continue;
      for (const Term& t : rule.body[i].terms) {
        if (t.is_variable() && bound[slots.at(t.var())]) {
          pick = i;
          break;
        }
      }
      if (pick != rule.body.size()) break;
    }
    for (size_t i = 0; i < rule.body.size() && pick == rule.body.size(); ++i) {
      if (!done[i]) pick = i;
    }
    done[pick] = true;
    const Atom& atom = rule.body[pick];
    if (heads.count(atom.relation) > 0) {
      return Status::InvalidArgument("recursive or layered rule reads " + atom.relation);
    }
    auto rel = edb.Find(atom.relation);
    if (!rel.ok()) return Status::InvalidArgument("unknown body relation " + atom.relation);
    DYNAMITE_RETURN_NOT_OK(JoinAtom(atom, **rel, &bound, slots, width, step == 0, &rows));
    if (rows.empty()) return Status::OK();
  }

  const size_t n = rows.size() / width;
  for (const Atom& head : rule.heads) {
    DYNAMITE_ASSIGN_OR_RETURN(Relation * out, idb->FindMutable(head.relation));
    std::vector<Value> tuple(head.terms.size());
    for (size_t b = 0; b < n; ++b) {
      const Value* binding = rows.data() + b * width;
      for (size_t i = 0; i < head.terms.size(); ++i) {
        const Term& t = head.terms[i];
        if (t.is_variable()) {
          tuple[i] = binding[slots.at(t.var())];
        } else if (t.is_constant()) {
          tuple[i] = t.constant();
        } else {
          return Status::InvalidArgument("wildcard in head of " + head.relation);
        }
      }
      out->InsertRow(tuple);
    }
  }
  return Status::OK();
}

}  // namespace

Result<FactDatabase> EvaluateConjunctive(
    const Program& program, const FactDatabase& edb,
    const std::map<std::string, std::vector<std::string>>& idb_signatures) {
  FactDatabase idb;
  for (const auto& [name, attrs] : idb_signatures) {
    DYNAMITE_RETURN_NOT_OK(idb.DeclareRelation(name, attrs).status());
  }
  const std::set<std::string> heads = program.IntensionalRelations();
  for (const Rule& rule : program.rules) {
    DYNAMITE_RETURN_NOT_OK(EvaluateRule(rule, edb, heads, &idb));
  }
  return idb;
}

uint64_t ForestDigest(const RecordForest& forest) {
  std::vector<uint64_t> digests;
  digests.reserve(forest.roots.size());
  for (const RecordNode& root : forest.roots) digests.push_back(NodeDigest(root));
  return SetDigest(&digests);
}

}  // namespace perfbench
}  // namespace dynamite
