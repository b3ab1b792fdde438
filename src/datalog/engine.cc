#include "datalog/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <set>
#include <unordered_map>

#include "datalog/index.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace dynamite {

namespace {

/// Compiled term: constant or variable slot.
struct Slot {
  bool is_const = false;
  bool is_wildcard = false;
  Value constant;
  int var = -1;  // slot index for variables
};

/// One body atom inside a join plan, with a static matching strategy
/// relative to its position in the plan's atom order.
struct PlanAtom {
  std::string relation;
  bool is_idb = false;
  /// Restricted to the delta suffix [lo, hi) of its relation during
  /// semi-naive iteration (at most one per plan).
  bool is_delta = false;
  std::vector<Slot> slots;
  // Positions whose value is known before scanning this atom (constants and
  // variables bound by earlier atoms) — these form the hash-index key.
  std::vector<size_t> key_positions;
  // Positions to verify after a candidate tuple is fetched (repeated
  // variables within this atom).
  std::vector<size_t> check_positions;
  // Positions that bind a fresh variable.
  std::vector<size_t> bind_positions;
  /// No variable this atom binds is read by a later atom or a head, so it
  /// only tests existence: the matcher stops scanning it after the first
  /// row that passes its checks. Every later row would replay the same
  /// continuation and derive only duplicate head rows, so relation
  /// contents, row order, stats and error codes are unchanged; only the
  /// interruption polls fall.
  bool exists_only = false;
};

/// An ordered sequence of body atoms to match left to right.
struct JoinPlan {
  std::vector<PlanAtom> atoms;
};

/// A rule compiled to one full plan (every atom reads its full relation)
/// plus one delta plan per IDB body atom occurrence (that atom reads only
/// the semi-naive delta). Plans share the variable-slot numbering.
struct CompiledRule {
  struct Head {
    std::string relation;
    std::vector<Slot> slots;
  };
  std::vector<Head> heads;
  int num_slots = 0;
  bool has_idb_body = false;
  std::vector<std::string> idb_body_relations;  // parallel to delta_plans
  JoinPlan full;
  std::vector<JoinPlan> delta_plans;
  /// EDB body relation cardinalities observed when the join order was
  /// chosen; the statistics-refresh check compares them against current
  /// sizes to decide whether a cached plan is stale (≥4x drift).
  std::vector<std::pair<std::string, size_t>> edb_stats;
  /// Round-0 sizes of this rule's IDB body relations, recorded after pass 0
  /// of the first Eval that ran it (empty until then). The IDB half of the
  /// statistics refresh: recursion-heavy programs never drift their EDB
  /// stats, so without this a cached recursive plan was pinned to the
  /// kIdbCardinality guess forever (the pre-ISSUE-4 bug).
  std::vector<std::pair<std::string, size_t>> idb_stats;
};

/// Uncompiled body atom with its variable slots resolved.
struct RawAtom {
  std::string relation;
  bool is_idb = false;
  size_t cardinality = 0;  // estimated; IDB atoms get a large constant
  std::vector<Slot> slots;
};

/// IDB relations grow during evaluation; rank them behind any EDB relation
/// of plausible size when ordering joins.
constexpr size_t kIdbCardinality = size_t{1} << 40;

/// Builds the PlanAtom sequence for the given atom order. Key, check, and
/// bind positions depend on which variables earlier atoms bound, and an
/// atom's existence-only flag on which variables later atoms and the heads
/// (`head_vars`) read, so they are recomputed per order; slot numbering is
/// shared across plans.
JoinPlan MakePlan(const std::vector<RawAtom>& raws, const std::vector<size_t>& order,
                  int delta_atom, const std::set<int>& head_vars) {
  JoinPlan plan;
  std::set<int> bound;
  for (size_t ai : order) {
    const RawAtom& raw = raws[ai];
    PlanAtom pa;
    pa.relation = raw.relation;
    pa.is_idb = raw.is_idb;
    pa.is_delta = static_cast<int>(ai) == delta_atom;
    pa.slots = raw.slots;
    std::set<int> bound_here;
    for (size_t i = 0; i < pa.slots.size(); ++i) {
      const Slot& s = pa.slots[i];
      if (s.is_wildcard) continue;
      if (s.is_const || bound.count(s.var) > 0) {
        pa.key_positions.push_back(i);
      } else if (bound_here.count(s.var) > 0) {
        pa.check_positions.push_back(i);
      } else {
        pa.bind_positions.push_back(i);
        bound_here.insert(s.var);
      }
    }
    bound.insert(bound_here.begin(), bound_here.end());
    plan.atoms.push_back(std::move(pa));
  }
  // Walk the plan backwards: `live` holds the variables read after atom k.
  std::set<int> live = head_vars;
  for (size_t k = plan.atoms.size(); k-- > 0;) {
    PlanAtom& pa = plan.atoms[k];
    pa.exists_only = std::none_of(pa.bind_positions.begin(), pa.bind_positions.end(),
                                  [&](size_t p) { return live.count(pa.slots[p].var) > 0; });
    for (const Slot& s : pa.slots) {
      if (!s.is_const && !s.is_wildcard) live.insert(s.var);
    }
  }
  return plan;
}

/// Greedy selectivity order: repeatedly pick the atom with the most bound
/// positions (constants + variables bound by already-picked atoms), breaking
/// ties by smaller estimated cardinality, then by original position.
/// `forced_first` (an index into raws, or -1) pins the delta atom up front —
/// deltas are the smallest view by construction.
std::vector<size_t> SelectivityOrder(const std::vector<RawAtom>& raws, int forced_first) {
  std::vector<size_t> order;
  std::set<int> bound;
  std::vector<bool> used(raws.size(), false);
  auto take = [&](size_t ai) {
    used[ai] = true;
    order.push_back(ai);
    for (const Slot& s : raws[ai].slots) {
      if (!s.is_const && !s.is_wildcard) bound.insert(s.var);
    }
  };
  if (forced_first >= 0) take(static_cast<size_t>(forced_first));
  while (order.size() < raws.size()) {
    size_t best = raws.size();
    size_t best_score = 0;
    size_t best_card = 0;
    for (size_t ai = 0; ai < raws.size(); ++ai) {
      if (used[ai]) continue;
      size_t score = 0;
      for (const Slot& s : raws[ai].slots) {
        if (s.is_const || (!s.is_wildcard && bound.count(s.var) > 0)) ++score;
      }
      if (best == raws.size() || score > best_score ||
          (score == best_score && raws[ai].cardinality < best_card)) {
        best = ai;
        best_score = score;
        best_card = raws[ai].cardinality;
      }
    }
    take(best);
  }
  return order;
}

std::vector<size_t> IdentityOrder(size_t n) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

/// Compiles `rule` into join plans. `idb_sizes`, when non-null, supplies
/// observed IDB relation cardinalities (round-0 sizes from a running
/// fixpoint) to replace the kIdbCardinality guess when ordering joins; the
/// sizes used are recorded in the result's idb_stats for later drift checks.
Result<CompiledRule> CompileRule(const Rule& rule, const std::set<std::string>& idb,
                                 const FactDatabase& edb, bool reorder,
                                 const std::map<std::string, size_t>* idb_sizes = nullptr) {
  CompiledRule out;
  std::map<std::string, int> var_slot;
  auto slot_of = [&](const std::string& v) {
    auto it = var_slot.find(v);
    if (it != var_slot.end()) return it->second;
    int s = static_cast<int>(var_slot.size());
    var_slot[v] = s;
    return s;
  };

  std::vector<RawAtom> raws;
  std::set<int> body_vars;
  std::set<int> head_vars;
  std::vector<size_t> idb_atom_indices;
  for (const Atom& atom : rule.body) {
    RawAtom raw;
    raw.relation = atom.relation;
    raw.is_idb = idb.count(atom.relation) > 0;
    if (raw.is_idb) {
      raw.cardinality = kIdbCardinality;
      if (idb_sizes != nullptr) {
        auto it = idb_sizes->find(atom.relation);
        if (it != idb_sizes->end()) {
          raw.cardinality = it->second;
          bool seen = false;
          for (const auto& [name, size] : out.idb_stats) seen = seen || name == atom.relation;
          if (!seen) out.idb_stats.emplace_back(atom.relation, it->second);
        }
      }
      idb_atom_indices.push_back(raws.size());
    } else {
      auto rel = edb.Find(atom.relation);
      raw.cardinality = rel.ok() ? rel.ValueOrDie()->size() : kIdbCardinality;
      bool seen = false;
      for (const auto& [name, size] : out.edb_stats) seen = seen || name == atom.relation;
      if (!seen && rel.ok()) out.edb_stats.emplace_back(atom.relation, raw.cardinality);
    }
    for (const Term& t : atom.terms) {
      Slot s;
      if (t.is_constant()) {
        s.is_const = true;
        s.constant = t.constant();
      } else if (t.is_wildcard()) {
        s.is_wildcard = true;
      } else {
        s.var = slot_of(t.var());
        body_vars.insert(s.var);
      }
      raw.slots.push_back(std::move(s));
    }
    raws.push_back(std::move(raw));
  }

  for (const Atom& h : rule.heads) {
    CompiledRule::Head head;
    head.relation = h.relation;
    for (const Term& t : h.terms) {
      Slot s;
      if (t.is_constant()) {
        s.is_const = true;
        s.constant = t.constant();
      } else if (t.is_variable()) {
        s.var = slot_of(t.var());
        head_vars.insert(s.var);
        if (body_vars.count(s.var) == 0) {
          return Status::InvalidArgument("head variable " + t.var() + " unbound in body");
        }
      } else {
        return Status::InvalidArgument("wildcard in rule head");
      }
      head.slots.push_back(std::move(s));
    }
    out.heads.push_back(std::move(head));
  }
  out.num_slots = static_cast<int>(var_slot.size());
  out.has_idb_body = !idb_atom_indices.empty();

  out.full = MakePlan(raws, reorder ? SelectivityOrder(raws, -1) : IdentityOrder(raws.size()),
                      -1, head_vars);
  for (size_t ai : idb_atom_indices) {
    out.idb_body_relations.push_back(raws[ai].relation);
    std::vector<size_t> order = reorder ? SelectivityOrder(raws, static_cast<int>(ai))
                                        : IdentityOrder(raws.size());
    out.delta_plans.push_back(MakePlan(raws, order, static_cast<int>(ai), head_vars));
  }
  return out;
}

/// Injective serialization of a rule for the compiled-rule cache.
/// Rule::ToString() is ambiguous — Float(1.0) prints as "1" just like
/// Int(1), and string constants embed unescaped — so it must not key the
/// cache (a collision would replay another rule's compiled constants).
/// Constants are encoded as kind tag + exact payload bits (string pool ids
/// are stable for the process, which is the cache's lifetime).
void AppendCacheKey(const Atom& atom, std::string* key) {
  *key += atom.relation;
  *key += '\x02';
  char buf[32];
  for (const Term& t : atom.terms) {
    if (t.is_wildcard()) {
      *key += 'W';
    } else if (t.is_variable()) {
      *key += 'V';
      *key += t.var();
    } else {
      const Value& v = t.constant();
      uint64_t bits = 0;
      switch (v.kind()) {
        case ValueKind::kNull:
          break;
        case ValueKind::kInt:
          bits = static_cast<uint64_t>(v.AsInt());
          break;
        case ValueKind::kFloat: {
          double d = v.AsFloat();
          static_assert(sizeof(d) == sizeof(bits));
          std::memcpy(&bits, &d, sizeof(bits));
          break;
        }
        case ValueKind::kBool:
          bits = v.AsBool() ? 1 : 0;
          break;
        case ValueKind::kString:
          bits = v.string_id();
          break;
        case ValueKind::kId:
          bits = v.AsId();
          break;
      }
      std::snprintf(buf, sizeof(buf), "C%u:%016llx", static_cast<unsigned>(v.kind()),
                    static_cast<unsigned long long>(bits));
      *key += buf;
    }
    *key += '\x03';
  }
  *key += '\x04';
}

/// True when `current` has drifted ≥4x from `planned` in either direction
/// (including empty -> non-empty, where any join order chosen for an empty
/// relation is uninformed).
bool CardinalityDrifted(size_t planned, size_t current) {
  if (planned == current) return false;
  size_t lo = std::min(planned, current);
  size_t hi = std::max(planned, current);
  return hi >= lo * 4;
}

/// A cached plan is stale when any EDB body relation's cardinality has
/// drifted ≥4x from the size seen when the join order was chosen.
bool PlanIsStale(const CompiledRule& rule, const FactDatabase& edb) {
  for (const auto& [name, planned] : rule.edb_stats) {
    auto rel = edb.Find(name);
    size_t current = rel.ok() ? rel.ValueOrDie()->size() : 0;
    if (CardinalityDrifted(planned, current)) return true;
  }
  return false;
}

std::string RuleCacheKey(const Rule& rule, const std::string& idb_key) {
  std::string key;
  for (const Atom& h : rule.heads) AppendCacheKey(h, &key);
  key += '\x05';
  for (const Atom& b : rule.body) AppendCacheKey(b, &key);
  key += '\x01';
  key += idb_key;
  return key;
}

/// Recompiles rule `rule_index` against observed IDB round-0 sizes, updates
/// the engine's rule cache + refresh counter, and returns the new rule.
using IdbRefreshFn = std::function<Result<std::shared_ptr<CompiledRule>>(
    size_t rule_index, const std::map<std::string, size_t>& idb_sizes)>;

class Evaluator {
 public:
  /// `budget` (may be null) is the run's byte budget, polled at the same
  /// stride as cancel/deadline.
  Evaluator(const DatalogEngine::Options& options, IndexCache* edb_indexes,
            const RunContext* ctx, MemoryBudget* budget)
      : options_(options),
        edb_indexes_(edb_indexes),
        deadline_(Deadline::Earliest(
            Deadline::AfterOrInfinite(options.timeout_seconds),
            ctx != nullptr ? ctx->deadline : Deadline::Infinite())),
        cancel_(ctx != nullptr ? ctx->cancel : CancelToken()),
        budget_(budget) {}

  Status Run(std::vector<std::shared_ptr<CompiledRule>>& rules, const FactDatabase& edb,
             const std::map<std::string, std::vector<std::string>>& idb_sigs,
             FactDatabase* out, const IdbRefreshFn& refresh_idb) {
    for (const auto& [name, attrs] : idb_sigs) {
      DYNAMITE_ASSIGN_OR_RETURN(Relation * rel, out->DeclareRelation(name, attrs));
      (void)rel;
    }

    // Semi-naive delta views: per IDB relation, the suffix [lo, hi) of the
    // (append-only) tuple vector derived in the previous round.
    std::map<std::string, std::pair<size_t, size_t>> delta;
    for (const auto& [name, attrs] : idb_sigs) delta[name] = {0, 0};

    // Pass 0: every rule over full views.
    {
      DYNAMITE_TRACE_SPAN("engine.pass0");
      for (const auto& rule : rules) {
        DYNAMITE_RETURN_NOT_OK(EvalPlan(*rule, rule->full, delta, edb, out));
      }
    }
    bool any_delta = false;
    for (auto& [name, range] : delta) {
      range = {0, out->Find(name).ValueOrDie()->size()};
      any_delta = any_delta || range.second > range.first;
    }

    bool any_recursive = false;
    for (const auto& rule : rules) any_recursive = any_recursive || rule->has_idb_body;

    // Statistics refresh, IDB half. Round-0 sizes are the first real
    // cardinality signal recursive rules ever get (their EDB stats don't
    // move when only the derived relations grow): record them on the
    // rule's first Eval, and on later Evals replan when they have drifted
    // ≥4x.
    if (any_recursive) {
      std::map<std::string, size_t> idb_sizes;
      for (const auto& [name, range] : delta) idb_sizes[name] = range.second;
      for (size_t ri = 0; ri < rules.size(); ++ri) {
        CompiledRule& rule = *rules[ri];
        if (!rule.has_idb_body) continue;
        if (rule.idb_stats.empty()) {
          std::set<std::string> seen;
          for (const std::string& name : rule.idb_body_relations) {
            if (seen.insert(name).second) {
              rule.idb_stats.emplace_back(name, idb_sizes.at(name));
            }
          }
          continue;
        }
        if (refresh_idb == nullptr) continue;
        bool stale = false;
        for (const auto& [name, planned] : rule.idb_stats) {
          auto it = idb_sizes.find(name);
          stale = stale || (it != idb_sizes.end() &&
                            CardinalityDrifted(planned, it->second));
        }
        if (stale) {
          DYNAMITE_ASSIGN_OR_RETURN(rules[ri], refresh_idb(ri, idb_sizes));
        }
      }
    }

    // Semi-naive fixpoint for recursive programs.
    size_t iterations = 0;
    while (any_recursive && any_delta) {
      if (++iterations > options_.max_iterations) {
        return Status::EvalBudget("fixpoint iteration limit exceeded");
      }
      DYNAMITE_FAILPOINT("engine.fixpoint.round");
      DYNAMITE_TRACE_SPAN("engine.fixpoint.round");
      for (const auto& rule : rules) {
        if (!rule->has_idb_body) continue;
        for (size_t k = 0; k < rule->delta_plans.size(); ++k) {
          const auto& range = delta.at(rule->idb_body_relations[k]);
          if (range.first == range.second) continue;
          DYNAMITE_RETURN_NOT_OK(EvalPlan(*rule, rule->delta_plans[k], delta, edb, out));
        }
      }
      any_delta = false;
      for (auto& [name, range] : delta) {
        size_t size = out->Find(name).ValueOrDie()->size();
        range = {range.second, size};
        any_delta = any_delta || range.second > range.first;
      }
    }
    if (iterations > 0) {
      static metrics::Histogram& rounds_hist =
          metrics::GetHistogram("engine.fixpoint.rounds_per_eval");
      rounds_hist.Observe(iterations);
    }
    return Status::OK();
  }

 private:
  /// A plan atom resolved against concrete storage: the relation, its
  /// (possibly shared) incremental index, and the scan bounds [lo, hi).
  struct AtomView {
    const Relation* rel = nullptr;
    const JoinIndex* index = nullptr;  // nullptr => positional full scan
    size_t lo = 0;
    size_t hi = 0;
  };

  /// Fixed-stride interruption poll: counts every join candidate and head
  /// emission, probing the cancel token and deadline every 1024 ticks
  /// regardless of how many tuples are derived (the old check keyed off the
  /// derived count and skipped the clock 1023/1024 of the time). On
  /// interruption fills `*out` — kCancelled beats kTimeout — and returns
  /// true.
  bool Interrupted(Status* out) {
    if (++ticks_ < 1024) return false;
    ticks_ = 0;
    if (cancel_.cancelled()) {
      *out = Status::Cancelled("evaluation cancelled");
      return true;
    }
    if (deadline_.Expired()) {
      *out = Status::Timeout("evaluation timeout");
      return true;
    }
    if (budget_ != nullptr && budget_->exhausted()) {
      *out = budget_->ToStatus("evaluation");
      return true;
    }
    return false;
  }

  /// The matcher's sink: inserts head rows directly into the output
  /// relations (immediate dedup, derived budget checked per successful
  /// insert) and polls interruption once per candidate and per match.
  struct DirectSink {
    Evaluator* ev;
    const CompiledRule* rule;
    const std::vector<Relation*>* head_rels;
    std::vector<Value> head_buf;
    Status status;

    bool Stopped() const { return !status.ok(); }
    bool OnCandidate() { return ev->Interrupted(&status); }

    void OnMatch(const std::vector<Value>& env) {
      for (size_t h = 0; h < rule->heads.size(); ++h) {
        const auto& head = rule->heads[h];
        head_buf.clear();
        for (const Slot& s : head.slots) {
          head_buf.push_back(s.is_const ? s.constant : env[static_cast<size_t>(s.var)]);
        }
        if ((*head_rels)[h]->InsertRow(head_buf.data(), head_buf.size())) {
          if (++ev->derived_ > ev->options_.max_derived_tuples) {
            status = Status::EvalBudget("derived tuple limit exceeded");
            return;
          }
        }
      }
      ev->Interrupted(&status);
    }
  };

  /// Recursive left-to-right matcher over the plan's atom order; each atom
  /// scans its view's range [lo, hi).
  static void MatchPlan(const JoinPlan& plan, const std::vector<AtomView>& views,
                        std::vector<Value>& env, std::vector<std::vector<Value>>& key_bufs,
                        DirectSink& sink) {
    auto match = [&](auto&& self, size_t atom_idx) -> void {
      if (sink.Stopped()) return;
      if (atom_idx == plan.atoms.size()) {
        sink.OnMatch(env);
        return;
      }
      const PlanAtom& pa = plan.atoms[atom_idx];
      const AtomView& v = views[atom_idx];

      // Inspects row `ti` of this atom, reading only the bind/check columns
      // (columnar storage: the other columns are never touched).
      // cell() re-fetches column storage on every read: the sink appends to
      // IDB relations mid-scan, which can reallocate the column vectors
      // (the pre-rewrite engine held references across the append and
      // crashed on recursive programs at bench scale).
      // Returns true when the scan of this atom is done: the row passed the
      // checks of an existence-only atom (see PlanAtom::exists_only).
      auto try_row_at = [&](size_t ti) -> bool {
        if (sink.Stopped()) return false;
        if (sink.OnCandidate()) return false;
        for (size_t p : pa.bind_positions) {
          env[static_cast<size_t>(pa.slots[p].var)] = v.rel->cell(ti, p);
        }
        for (size_t p : pa.check_positions) {
          if (v.rel->cell(ti, p) != env[static_cast<size_t>(pa.slots[p].var)]) return false;
        }
        self(self, atom_idx + 1);
        return pa.exists_only;
      };

      if (v.index == nullptr) {
        for (size_t ti = v.lo; ti < v.hi && !sink.Stopped(); ++ti) {
          if (try_row_at(ti)) return;
        }
      } else {
        std::vector<Value>& key_vals = key_bufs[atom_idx];
        key_vals.clear();
        for (size_t p : pa.key_positions) {
          const Slot& s = pa.slots[p];
          key_vals.push_back(s.is_const ? s.constant : env[static_cast<size_t>(s.var)]);
        }
        const std::vector<uint32_t>* matches =
            v.index->Lookup(*v.rel, key_vals.data(), key_vals.size());
        if (matches == nullptr) return;
        // Posting lists are sorted ascending; restrict to [lo, hi).
        auto it = std::lower_bound(matches->begin(), matches->end(),
                                   static_cast<uint32_t>(v.lo));
        for (; it != matches->end() && *it < v.hi && !sink.Stopped(); ++it) {
          if (try_row_at(*it)) return;
        }
      }
    };
    match(match, 0);
  }

  Status EvalPlan(const CompiledRule& rule, const JoinPlan& plan,
                  const std::map<std::string, std::pair<size_t, size_t>>& delta,
                  const FactDatabase& edb, FactDatabase* out) {
    DYNAMITE_FAILPOINT("engine.plan.entry");
    DYNAMITE_TRACE_SPAN("engine.plan");
    // Resolve views and refresh indexes up front: no index is ever built
    // inside the match loop, and IDB indexes only extend over the suffix
    // added since the previous round.
    std::vector<AtomView> views(plan.atoms.size());
    for (size_t i = 0; i < plan.atoms.size(); ++i) {
      const PlanAtom& pa = plan.atoms[i];
      AtomView& v = views[i];
      if (pa.is_idb) {
        v.rel = out->Find(pa.relation).ValueOrDie();
      } else {
        DYNAMITE_ASSIGN_OR_RETURN(v.rel, edb.Find(pa.relation));
      }
      if (pa.is_delta) {
        auto range = delta.at(pa.relation);
        v.lo = range.first;
        v.hi = range.second;
      } else {
        v.lo = 0;
        v.hi = v.rel->size();
      }
      if (v.lo >= v.hi) return Status::OK();  // no matches possible
      if (!pa.key_positions.empty()) {
        IndexCache& cache = pa.is_idb ? idb_indexes_ : *edb_indexes_;
        v.index = cache.Get(*v.rel, pa.key_positions);
      }
    }

    // Head relations are fixed for the plan; resolve them once, not per
    // emitted tuple (FactDatabase map nodes are stable under insertion).
    std::vector<Relation*> head_rels(rule.heads.size());
    for (size_t i = 0; i < rule.heads.size(); ++i) {
      DYNAMITE_ASSIGN_OR_RETURN(head_rels[i], out->FindMutable(rule.heads[i].relation));
    }

    std::vector<Value> env(static_cast<size_t>(rule.num_slots));
    // Reusable probe-key buffers, one per plan depth (the matcher recurses,
    // so a single shared buffer would be clobbered by deeper atoms): the
    // inner loops allocate nothing.
    std::vector<std::vector<Value>> key_bufs(plan.atoms.size());
    for (size_t i = 0; i < plan.atoms.size(); ++i) {
      key_bufs[i].reserve(plan.atoms[i].key_positions.size());
    }
    DirectSink sink{this, &rule, &head_rels, {}, Status::OK()};
    MatchPlan(plan, views, env, key_bufs, sink);
    return sink.status;
  }

  DatalogEngine::Options options_;
  IndexCache* edb_indexes_;   // persistent across Eval calls (engine-owned)
  IndexCache idb_indexes_;    // per-Eval: IDB relations are fresh each run
  Deadline deadline_;         // options timeout composed with RunContext
  CancelToken cancel_;
  MemoryBudget* budget_ = nullptr;  // run-wide byte budget (may be null)
  size_t derived_ = 0;
  size_t ticks_ = 0;
};

}  // namespace

/// Persistent evaluation state: EDB join indexes and compiled rules reused
/// across Eval calls (see header comment on staleness trade-offs).
struct DatalogEngine::Caches {
  IndexCache edb_indexes;
  /// Entries are mutable (non-const CompiledRule) so a rule's idb_stats can
  /// be recorded after round 0 of its first Eval; the engine is externally
  /// single-threaded, so no locking is needed.
  std::unordered_map<std::string, std::shared_ptr<CompiledRule>> rules;
  /// Times a cached plan was recompiled because its cardinality statistics
  /// drifted ≥4x — EDB drift at cache-hit time or IDB round-0 drift
  /// mid-fixpoint (exposed via DatalogEngine::stats()).
  size_t plan_refreshes = 0;

  static constexpr size_t kMaxRules = 8192;
};

DatalogEngine::Stats DatalogEngine::stats() const {
  Stats s;
  s.plan_refreshes = caches_->plan_refreshes;
  return s;
}

DatalogEngine::DatalogEngine() : DatalogEngine(Options()) {}
DatalogEngine::DatalogEngine(Options options)
    : options_(options), caches_(std::make_unique<Caches>()) {}
DatalogEngine::~DatalogEngine() = default;
DatalogEngine::DatalogEngine(DatalogEngine&&) noexcept = default;
DatalogEngine& DatalogEngine::operator=(DatalogEngine&&) noexcept = default;

Result<FactDatabase> DatalogEngine::Eval(
    const Program& program, const FactDatabase& edb,
    const std::map<std::string, std::vector<std::string>>& idb_signatures,
    const RunContext* ctx) const {
  // One byte budget per run: the RunContext's if the caller installed one
  // (a Session run sharing the budget across stages), else a per-Eval one
  // from Options::max_memory_bytes.
  MemoryBudget* budget = ctx != nullptr ? ctx->memory : nullptr;
  std::unique_ptr<MemoryBudget> local_budget;
  if (budget == nullptr && options_.max_memory_bytes > 0) {
    local_budget = std::make_unique<MemoryBudget>(options_.max_memory_bytes);
    budget = local_budget.get();
  }
  // Installed for the whole evaluation: compile, index refresh and match.
  MemoryBudgetScope mem_scope(budget);
  // Crash-free boundary: a bad_alloc (real or injected) or an InjectedError
  // from a throwing failpoint site anywhere below becomes a typed Status.
  return failpoint::GuardExceptions(
      "datalog evaluation", [&]() -> Result<FactDatabase> {
        return EvalImpl(program, edb, idb_signatures, ctx, budget);
      });
}

Result<FactDatabase> DatalogEngine::EvalImpl(
    const Program& program, const FactDatabase& edb,
    const std::map<std::string, std::vector<std::string>>& idb_signatures,
    const RunContext* ctx, MemoryBudget* budget) const {
  DYNAMITE_FAILPOINT("engine.compile");
  DYNAMITE_TRACE_SPAN("engine.eval");
  trace::Span compile_span("engine.compile");
  std::set<std::string> idb;
  std::string idb_key;
  for (const auto& [name, attrs] : idb_signatures) {
    idb.insert(name);
    idb_key += name;
    idb_key += ',';
  }

  // Validate heads against signatures and body atoms against storage.
  for (const Rule& rule : program.rules) {
    DYNAMITE_RETURN_NOT_OK(rule.Validate());
    for (const Atom& h : rule.heads) {
      auto it = idb_signatures.find(h.relation);
      if (it == idb_signatures.end()) {
        return Status::InvalidArgument("head relation " + h.relation +
                                       " missing from IDB signatures");
      }
      if (it->second.size() != h.terms.size()) {
        return Status::InvalidArgument("arity mismatch for head relation " + h.relation);
      }
    }
    for (const Atom& b : rule.body) {
      if (idb.count(b.relation) > 0) {
        if (idb_signatures.at(b.relation).size() != b.terms.size()) {
          return Status::InvalidArgument("arity mismatch for IDB body relation " +
                                         b.relation);
        }
      } else {
        DYNAMITE_ASSIGN_OR_RETURN(const Relation* rel, edb.Find(b.relation));
        if (rel->arity() != b.terms.size()) {
          return Status::InvalidArgument("arity mismatch for body relation " + b.relation +
                                         " (expected " + std::to_string(rel->arity()) +
                                         " got " + std::to_string(b.terms.size()) + ")");
        }
      }
    }
  }

  // Compile (or fetch cached) rules.
  std::vector<std::shared_ptr<CompiledRule>> rules;
  rules.reserve(program.rules.size());
  for (const Rule& rule : program.rules) {
    if (options_.cache_compiled_rules) {
      std::string key = RuleCacheKey(rule, idb_key);
      auto it = caches_->rules.find(key);
      if (it != caches_->rules.end()) {
        // Statistics refresh: a cached join order chosen against very
        // different relation sizes can be arbitrarily bad. Re-plan when any
        // EDB body cardinality drifted ≥4x; stale plans are only a
        // performance hazard, so the check is skipped when reordering is
        // off (the plan would come out identical). The IDB half of the
        // check has to wait for round-0 sizes — see Evaluator::Run and the
        // refresh_idb callback below.
        if (options_.reorder_joins && PlanIsStale(*it->second, edb)) {
          DYNAMITE_ASSIGN_OR_RETURN(CompiledRule cr,
                                    CompileRule(rule, idb, edb, options_.reorder_joins));
          it->second = std::make_shared<CompiledRule>(std::move(cr));
          ++caches_->plan_refreshes;
          DYNAMITE_METRIC_INC("engine.plan_refreshes");
        }
        rules.push_back(it->second);
        continue;
      }
      DYNAMITE_ASSIGN_OR_RETURN(CompiledRule cr,
                                CompileRule(rule, idb, edb, options_.reorder_joins));
      if (caches_->rules.size() >= Caches::kMaxRules) caches_->rules.clear();
      auto shared = std::make_shared<CompiledRule>(std::move(cr));
      caches_->rules.emplace(std::move(key), shared);
      rules.push_back(std::move(shared));
    } else {
      DYNAMITE_ASSIGN_OR_RETURN(CompiledRule cr,
                                CompileRule(rule, idb, edb, options_.reorder_joins));
      rules.push_back(std::make_shared<CompiledRule>(std::move(cr)));
    }
  }

  // Mid-fixpoint replan hook for the IDB statistics refresh: recompile the
  // rule with observed round-0 IDB sizes in place of the kIdbCardinality
  // guess, and swap the cache entry so later Evals inherit the new plan.
  // Disabled (like the EDB check) when reordering is off — the plan would
  // come out identical — or when rules are not cached (no stats survive to
  // drift against).
  IdbRefreshFn refresh_idb;
  if (options_.cache_compiled_rules && options_.reorder_joins) {
    refresh_idb = [this, &program, &idb, &edb, &idb_key](
                      size_t rule_index, const std::map<std::string, size_t>& idb_sizes)
        -> Result<std::shared_ptr<CompiledRule>> {
      const Rule& rule = program.rules[rule_index];
      DYNAMITE_ASSIGN_OR_RETURN(
          CompiledRule cr, CompileRule(rule, idb, edb, /*reorder=*/true, &idb_sizes));
      auto shared = std::make_shared<CompiledRule>(std::move(cr));
      auto it = caches_->rules.find(RuleCacheKey(rule, idb_key));
      if (it != caches_->rules.end()) it->second = shared;
      ++caches_->plan_refreshes;
      DYNAMITE_METRIC_INC("engine.plan_refreshes");
      return shared;
    };
  }

  compile_span.End();
  FactDatabase out;
  caches_->edb_indexes.MaybeEvict();  // safe here: no plan holds index pointers
  Evaluator evaluator(options_, &caches_->edb_indexes, ctx, budget);
  DYNAMITE_RETURN_NOT_OK(evaluator.Run(rules, edb, idb_signatures, &out, refresh_idb));
  return out;
}

Result<FactDatabase> DatalogEngine::EvalAutoSignatures(const Program& program,
                                                       const FactDatabase& edb,
                                                       const RunContext* ctx) const {
  std::map<std::string, std::vector<std::string>> sigs;
  for (const Rule& rule : program.rules) {
    for (const Atom& h : rule.heads) {
      if (sigs.count(h.relation) > 0) {
        if (sigs[h.relation].size() != h.terms.size()) {
          return Status::InvalidArgument("inconsistent arity for relation " + h.relation);
        }
        continue;
      }
      std::vector<std::string> attrs;
      for (size_t i = 0; i < h.terms.size(); ++i) attrs.push_back("c" + std::to_string(i));
      sigs[h.relation] = std::move(attrs);
    }
  }
  return Eval(program, edb, sigs, ctx);
}

}  // namespace dynamite
