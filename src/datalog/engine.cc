#include "datalog/engine.h"

#include <algorithm>

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
  const Relation* rel = nullptr;  // the EDB relation read; fixed for the Eval
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

/// A rule compiled to one join plan over its whole body. A compiled rule
/// lives for one Eval and reads that Eval's EDB.
struct CompiledRule {
  struct Head {
    const std::string* relation = nullptr;  // names live in the evaluated Program
    std::vector<Slot> slots;
  };
  std::vector<Head> heads;
  int num_slots = 0;
  JoinPlan plan;
};

/// Uncompiled body atom with its variable slots resolved.
struct RawAtom {
  const Relation* edb = nullptr;  // the EDB relation read
  std::vector<Slot> slots;
};

/// A set of variable slots, indexed by slot number. Rules have a handful of
/// variables, so a flag per slot beats a node-based set: every Eval compiles
/// its rules, and on small inputs compiling is a visible share of the call.
using SlotSet = std::vector<bool>;

/// Builds the PlanAtom sequence for the given atom order. Key, check, and
/// bind positions depend on which variables earlier atoms bound, and an
/// atom's existence-only flag on which variables later atoms and the heads
/// (`head_vars`) read.
JoinPlan MakePlan(const std::vector<RawAtom>& raws, const std::vector<size_t>& order,
                  const SlotSet& head_vars) {
  JoinPlan plan;
  plan.atoms.reserve(order.size());
  // The plan position of the atom that binds each slot; -1 while unbound.
  std::vector<int> bound_at(head_vars.size(), -1);
  for (size_t ai : order) {
    const RawAtom& raw = raws[ai];
    const int here = static_cast<int>(plan.atoms.size());
    PlanAtom pa;
    pa.rel = raw.edb;
    pa.slots = raw.slots;
    for (size_t i = 0; i < pa.slots.size(); ++i) {
      const Slot& s = pa.slots[i];
      if (s.is_wildcard) continue;
      if (s.is_const) {
        pa.key_positions.push_back(i);
        continue;
      }
      int& at = bound_at[static_cast<size_t>(s.var)];
      if (at < 0) {
        pa.bind_positions.push_back(i);
        at = here;
      } else if (at == here) {
        pa.check_positions.push_back(i);
      } else {
        pa.key_positions.push_back(i);
      }
    }
    plan.atoms.push_back(std::move(pa));
  }
  // Walk the plan backwards: `live` holds the variables read after atom k.
  SlotSet live = head_vars;
  for (size_t k = plan.atoms.size(); k-- > 0;) {
    PlanAtom& pa = plan.atoms[k];
    pa.exists_only = std::none_of(pa.bind_positions.begin(), pa.bind_positions.end(),
                                  [&](size_t p) { return live[pa.slots[p].var]; });
    for (const Slot& s : pa.slots) {
      if (!s.is_const && !s.is_wildcard) live[s.var] = true;
    }
  }
  return plan;
}

/// Greedy join order. Each step places one of the atoms not yet placed:
/// the one with the most bound positions (its constants and the variables
/// of the atoms already placed, the key it will be probed on), then the one
/// over the smaller relation, then the earlier one in the body.
std::vector<size_t> SelectivityOrder(const std::vector<RawAtom>& raws, size_t num_slots) {
  std::vector<size_t> order;
  order.reserve(raws.size());
  SlotSet bound(num_slots, false);
  std::vector<bool> used(raws.size(), false);
  while (order.size() < raws.size()) {
    size_t best = raws.size();
    size_t best_keys = 0;
    for (size_t ai = 0; ai < raws.size(); ++ai) {
      if (used[ai]) continue;
      size_t keys = 0;
      for (const Slot& s : raws[ai].slots) {
        if (s.is_const || (!s.is_wildcard && bound[s.var])) ++keys;
      }
      if (best == raws.size() || keys > best_keys ||
          (keys == best_keys && raws[ai].edb->size() < raws[best].edb->size())) {
        best = ai;
        best_keys = keys;
      }
    }
    used[best] = true;
    order.push_back(best);
    for (const Slot& s : raws[best].slots) {
      if (!s.is_const && !s.is_wildcard) bound[s.var] = true;
    }
  }
  return order;
}

std::vector<size_t> IdentityOrder(size_t n) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

/// Compiles `rule` into one join plan over `edb`, its atoms in
/// SelectivityOrder when `reorder` is set and as written otherwise. The
/// rule must have passed EvalImpl's checks: every head term is a constant
/// or a variable of the body, and every body atom names an EDB relation of
/// its arity.
CompiledRule CompileRule(const Rule& rule, const FactDatabase& edb, bool reorder) {
  CompiledRule out;
  // Variable names in slot order; a rule has few, so a linear scan is the
  // cheapest lookup.
  std::vector<const std::string*> slot_names;
  auto slot_of = [&](const std::string& v) {
    for (size_t s = 0; s < slot_names.size(); ++s) {
      if (*slot_names[s] == v) return static_cast<int>(s);
    }
    slot_names.push_back(&v);
    return static_cast<int>(slot_names.size() - 1);
  };

  std::vector<RawAtom> raws;
  raws.reserve(rule.body.size());
  for (const Atom& atom : rule.body) {
    RawAtom raw;
    raw.edb = edb.Find(atom.relation).ValueOrDie();
    raw.slots.reserve(atom.terms.size());
    for (const Term& t : atom.terms) {
      Slot s;
      if (t.is_constant()) {
        s.is_const = true;
        s.constant = t.constant();
      } else if (t.is_wildcard()) {
        s.is_wildcard = true;
      } else {
        s.var = slot_of(t.var());
      }
      raw.slots.push_back(s);
    }
    raws.push_back(std::move(raw));
  }

  const size_t num_slots = slot_names.size();
  SlotSet head_vars(num_slots, false);
  out.heads.reserve(rule.heads.size());
  for (const Atom& h : rule.heads) {
    CompiledRule::Head head;
    head.relation = &h.relation;
    head.slots.reserve(h.terms.size());
    for (const Term& t : h.terms) {
      Slot s;
      if (t.is_constant()) {
        s.is_const = true;
        s.constant = t.constant();
      } else {
        s.var = slot_of(t.var());
        head_vars[s.var] = true;
      }
      head.slots.push_back(s);
    }
    out.heads.push_back(std::move(head));
  }
  out.num_slots = static_cast<int>(num_slots);

  out.plan = MakePlan(raws,
                      reorder ? SelectivityOrder(raws, num_slots) : IdentityOrder(raws.size()),
                      head_vars);
  return out;
}

class Evaluator {
 public:
  /// `ctx` (may be null) supplies the deadline, cancel token and byte
  /// budget, all polled at the same stride.
  Evaluator(const DatalogEngine::Options& options, const RunContext* ctx)
      : options_(options),
        deadline_(Deadline::Earliest(
            Deadline::AfterOrInfinite(options.timeout_seconds),
            ctx != nullptr ? ctx->deadline : Deadline::Infinite())),
        cancel_(ctx != nullptr ? ctx->cancel : CancelToken()),
        budget_(ctx != nullptr ? ctx->memory : nullptr) {}

  Status Run(const std::vector<CompiledRule>& rules,
             const std::map<std::string, std::vector<std::string>>& idb_sigs,
             FactDatabase* out) {
    for (const auto& [name, attrs] : idb_sigs) {
      DYNAMITE_ASSIGN_OR_RETURN(Relation * rel, out->DeclareRelation(name, attrs));
      (void)rel;
    }

    // One pass: bodies read only the EDB, so each rule's plan runs once.
    DYNAMITE_TRACE_SPAN("engine.pass0");
    for (const CompiledRule& rule : rules) DYNAMITE_RETURN_NOT_OK(EvalPlan(rule, out));
    return Status::OK();
  }

  /// Join candidates the matcher inspected in this Eval.
  size_t candidates() const { return candidates_; }

 private:
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
    const std::vector<Relation*>& head_rels;
    std::vector<Value> head_buf;
    Status status;

    bool Stopped() const { return !status.ok(); }
    bool OnCandidate() {
      ++ev->candidates_;
      return ev->Interrupted(&status);
    }

    void OnMatch(const std::vector<Value>& env) {
      for (size_t h = 0; h < rule->heads.size(); ++h) {
        const auto& head = rule->heads[h];
        head_buf.clear();
        for (const Slot& s : head.slots) {
          head_buf.push_back(s.is_const ? s.constant : env[static_cast<size_t>(s.var)]);
        }
        if (head_rels[h]->InsertRow(head_buf.data(), head_buf.size())) {
          if (++ev->derived_ > ev->options_.max_derived_tuples) {
            status = Status::EvalBudget("derived tuple limit exceeded");
            return;
          }
        }
      }
      ev->Interrupted(&status);
    }
  };

  /// Recursive left-to-right matcher over the plan's atom order. An atom
  /// with an index (`indexes[i]`, parallel to the plan's atoms) reads the
  /// posting list of its bound key; one without scans its whole relation.
  static void MatchPlan(const JoinPlan& plan, const std::vector<const JoinIndex*>& indexes,
                        std::vector<Value>& env, std::vector<std::vector<Value>>& key_bufs,
                        DirectSink& sink) {
    auto match = [&](auto&& self, size_t atom_idx) -> void {
      if (sink.Stopped()) return;
      if (atom_idx == plan.atoms.size()) {
        sink.OnMatch(env);
        return;
      }
      const PlanAtom& pa = plan.atoms[atom_idx];
      const Relation& rel = *pa.rel;

      // Inspects row `ti` of this atom, reading only the bind/check columns
      // (columnar storage: the other columns are never touched).
      // Returns true when the scan of this atom is done: the row passed the
      // checks of an existence-only atom (see PlanAtom::exists_only).
      auto try_row_at = [&](size_t ti) -> bool {
        if (sink.Stopped()) return false;
        if (sink.OnCandidate()) return false;
        for (size_t p : pa.bind_positions) {
          env[static_cast<size_t>(pa.slots[p].var)] = rel.cell(ti, p);
        }
        for (size_t p : pa.check_positions) {
          if (rel.cell(ti, p) != env[static_cast<size_t>(pa.slots[p].var)]) return false;
        }
        self(self, atom_idx + 1);
        return pa.exists_only;
      };

      const JoinIndex* index = indexes[atom_idx];
      if (index == nullptr) {
        for (size_t ti = 0; ti < rel.size() && !sink.Stopped(); ++ti) {
          if (try_row_at(ti)) return;
        }
      } else {
        std::vector<Value>& key_vals = key_bufs[atom_idx];
        key_vals.clear();
        for (size_t p : pa.key_positions) {
          const Slot& s = pa.slots[p];
          key_vals.push_back(s.is_const ? s.constant : env[static_cast<size_t>(s.var)]);
        }
        PostingList matches = index->Lookup(rel, key_vals.data(), key_vals.size());
        for (auto it = matches.begin(); it != matches.end() && !sink.Stopped(); ++it) {
          if (try_row_at(*it)) return;
        }
      }
    };
    match(match, 0);
  }

  /// Matches `rule`'s plan, inserting head rows into `out`.
  Status EvalPlan(const CompiledRule& rule, FactDatabase* out) {
    const JoinPlan& plan = rule.plan;
    DYNAMITE_FAILPOINT("engine.plan.entry");
    DYNAMITE_TRACE_SPAN("engine.plan");
    // Build every index the plan probes up front: no index is ever built
    // inside the match loop.
    std::vector<const JoinIndex*> indexes(plan.atoms.size());
    for (size_t i = 0; i < plan.atoms.size(); ++i) {
      const PlanAtom& pa = plan.atoms[i];
      if (pa.rel->size() == 0) return Status::OK();  // no matches possible
      if (!pa.key_positions.empty()) {
        indexes[i] = &indexes_[pa.rel].try_emplace(pa.key_positions, *pa.rel, pa.key_positions)
                          .first->second;
      }
    }

    // Head relations are fixed for the plan; resolve them once, not per
    // emitted tuple (FactDatabase map nodes are stable under insertion).
    std::vector<Relation*> head_rels(rule.heads.size());
    for (size_t i = 0; i < rule.heads.size(); ++i) {
      DYNAMITE_ASSIGN_OR_RETURN(head_rels[i], out->FindMutable(*rule.heads[i].relation));
    }

    std::vector<Value> env(static_cast<size_t>(rule.num_slots));
    // Reusable probe-key buffers, one per plan depth (the matcher recurses,
    // so a single shared buffer would be clobbered by deeper atoms): the
    // inner loops allocate nothing.
    std::vector<std::vector<Value>> key_bufs(plan.atoms.size());
    for (size_t i = 0; i < plan.atoms.size(); ++i) {
      key_bufs[i].reserve(plan.atoms[i].key_positions.size());
    }
    DirectSink sink{this, &rule, head_rels, {}, Status::OK()};
    MatchPlan(plan, indexes, env, key_bufs, sink);
    return sink.status;
  }

  DatalogEngine::Options options_;
  // Every join index of this Eval, by relation, then by key positions. Each
  // indexed relation is an EDB relation, unchanged for the whole call, and
  // so is its address (the EDB is const); map nodes keep each JoinIndex in
  // place while later plans add entries.
  std::map<const Relation*, std::map<std::vector<size_t>, JoinIndex>> indexes_;
  Deadline deadline_;         // options timeout composed with RunContext
  CancelToken cancel_;
  MemoryBudget* budget_ = nullptr;  // run-wide byte budget (may be null)
  size_t derived_ = 0;
  size_t ticks_ = 0;
  size_t candidates_ = 0;  // running total; ticks_ restarts every 1024
};

}  // namespace

Result<FactDatabase> DatalogEngine::Eval(
    const Program& program, const FactDatabase& edb,
    const std::map<std::string, std::vector<std::string>>& idb_signatures,
    const RunContext* ctx) const {
  // The caller's byte budget (a Session run shares one across its stages),
  // installed for the whole evaluation: compile, index refresh and match.
  MemoryBudgetScope mem_scope(ctx != nullptr ? ctx->memory : nullptr);
  // Crash-free boundary: a bad_alloc (real or injected) or an InjectedError
  // from a throwing failpoint site anywhere below becomes a typed Status.
  return failpoint::GuardExceptions(
      "datalog evaluation", [&]() -> Result<FactDatabase> {
        return EvalImpl(program, edb, idb_signatures, ctx);
      });
}

Result<FactDatabase> DatalogEngine::EvalImpl(
    const Program& program, const FactDatabase& edb,
    const std::map<std::string, std::vector<std::string>>& idb_signatures,
    const RunContext* ctx) const {
  DYNAMITE_FAILPOINT("engine.compile");
  DYNAMITE_TRACE_SPAN("engine.eval");
  trace::Span compile_span("engine.compile");
  // Validate heads against signatures and body atoms against the EDB.
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
      auto rel = edb.Find(b.relation);
      if (!rel.ok()) {
        return Status::InvalidArgument("body relation " + b.relation +
                                       " is not an EDB relation: rule bodies read "
                                       "only the source facts");
      }
      if (rel.ValueOrDie()->arity() != b.terms.size()) {
        return Status::InvalidArgument(
            "arity mismatch for body relation " + b.relation + " (expected " +
            std::to_string(rel.ValueOrDie()->arity()) + " got " +
            std::to_string(b.terms.size()) + ")");
      }
    }
  }

  std::vector<CompiledRule> rules;
  rules.reserve(program.rules.size());
  for (const Rule& rule : program.rules) {
    rules.push_back(CompileRule(rule, edb, options_.reorder_joins));
  }

  compile_span.End();
  FactDatabase out;
  Evaluator evaluator(options_, ctx);
  const Status status = evaluator.Run(rules, idb_signatures, &out);
  DYNAMITE_METRIC_ADD("engine.join_candidates", evaluator.candidates());
  DYNAMITE_RETURN_NOT_OK(status);
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
