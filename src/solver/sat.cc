#include "solver/sat.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/mem_budget.h"

namespace dynamite {
namespace sat {

Var SatSolver::NewVar() {
  Var v = NumVars();
  assigns_.push_back(LBool::kUndef);
  model_.push_back(LBool::kUndef);
  saved_phase_.push_back(false);
  level_.push_back(0);
  reason_.push_back(-1);
  activity_.push_back(0);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_pos_.push_back(-1);
  HeapInsert(v);
  return v;
}

void SatSolver::HeapInsert(Var v) {
  if (HeapContains(v)) return;
  heap_pos_[static_cast<size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  HeapPercolateUp(heap_.size() - 1);
}

void SatSolver::HeapPercolateUp(size_t i) {
  Var v = heap_[i];
  double act = activity_[static_cast<size_t>(v)];
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (activity_[static_cast<size_t>(heap_[parent])] >= act) break;
    heap_[i] = heap_[parent];
    heap_pos_[static_cast<size_t>(heap_[i])] = static_cast<int>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[static_cast<size_t>(v)] = static_cast<int>(i);
}

void SatSolver::HeapPercolateDown(size_t i) {
  Var v = heap_[i];
  double act = activity_[static_cast<size_t>(v)];
  for (;;) {
    size_t left = 2 * i + 1;
    if (left >= heap_.size()) break;
    size_t right = left + 1;
    size_t best = (right < heap_.size() &&
                   activity_[static_cast<size_t>(heap_[right])] >
                       activity_[static_cast<size_t>(heap_[left])])
                      ? right
                      : left;
    if (activity_[static_cast<size_t>(heap_[best])] <= act) break;
    heap_[i] = heap_[best];
    heap_pos_[static_cast<size_t>(heap_[i])] = static_cast<int>(i);
    i = best;
  }
  heap_[i] = v;
  heap_pos_[static_cast<size_t>(v)] = static_cast<int>(i);
}

Var SatSolver::HeapPopMax() {
  if (heap_.empty()) return -1;
  Var top = heap_[0];
  heap_pos_[static_cast<size_t>(top)] = -1;
  Var last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_pos_[static_cast<size_t>(last)] = 0;
    HeapPercolateDown(0);
  }
  return top;
}

bool SatSolver::AddClause(std::vector<Lit> lits) {
  if (unsat_) return false;
  // Adding clauses mid-search would corrupt the trail invariants in ways
  // that surface as wrong models, not crashes — enforce in release too.
  DYNAMITE_CHECK(DecisionLevel() == 0,
                 "AddClause outside the root decision level");
  // Normalize: sort, dedupe, drop false lits, detect tautology/satisfied.
  std::sort(lits.begin(), lits.end());
  std::vector<Lit> out;
  Lit prev{-2};
  for (Lit l : lits) {
    DYNAMITE_CHECK(VarOf(l) >= 0 && VarOf(l) < NumVars(),
                   "clause literal over an unallocated variable");
    if (l == prev) continue;
    if (l == Negate(prev)) return true;  // tautology: x ∨ ¬x
    LBool v = ValueLit(l);
    if (v == LBool::kTrue) return true;  // already satisfied at level 0
    if (v == LBool::kFalse) {
      prev = l;
      continue;  // literal permanently false at level 0: drop
    }
    out.push_back(l);
    prev = l;
  }
  if (out.empty()) {
    unsat_ = true;
    return false;
  }
  if (out.size() == 1) {
    Enqueue(out[0], -1);
    if (Propagate() != -1) {
      unsat_ = true;
      return false;
    }
    return true;
  }
  AttachClause(PushClause(std::move(out)));
  return true;
}

int SatSolver::PushClause(std::vector<Lit> lits) {
  MemoryBudget::ChargeCurrent(sizeof(Clause) + lits.size() * sizeof(Lit) +
                              2 * sizeof(Watcher));
  clauses_.push_back(Clause{std::move(lits)});
  return static_cast<int>(clauses_.size()) - 1;
}

void SatSolver::AttachClause(int ci) {
  const Clause& c = clauses_[static_cast<size_t>(ci)];
  DYNAMITE_DCHECK(c.lits.size() >= 2);
  watches_[static_cast<size_t>(Negate(c.lits[0]).x)].push_back(Watcher{ci, c.lits[1]});
  watches_[static_cast<size_t>(Negate(c.lits[1]).x)].push_back(Watcher{ci, c.lits[0]});
}

void SatSolver::Enqueue(Lit l, int reason) {
  DYNAMITE_DCHECK(ValueLit(l) == LBool::kUndef);
  assigns_[static_cast<size_t>(VarOf(l))] = SignOf(l) ? LBool::kFalse : LBool::kTrue;
  level_[static_cast<size_t>(VarOf(l))] = DecisionLevel();
  reason_[static_cast<size_t>(VarOf(l))] = reason;
  trail_.push_back(l);
}

int SatSolver::Propagate() {
  while (qhead_ < trail_.size()) {
    Lit p = trail_[qhead_++];
    ++propagations_;
    std::vector<Watcher>& ws = watches_[static_cast<size_t>(p.x)];
    size_t i = 0, j = 0;
    while (i < ws.size()) {
      Watcher w = ws[i];
      if (ValueLit(w.blocker) == LBool::kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      Clause& c = clauses_[static_cast<size_t>(w.clause)];
      if (c.lits.empty()) {  // removed at the root: drop the stale watcher
        ++i;
        continue;
      }
      // Ensure c.lits[1] is the false literal (¬p).
      Lit false_lit = Negate(p);
      if (c.lits[0] == false_lit) std::swap(c.lits[0], c.lits[1]);
      DYNAMITE_DCHECK(c.lits[1] == false_lit);
      // If first literal is true, clause is satisfied.
      if (ValueLit(c.lits[0]) == LBool::kTrue) {
        ws[j++] = Watcher{w.clause, c.lits[0]};
        ++i;
        continue;
      }
      // Look for a new literal to watch.
      bool found = false;
      for (size_t k = 2; k < c.lits.size(); ++k) {
        if (ValueLit(c.lits[k]) != LBool::kFalse) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[static_cast<size_t>(Negate(c.lits[1]).x)].push_back(
              Watcher{w.clause, c.lits[0]});
          found = true;
          break;
        }
      }
      if (found) {
        ++i;
        continue;
      }
      // Clause is unit or conflicting.
      if (ValueLit(c.lits[0]) == LBool::kFalse) {
        // Conflict: copy remaining watchers and report.
        while (i < ws.size()) ws[j++] = ws[i++];
        ws.resize(j);
        qhead_ = trail_.size();
        return w.clause;
      }
      ws[j++] = ws[i++];
      Enqueue(c.lits[0], w.clause);
    }
    ws.resize(j);
  }
  return -1;
}

void SatSolver::Analyze(int conflict, std::vector<Lit>* learnt, int* backtrack_level) {
  learnt->clear();
  learnt->push_back(Lit{-2});  // placeholder for the asserting literal

  int counter = 0;
  Lit p{-2};
  size_t trail_index = trail_.size();
  int ci = conflict;

  do {
    const Clause& c = clauses_[static_cast<size_t>(ci)];
    // Skip c.lits[0] on continuation rounds (it equals p).
    for (size_t k = (p.x == -2 ? 0 : 1); k < c.lits.size(); ++k) {
      Lit q = c.lits[k];
      Var v = VarOf(q);
      if (seen_[static_cast<size_t>(v)] == 0 && level_[static_cast<size_t>(v)] > 0) {
        seen_[static_cast<size_t>(v)] = 1;
        BumpVar(v);
        if (level_[static_cast<size_t>(v)] >= DecisionLevel()) {
          ++counter;
        } else {
          learnt->push_back(q);
        }
      }
    }
    // Select next literal to expand from the trail.
    while (seen_[static_cast<size_t>(VarOf(trail_[trail_index - 1]))] == 0) {
      --trail_index;
    }
    --trail_index;
    p = trail_[trail_index];
    seen_[static_cast<size_t>(VarOf(p))] = 0;
    ci = reason_[static_cast<size_t>(VarOf(p))];
    --counter;
  } while (counter > 0);
  (*learnt)[0] = Negate(p);

  // Compute backtrack level (second-highest level in the clause).
  if (learnt->size() == 1) {
    *backtrack_level = 0;
  } else {
    size_t max_i = 1;
    for (size_t i = 2; i < learnt->size(); ++i) {
      if (level_[static_cast<size_t>(VarOf((*learnt)[i]))] >
          level_[static_cast<size_t>(VarOf((*learnt)[max_i]))]) {
        max_i = i;
      }
    }
    std::swap((*learnt)[1], (*learnt)[max_i]);
    *backtrack_level = level_[static_cast<size_t>(VarOf((*learnt)[1]))];
  }
  for (Lit l : *learnt) seen_[static_cast<size_t>(VarOf(l))] = 0;
}

void SatSolver::Backtrack(int target_level) {
  if (DecisionLevel() <= target_level) return;
  size_t bound = static_cast<size_t>(trail_lim_[static_cast<size_t>(target_level)]);
  for (size_t i = trail_.size(); i > bound; --i) {
    Var v = VarOf(trail_[i - 1]);
    saved_phase_[static_cast<size_t>(v)] = assigns_[static_cast<size_t>(v)] == LBool::kTrue;
    assigns_[static_cast<size_t>(v)] = LBool::kUndef;
    reason_[static_cast<size_t>(v)] = -1;
    HeapInsert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(static_cast<size_t>(target_level));
  qhead_ = trail_.size();
}

Lit SatSolver::Decide() {
  for (;;) {
    Var v = HeapPopMax();
    if (v < 0) return Lit{-2};
    if (ValueVar(v) == LBool::kUndef) {
      return MkLit(v, !saved_phase_[static_cast<size_t>(v)]);
    }
  }
}

void SatSolver::BumpVar(Var v) {
  activity_[static_cast<size_t>(v)] += var_inc_;
  if (activity_[static_cast<size_t>(v)] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
    // Rescaling preserves the heap order; no rebuild needed.
  }
  if (HeapContains(v)) {
    HeapPercolateUp(static_cast<size_t>(heap_pos_[static_cast<size_t>(v)]));
  }
}

void SatSolver::DecayActivities() { var_inc_ /= 0.95; }

void SatSolver::RemoveRootSatisfied() {
  DYNAMITE_DCHECK(DecisionLevel() == 0);
  for (; root_simplified_ < trail_.size(); ++root_simplified_) {
    // Every clause watched in watches_[¬l] watches l, which is now true for
    // good: the clause is satisfied, and ¬l never reaches the trail again.
    std::vector<Watcher>& ws =
        watches_[static_cast<size_t>(Negate(trail_[root_simplified_]).x)];
    for (const Watcher& w : ws) {
      Clause& c = clauses_[static_cast<size_t>(w.clause)];
      if (c.lits.empty()) continue;  // already removed through its other watch
      std::vector<Lit>().swap(c.lits);
      ++num_dead_;
    }
    std::vector<Watcher>().swap(ws);
  }
  if (num_dead_ * 2 > clauses_.size()) CompactClauses();
}

void SatSolver::CompactClauses() {
  std::vector<int> remap(clauses_.size(), -1);
  size_t live = 0;
  for (size_t i = 0; i < clauses_.size(); ++i) {
    if (clauses_[i].lits.empty()) continue;
    remap[i] = static_cast<int>(live);
    if (live != i) clauses_[live] = std::move(clauses_[i]);
    ++live;
  }
  clauses_.resize(live);
  for (std::vector<Watcher>& ws : watches_) {
    size_t j = 0;
    for (const Watcher& w : ws) {
      int to = remap[static_cast<size_t>(w.clause)];
      if (to >= 0) ws[j++] = Watcher{to, w.blocker};
    }
    ws.resize(j);
  }
  // Only root assignments are left, and Analyze never reads a root reason.
  for (Lit l : trail_) reason_[static_cast<size_t>(VarOf(l))] = -1;
  num_dead_ = 0;
}

bool SatSolver::ModelSatisfiesClauses() const {
  auto satisfied = [this](Lit l) {
    return Flip(model_[static_cast<size_t>(VarOf(l))], SignOf(l)) == LBool::kTrue;
  };
  for (const Clause& c : clauses_) {
    if (!c.lits.empty() && std::none_of(c.lits.begin(), c.lits.end(), satisfied)) {
      return false;
    }
  }
  return std::all_of(trail_.begin(), trail_.end(), satisfied);
}

int64_t SatSolver::Luby(int64_t i) {
  // Finds the i-th element (1-based) of the Luby sequence 1 1 2 1 1 2 4 ...
  int64_t k = 1;
  while ((1LL << (k + 1)) - 1 <= i) ++k;
  while (i != (1LL << k) - 1) {
    i = i - (1LL << k) + 1;
    k = 1;
    while ((1LL << (k + 1)) - 1 <= i) ++k;
  }
  return 1LL << (k - 1);
}

SatSolver::Outcome SatSolver::Solve(int64_t conflict_budget) {
  if (unsat_) return Outcome::kUnsat;
  Backtrack(0);
  if (Propagate() != -1) {
    unsat_ = true;
    return Outcome::kUnsat;
  }
  RemoveRootSatisfied();

  int64_t restart_round = 1;
  int64_t conflicts_until_restart = Luby(restart_round) * 128;
  int64_t budget_used = 0;
  std::vector<Lit> learnt;

  for (;;) {
    int conflict = Propagate();
    if (conflict != -1) {
      ++conflicts_;
      ++budget_used;
      if (DecisionLevel() == 0) {
        unsat_ = true;
        return Outcome::kUnsat;
      }
      int backtrack_level = 0;
      Analyze(conflict, &learnt, &backtrack_level);
      Backtrack(backtrack_level);
      if (learnt.size() == 1) {
        Enqueue(learnt[0], -1);
      } else {
        int ci = PushClause(learnt);
        AttachClause(ci);
        Enqueue(learnt[0], ci);
      }
      DecayActivities();
      if (--conflicts_until_restart <= 0) {
        ++restart_round;
        conflicts_until_restart = Luby(restart_round) * 128;
        Backtrack(0);
      }
      if (conflict_budget >= 0 && budget_used >= conflict_budget) {
        Backtrack(0);
        return Outcome::kUnknown;
      }
    } else {
      Lit next = Decide();
      if (next.x == -2) {
        // All variables assigned: model found.
        model_ = assigns_;
        Backtrack(0);
        DYNAMITE_DCHECK(ModelSatisfiesClauses(), "model violates a live clause or root literal");
        return Outcome::kSat;
      }
      ++decisions_;
      trail_lim_.push_back(static_cast<int>(trail_.size()));
      Enqueue(next, -1);
    }
  }
}

}  // namespace sat
}  // namespace dynamite
