// A CDCL (conflict-driven clause learning) SAT solver.
//
// This is the propositional core of the SMT substrate. The paper uses Z3,
// but every sketch hole ranges over a finite set of variables or constants,
// so the sketch formulas are finite-domain and a CDCL solver over a direct
// one-hot encoding (solver/fd.h) decides the same formulas. Features: two-watched-literal propagation, first-UIP
// clause learning, VSIDS-style activity, phase saving, and Luby restarts.
// The solver is incremental in the way sketch completion needs: clauses
// (blocking clauses) may be added between Solve() calls.
//
// Root simplification. Each Solve() starts by removing the clauses that
// the root (decision level 0) assignment satisfies, and frees their
// literals; sketch completion's Tseitin definitions die this way once
// their constraint's unit is asserted (solver/fd.h). The pass is
// incremental: for each literal l made true at the root since the last
// pass, every clause watched in watches_[¬l] watches l, so it is satisfied
// and is marked dead, and the list is dropped. A dead clause's other
// watcher is dropped when Propagate meets it, and clauses_ is compacted
// (indices remapped in order) once more than half of it is dead. Each
// clause is removed once, so the pass costs amortized O(1) per clause.
//
// The removal leaves the search exactly as it was. A root-satisfied clause
// can never become unit or conflicting, and it is never the reason of an
// assignment above level 0, so visiting it only ever rewrote a blocker.
// Removing it keeps the relative order of every other watcher, so every
// propagation, conflict, learnt clause, decision and model is unchanged.
// Root-false literals are deliberately left in live clauses: stripping
// them would move watches and change the trajectory.
//
// Clause and learnt-clause appends are charged to the thread's
// MemoryBudget (util/mem_budget.h), cumulatively and never refunded, so a
// run's byte budget also bounds the clause database.

#ifndef DYNAMITE_SOLVER_SAT_H_
#define DYNAMITE_SOLVER_SAT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dynamite {
namespace sat {

/// Boolean variable index (0-based).
using Var = int;

/// A literal: variable + sign, encoded as 2*var + (negated ? 1 : 0).
struct Lit {
  int x = -2;

  bool operator==(const Lit& o) const { return x == o.x; }
  bool operator!=(const Lit& o) const { return x != o.x; }
  bool operator<(const Lit& o) const { return x < o.x; }
};

inline Lit MkLit(Var v, bool negated = false) { return Lit{v * 2 + (negated ? 1 : 0)}; }
inline Lit Negate(Lit l) { return Lit{l.x ^ 1}; }
inline Var VarOf(Lit l) { return l.x >> 1; }
inline bool SignOf(Lit l) { return (l.x & 1) != 0; }

/// Ternary truth value.
enum class LBool : uint8_t { kTrue = 0, kFalse = 1, kUndef = 2 };

inline LBool Flip(LBool b, bool flip) {
  if (b == LBool::kUndef) return b;
  return (b == LBool::kTrue) == !flip ? LBool::kTrue : LBool::kFalse;
}

/// CDCL SAT solver.
class SatSolver {
 public:
  enum class Outcome { kSat, kUnsat, kUnknown };

  SatSolver() = default;

  /// Creates a fresh variable and returns its index.
  Var NewVar();

  /// Number of variables.
  int NumVars() const { return static_cast<int>(assigns_.size()); }

  /// Number of live clauses (original + learnt), not counting those
  /// removed as satisfied at the root.
  size_t NumClauses() const { return clauses_.size() - num_dead_; }

  /// Statistics.
  int64_t num_conflicts() const { return conflicts_; }
  int64_t num_decisions() const { return decisions_; }
  int64_t num_propagations() const { return propagations_; }

  /// Adds a clause (disjunction of literals). May be called before any
  /// Solve() and between Solve() calls. Returns false if the formula is now
  /// trivially unsatisfiable (empty clause or top-level conflict).
  bool AddClause(std::vector<Lit> lits);

  /// Solves the current formula. `conflict_budget` < 0 means unbounded;
  /// otherwise the solver gives up with kUnknown after that many conflicts.
  Outcome Solve(int64_t conflict_budget = -1);

  /// Value of a variable in the model; valid after Solve() == kSat.
  bool ModelValue(Var v) const { return model_[static_cast<size_t>(v)] == LBool::kTrue; }

  /// Sets the preferred polarity of a variable (phase-saving seed); used to
  /// bias the first models toward "natural" assignments.
  void SetPhase(Var v, bool value) { saved_phase_[static_cast<size_t>(v)] = value; }

 private:
  struct Clause {
    std::vector<Lit> lits;  // empty once removed as satisfied at the root
  };

  struct Watcher {
    int clause = -1;
    Lit blocker;
  };

  LBool ValueVar(Var v) const { return assigns_[static_cast<size_t>(v)]; }
  LBool ValueLit(Lit l) const { return Flip(assigns_[static_cast<size_t>(VarOf(l))], SignOf(l)); }

  void Enqueue(Lit l, int reason);
  int Propagate();  // returns conflicting clause index or -1
  void Analyze(int conflict, std::vector<Lit>* learnt, int* backtrack_level);
  void Backtrack(int level);
  Lit Decide();
  void BumpVar(Var v);
  void DecayActivities();
  int PushClause(std::vector<Lit> lits);
  void AttachClause(int ci);
  void RemoveRootSatisfied();
  void CompactClauses();
  bool ModelSatisfiesClauses() const;
  int DecisionLevel() const { return static_cast<int>(trail_lim_.size()); }
  static int64_t Luby(int64_t i);

  std::vector<Clause> clauses_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit.x
  std::vector<LBool> assigns_;
  std::vector<LBool> model_;
  std::vector<bool> saved_phase_;
  std::vector<int> level_;
  std::vector<int> reason_;  // clause index or -1
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t qhead_ = 0;
  size_t root_simplified_ = 0;  // trail_ prefix RemoveRootSatisfied has seen
  size_t num_dead_ = 0;         // removed clauses still in clauses_

  std::vector<double> activity_;
  double var_inc_ = 1.0;

  // VSIDS order heap: indexed binary max-heap over variable activity.
  void HeapInsert(Var v);
  void HeapPercolateUp(size_t i);
  void HeapPercolateDown(size_t i);
  Var HeapPopMax();
  bool HeapContains(Var v) const {
    return heap_pos_[static_cast<size_t>(v)] >= 0;
  }
  std::vector<Var> heap_;
  std::vector<int> heap_pos_;  // -1 when absent

  bool unsat_ = false;
  int64_t conflicts_ = 0;
  int64_t decisions_ = 0;
  int64_t propagations_ = 0;

  // Scratch for Analyze.
  std::vector<uint8_t> seen_;
};

}  // namespace sat
}  // namespace dynamite

#endif  // DYNAMITE_SOLVER_SAT_H_
