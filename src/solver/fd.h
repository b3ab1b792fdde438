// Finite-domain constraint layer over the CDCL SAT core.
//
// This is the fragment of SMT that sketch completion needs (§4.3): integer
// variables over explicit finite domains with boolean combinations of
// `x = c` (variable equals domain constant) and `x = y` (two variables
// equal). Variables are one-hot encoded (one boolean per domain value with
// an exactly-one constraint); formulas are lowered to CNF via Tseitin
// transformation; `x = y` literals are cached per variable pair.
//
// A blocking constraint And(¬And(c1..cn), ...) lowers to a fresh literal
// per `And` plus one binary definition per conjunct. Asserting the
// constraint's unit fixes those literals at the root, which satisfies the
// binaries for good: the SAT core removes them at the next Solve() (root
// simplification, solver/sat.h). What stays is about one clause per
// conjunct of the constraint, not one per (dis)equality.

#ifndef DYNAMITE_SOLVER_FD_H_
#define DYNAMITE_SOLVER_FD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "solver/sat.h"
#include "util/result.h"

namespace dynamite {

/// Handle to a finite-domain variable.
struct FdVar {
  int index = -1;
  bool operator==(const FdVar& o) const { return index == o.index; }
  bool operator<(const FdVar& o) const { return index < o.index; }
};

/// A boolean formula over finite-domain atoms.
class FdExpr {
 public:
  enum class Kind : uint8_t {
    kTrue,
    kFalse,
    kVarEqConst,  ///< x = c
    kVarEqVar,    ///< x = y
    kNot,
    kAnd,
    kOr,
  };

  static FdExpr True();
  static FdExpr False();
  static FdExpr Eq(FdVar x, int64_t c);
  static FdExpr EqVar(FdVar x, FdVar y);
  static FdExpr Not(FdExpr e);
  static FdExpr And(std::vector<FdExpr> children);
  static FdExpr Or(std::vector<FdExpr> children);

  Kind kind() const { return kind_; }
  FdVar lhs() const { return lhs_; }
  FdVar rhs_var() const { return rhs_var_; }
  int64_t rhs_const() const { return rhs_const_; }
  const std::vector<FdExpr>& children() const { return children_; }

  /// Pretty textual rendering (for diagnostics and tests).
  std::string ToString() const;

 private:
  Kind kind_ = Kind::kTrue;
  FdVar lhs_;
  FdVar rhs_var_;
  int64_t rhs_const_ = 0;
  std::vector<FdExpr> children_;
};

/// Incremental finite-domain solver.
///
/// Usage:
///   FdSolver s;
///   FdVar x = s.NewVar("x", {1, 2, 3});
///   s.AddConstraint(FdExpr::Or({FdExpr::Eq(x, 1), FdExpr::Eq(x, 3)}));
///   if (*s.Solve()) { int64_t v = s.ModelValue(x); ... }
/// Constraints may be added between Solve() calls (sketch completion adds a
/// blocking clause per iteration).
class FdSolver {
 public:
  FdSolver() = default;
  FdSolver(FdSolver&&) = default;
  FdSolver& operator=(FdSolver&&) = default;
  /// Not copyable: a copy of a solver with thousands of learnt clauses
  /// would be an expensive silent bug.
  FdSolver(const FdSolver&) = delete;
  FdSolver& operator=(const FdSolver&) = delete;

  /// Creates a variable over the given (distinct, non-empty) domain values.
  FdVar NewVar(std::string name, std::vector<int64_t> domain);

  size_t NumVars() const { return vars_.size(); }
  const std::string& NameOf(FdVar v) const { return vars_[static_cast<size_t>(v.index)].name; }
  const std::vector<int64_t>& DomainOf(FdVar v) const {
    return vars_[static_cast<size_t>(v.index)].domain;
  }

  /// Asserts a formula (conjoined with everything added so far).
  Status AddConstraint(const FdExpr& e);

  /// Suggests a preferred value for `v` (search heuristic only — does not
  /// constrain the formula). No-op if `value` is outside the domain.
  void Suggest(FdVar v, int64_t value);

  /// True = satisfiable (model available), false = unsatisfiable.
  Result<bool> Solve();

  /// Value of `v` in the current model; valid after Solve() returned true.
  int64_t ModelValue(FdVar v) const;

  /// Statistics from the underlying SAT solver.
  int64_t num_conflicts() const { return sat_.num_conflicts(); }
  size_t num_clauses() const { return sat_.NumClauses(); }

 private:
  struct VarInfo {
    std::string name;
    std::vector<int64_t> domain;
    std::map<int64_t, int> value_index;
    std::vector<sat::Var> selectors;  // one-hot booleans, one per value
  };

  /// Lowers `e` to a literal, adding defining clauses (Tseitin).
  Result<sat::Lit> Lower(const FdExpr& e);

  /// Literal for `x = c`; kFalseLit when c is outside x's domain.
  Result<sat::Lit> EqConstLit(FdVar x, int64_t c);

  /// Cached literal for `x = y`.
  Result<sat::Lit> EqVarLit(FdVar x, FdVar y);

  /// A literal fixed to true (created lazily).
  sat::Lit TrueLit();

  std::vector<VarInfo> vars_;
  std::map<std::pair<int, int>, sat::Lit> eq_cache_;
  sat::SatSolver sat_;
  sat::Lit true_lit_{-2};
};

}  // namespace dynamite

#endif  // DYNAMITE_SOLVER_FD_H_
