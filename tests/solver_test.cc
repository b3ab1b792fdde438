// Unit and property tests for the CDCL SAT solver and the finite-domain
// layer (the Z3 substrate).

#include <gtest/gtest.h>

#include <bitset>

#include "solver/fd.h"
#include "solver/sat.h"
#include "testing.h"
#include "util/rng.h"

namespace dynamite {
namespace {

using sat::Lit;
using sat::MkLit;
using sat::SatSolver;
using sat::Var;

TEST(Sat, TrivialSat) {
  SatSolver s;
  Var a = s.NewVar();
  s.AddClause({MkLit(a)});
  EXPECT_EQ(s.Solve(), SatSolver::Outcome::kSat);
  EXPECT_TRUE(s.ModelValue(a));
}

TEST(Sat, TrivialUnsat) {
  SatSolver s;
  Var a = s.NewVar();
  EXPECT_TRUE(s.AddClause({MkLit(a)}));
  EXPECT_FALSE(s.AddClause({MkLit(a, true)}));
  EXPECT_EQ(s.Solve(), SatSolver::Outcome::kUnsat);
}

TEST(Sat, EmptyClauseIsUnsat) {
  SatSolver s;
  EXPECT_FALSE(s.AddClause({}));
  EXPECT_EQ(s.Solve(), SatSolver::Outcome::kUnsat);
}

TEST(Sat, TautologyIgnored) {
  SatSolver s;
  Var a = s.NewVar();
  EXPECT_TRUE(s.AddClause({MkLit(a), MkLit(a, true)}));
  EXPECT_EQ(s.Solve(), SatSolver::Outcome::kSat);
}

TEST(Sat, PigeonHole3Into2IsUnsat) {
  // php(3,2): 3 pigeons, 2 holes — classic small UNSAT instance requiring
  // actual search.
  SatSolver s;
  Var p[3][2];
  for (auto& row : p) {
    for (Var& v : row) v = s.NewVar();
  }
  for (int i = 0; i < 3; ++i) {
    s.AddClause({MkLit(p[i][0]), MkLit(p[i][1])});
  }
  for (int h = 0; h < 2; ++h) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        s.AddClause({MkLit(p[i][h], true), MkLit(p[j][h], true)});
      }
    }
  }
  EXPECT_EQ(s.Solve(), SatSolver::Outcome::kUnsat);
}

TEST(Sat, IncrementalBlockingClauses) {
  // Enumerate all 8 models of 3 free variables by blocking each.
  SatSolver s;
  Var v[3] = {s.NewVar(), s.NewVar(), s.NewVar()};
  s.AddClause({MkLit(v[0]), MkLit(v[0], true)});  // touch solver
  int models = 0;
  while (s.Solve() == SatSolver::Outcome::kSat && models < 20) {
    ++models;
    std::vector<Lit> block;
    for (Var x : v) block.push_back(MkLit(x, s.ModelValue(x)));
    if (!s.AddClause(block)) break;
  }
  EXPECT_EQ(models, 8);
}

/// Reference brute-force SAT check for property testing.
bool BruteForceSat(int num_vars, const std::vector<std::vector<Lit>>& clauses) {
  for (uint32_t assignment = 0; assignment < (1u << num_vars); ++assignment) {
    bool all = true;
    for (const auto& clause : clauses) {
      bool any = false;
      for (Lit l : clause) {
        bool val = ((assignment >> sat::VarOf(l)) & 1) != 0;
        if (sat::SignOf(l)) val = !val;
        if (val) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

bool ModelSatisfies(const SatSolver& solver, const std::vector<Lit>& clause) {
  for (Lit l : clause) {
    if (solver.ModelValue(sat::VarOf(l)) != sat::SignOf(l)) return true;
  }
  return false;
}

// Property test: CDCL agrees with brute force on random 3-CNF.
class SatRandomCnf : public ::testing::TestWithParam<int> {};

TEST_P(SatRandomCnf, AgreesWithBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  const int num_vars = 8;
  const int num_clauses = 3 + static_cast<int>(rng.NextBelow(40));
  SatSolver solver;
  for (int i = 0; i < num_vars; ++i) solver.NewVar();
  std::vector<std::vector<Lit>> clauses;
  bool trivially_unsat = false;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> clause;
    int width = 1 + static_cast<int>(rng.NextBelow(3));
    for (int k = 0; k < width; ++k) {
      clause.push_back(MkLit(static_cast<Var>(rng.NextBelow(num_vars)), rng.NextBool()));
    }
    clauses.push_back(clause);
    if (!solver.AddClause(clause)) trivially_unsat = true;
  }
  bool expected = BruteForceSat(num_vars, clauses);
  if (trivially_unsat) {
    EXPECT_FALSE(expected);
    return;
  }
  SatSolver::Outcome outcome = solver.Solve();
  EXPECT_EQ(outcome == SatSolver::Outcome::kSat, expected);
  if (outcome == SatSolver::Outcome::kSat) {
    // The returned model must actually satisfy every clause.
    for (const auto& clause : clauses) EXPECT_TRUE(ModelSatisfies(solver, clause));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandomCnf, ::testing::Range(0, 50));

TEST(Sat, RootSatisfiedClausesAreRemoved) {
  // Ten Tseitin definitions d <-> And(50 operands): 50 binaries and one
  // long clause each. Fixing every d false at the root satisfies the
  // binaries, so the next Solve() drops them and keeps the long clauses.
  SatSolver s;
  std::vector<Var> ops;
  for (int i = 0; i < 50; ++i) ops.push_back(s.NewVar());
  std::vector<Var> defs;
  for (int d = 0; d < 10; ++d) {
    Var def = s.NewVar();
    defs.push_back(def);
    std::vector<Lit> rev = {MkLit(def)};
    for (size_t i = 0; i < ops.size(); ++i) {
      Lit op = MkLit(ops[i], (i + static_cast<size_t>(d)) % 3 == 0);
      ASSERT_TRUE(s.AddClause({MkLit(def, true), op}));
      rev.push_back(sat::Negate(op));
    }
    ASSERT_TRUE(s.AddClause(rev));
  }
  ASSERT_EQ(s.Solve(), SatSolver::Outcome::kSat);
  EXPECT_EQ(s.NumClauses(), 10u * 51u);
  for (Var def : defs) ASSERT_TRUE(s.AddClause({MkLit(def, true)}));
  ASSERT_EQ(s.Solve(), SatSolver::Outcome::kSat);
  EXPECT_EQ(s.NumClauses(), 10u);
  for (Var def : defs) EXPECT_FALSE(s.ModelValue(def));
  // The solver keeps answering after the removal.
  ASSERT_TRUE(s.AddClause({MkLit(ops[0])}));
  ASSERT_EQ(s.Solve(), SatSolver::Outcome::kSat);
  EXPECT_TRUE(s.ModelValue(ops[0]));
}

// Property test: an incremental stream of Tseitin definitions, root units
// that satisfy them, blocking clauses and Solve() calls. Every outcome
// matches brute force over every clause ever added (removed ones
// included), every model satisfies all of them, and a final definition
// over fresh variables loses its binaries once its unit lands.
class SatIncrementalStream : public ::testing::TestWithParam<int> {};

TEST_P(SatIncrementalStream, AgreesWithBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  const int base_vars = 4 + static_cast<int>(rng.NextBelow(6));  // 4..9
  const int def_vars = 3;  // used only as Tseitin outputs
  const int fresh_vars = 4;
  const int num_vars = base_vars + def_vars + fresh_vars;  // <= 16
  SatSolver solver;
  for (int i = 0; i < num_vars; ++i) solver.NewVar();
  std::vector<std::vector<Lit>> all;
  auto add = [&](std::vector<Lit> clause) {
    all.push_back(clause);
    return solver.AddClause(std::move(clause));
  };
  auto random_lit = [&](int bound) {
    return MkLit(static_cast<Var>(rng.NextBelow(static_cast<uint64_t>(bound))), rng.NextBool());
  };
  // d <-> And(ops) or d <-> Or(ops), as FdSolver::Lower writes them.
  auto define = [&](Var d, const std::vector<Lit>& ops, bool is_and) {
    bool ok = true;
    std::vector<Lit> rev;
    for (Lit op : ops) {
      ok = add(is_and ? std::vector<Lit>{MkLit(d, true), op}
                      : std::vector<Lit>{sat::Negate(op), MkLit(d)}) &&
           ok;
      rev.push_back(is_and ? sat::Negate(op) : op);
    }
    rev.push_back(MkLit(d, !is_and));
    return add(rev) && ok;
  };
  auto check = [&](SatSolver::Outcome outcome) {
    bool expected = BruteForceSat(num_vars, all);
    EXPECT_EQ(outcome == SatSolver::Outcome::kSat, expected);
    if (outcome != SatSolver::Outcome::kSat) return false;
    for (const auto& clause : all) EXPECT_TRUE(ModelSatisfies(solver, clause));
    return true;
  };

  std::vector<int> is_and(def_vars, -1);  // per output: -1 undefined, 0 Or, 1 And
  bool consistent = true;
  const int steps = 10 + static_cast<int>(rng.NextBelow(30));
  for (int step = 0; step < steps && consistent; ++step) {
    switch (rng.NextBelow(4)) {
      case 0: {  // a Tseitin definition over base literals
        const int d = static_cast<int>(rng.NextBelow(def_vars));
        std::vector<Lit> ops;
        const int width = 2 + static_cast<int>(rng.NextBelow(3));
        for (int k = 0; k < width; ++k) ops.push_back(random_lit(base_vars));
        is_and[static_cast<size_t>(d)] = rng.NextBool();
        consistent = define(static_cast<Var>(base_vars + d), ops,
                            is_and[static_cast<size_t>(d)] == 1);
        break;
      }
      case 1: {  // a root unit, usually the one that satisfies a definition
        const int d = static_cast<int>(rng.NextBelow(def_vars));
        if (is_and[static_cast<size_t>(d)] < 0 || rng.NextBelow(4) == 0) {
          consistent = add({random_lit(base_vars + def_vars)});
        } else {
          consistent = add({MkLit(static_cast<Var>(base_vars + d),
                                  /*negated=*/is_and[static_cast<size_t>(d)] == 1)});
        }
        break;
      }
      case 2: {  // a blocking clause
        std::vector<Lit> clause;
        const int width = 3 + static_cast<int>(rng.NextBelow(3));
        for (int k = 0; k < width; ++k) clause.push_back(random_lit(base_vars + def_vars));
        consistent = add(clause);
        break;
      }
      default:
        consistent = check(solver.Solve());
        break;
    }
  }
  if (!consistent) {
    check(solver.Solve());  // an AddClause that saw UNSAT must agree too
    return;
  }
  if (!check(solver.Solve())) return;

  // A definition over fresh variables no other clause mentions: nothing
  // fixes them at the root, so all three binaries are live until the unit.
  const Var d = static_cast<Var>(base_vars + def_vars);
  std::vector<Lit> ops;
  for (int k = 1; k < fresh_vars; ++k) ops.push_back(MkLit(d + k, rng.NextBool()));
  ASSERT_TRUE(define(d, ops, /*is_and=*/true));
  ASSERT_TRUE(check(solver.Solve()));
  const size_t before = solver.NumClauses();
  const int64_t conflicts = solver.num_conflicts();
  ASSERT_TRUE(add({MkLit(d, true)}));
  ASSERT_TRUE(check(solver.Solve()));
  // Learnt clauses may arrive meanwhile: at most one per conflict.
  EXPECT_LE(solver.NumClauses() + ops.size(),
            before + static_cast<size_t>(solver.num_conflicts() - conflicts));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatIncrementalStream, ::testing::Range(0, 200));

TEST(Fd, DomainRespected) {
  FdSolver s;
  FdVar x = s.NewVar("x", {3, 5, 9});
  ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
  ASSERT_TRUE(sat1);
  int64_t v = s.ModelValue(x);
  EXPECT_TRUE(v == 3 || v == 5 || v == 9);
}

TEST(Fd, EqConstraintPinsValue) {
  FdSolver s;
  FdVar x = s.NewVar("x", {1, 2, 3});
  ASSERT_OK(s.AddConstraint(FdExpr::Eq(x, 2)));
  ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
  ASSERT_TRUE(sat1);
  EXPECT_EQ(s.ModelValue(x), 2);
}

TEST(Fd, EqOutOfDomainIsFalse) {
  FdSolver s;
  FdVar x = s.NewVar("x", {1, 2});
  ASSERT_OK(s.AddConstraint(FdExpr::Eq(x, 99)));
  ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
  EXPECT_FALSE(sat1);
}

TEST(Fd, VarEqVarSharedDomain) {
  FdSolver s;
  FdVar x = s.NewVar("x", {1, 2, 3});
  FdVar y = s.NewVar("y", {2, 3, 4});
  ASSERT_OK(s.AddConstraint(FdExpr::EqVar(x, y)));
  ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
  ASSERT_TRUE(sat1);
  EXPECT_EQ(s.ModelValue(x), s.ModelValue(y));
}

TEST(Fd, VarEqVarDisjointDomainsUnsat) {
  FdSolver s;
  FdVar x = s.NewVar("x", {1, 2});
  FdVar y = s.NewVar("y", {3, 4});
  ASSERT_OK(s.AddConstraint(FdExpr::EqVar(x, y)));
  ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
  EXPECT_FALSE(sat1);
}

TEST(Fd, NotEqVar) {
  FdSolver s;
  FdVar x = s.NewVar("x", {1, 2});
  FdVar y = s.NewVar("y", {1, 2});
  ASSERT_OK(s.AddConstraint(FdExpr::Not(FdExpr::EqVar(x, y))));
  ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
  ASSERT_TRUE(sat1);
  EXPECT_NE(s.ModelValue(x), s.ModelValue(y));
}

TEST(Fd, BlockingClauseEnumeration) {
  // Enumerate all 6 models of two independent vars by blocking.
  FdSolver s;
  FdVar x = s.NewVar("x", {1, 2});
  FdVar y = s.NewVar("y", {1, 2, 3});
  int models = 0;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
    if (!sat1) break;
    ++models;
    ASSERT_LE(models, 10);
    ASSERT_OK(s.AddConstraint(FdExpr::Not(FdExpr::And(
        {FdExpr::Eq(x, s.ModelValue(x)), FdExpr::Eq(y, s.ModelValue(y))}))));
  }
  EXPECT_EQ(models, 6);
}

TEST(Fd, ComplexNestedFormula) {
  FdSolver s;
  FdVar x = s.NewVar("x", {1, 2, 3});
  FdVar y = s.NewVar("y", {1, 2, 3});
  // (x=1 | x=2) & !(x=y) & (y=1 | y=3)
  ASSERT_OK(s.AddConstraint(
      FdExpr::And({FdExpr::Or({FdExpr::Eq(x, 1), FdExpr::Eq(x, 2)}),
                   FdExpr::Not(FdExpr::EqVar(x, y)),
                   FdExpr::Or({FdExpr::Eq(y, 1), FdExpr::Eq(y, 3)})})));
  ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
  ASSERT_TRUE(sat1);
  int64_t xv = s.ModelValue(x), yv = s.ModelValue(y);
  EXPECT_TRUE(xv == 1 || xv == 2);
  EXPECT_TRUE(yv == 1 || yv == 3);
  EXPECT_NE(xv, yv);
}

TEST(Fd, BlockingConstraintsGrowClausesByConstraintNotWidth) {
  // AnalyzeBlocking's shape: And(Not(And(~50 pairwise (dis)equalities)))
  // per MDP, each pattern read off the current model so it blocks it. The
  // Tseitin binaries die at the root once the unit lands, so the clause
  // database grows by a few clauses per constraint, not by its width.
  constexpr int kVars = 20;
  constexpr int kConstraints = 1000;
  constexpr int kWidth = 50;
  constexpr int kMdps = 2;
  FdSolver s;
  std::vector<FdVar> vars;
  for (int i = 0; i < kVars; ++i) {
    vars.push_back(s.NewVar("v" + std::to_string(i), {0, 1, 2, 3, 4}));
  }
  Rng rng(2024);
  // Fill the x = y cache first: its definitions are shared, not per
  // constraint.
  std::vector<FdExpr> all_pairs;
  for (int i = 0; i < kVars; ++i) {
    for (int j = i + 1; j < kVars; ++j) {
      all_pairs.push_back(FdExpr::Or({FdExpr::EqVar(vars[static_cast<size_t>(i)],
                                                    vars[static_cast<size_t>(j)]),
                                      FdExpr::Not(FdExpr::EqVar(vars[static_cast<size_t>(i)],
                                                                vars[static_cast<size_t>(j)]))}));
    }
  }
  ASSERT_OK(s.AddConstraint(FdExpr::And(all_pairs)));
  ASSERT_OK_AND_ASSIGN(bool first, s.Solve());
  ASSERT_TRUE(first);
  const size_t baseline = s.num_clauses();
  const int64_t baseline_conflicts = s.num_conflicts();
  for (int c = 0; c < kConstraints; ++c) {
    std::vector<FdExpr> blocks;
    for (int m = 0; m < kMdps; ++m) {
      std::vector<FdExpr> conj;
      for (int k = 0; k < kWidth; ++k) {
        FdVar x = vars[rng.NextIndex(vars.size())];
        FdVar y = vars[rng.NextIndex(vars.size())];
        if (x == y) continue;
        FdExpr eq = FdExpr::EqVar(x, y);
        conj.push_back(s.ModelValue(x) == s.ModelValue(y) ? std::move(eq)
                                                          : FdExpr::Not(std::move(eq)));
      }
      blocks.push_back(FdExpr::Not(FdExpr::And(std::move(conj))));
    }
    ASSERT_OK(s.AddConstraint(FdExpr::And(std::move(blocks))));
    ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
    ASSERT_TRUE(sat1) << "constraint " << c;
  }
  const size_t growth = s.num_clauses() - baseline;
  const auto learnt = static_cast<size_t>(s.num_conflicts() - baseline_conflicts);
  // Per constraint: one long clause per block plus the outer And's, where
  // keeping the definitions would add kMdps * (kWidth + 1).
  EXPECT_LE(growth, static_cast<size_t>((kMdps + 1) * kConstraints) + learnt);
  EXPECT_LT(growth, static_cast<size_t>(kConstraints * kMdps * kWidth / 4));
}

// Property test: the FD layer agrees with explicit enumeration on random
// equality formulas.
class FdRandomFormula : public ::testing::TestWithParam<int> {};

TEST_P(FdRandomFormula, ModelCountMatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  const int num_vars = 3;
  const int domain_size = 3;
  FdSolver s;
  std::vector<FdVar> vars;
  for (int i = 0; i < num_vars; ++i) {
    s.NewVar("v" + std::to_string(i), {0, 1, 2});
    vars.push_back(FdVar{i});
  }
  // Random constraint: conjunction of 3 random (dis)equalities.
  struct Constraint {
    int a, b;
    bool eq;
    bool against_const;
    int64_t c;
  };
  std::vector<Constraint> constraints;
  std::vector<FdExpr> exprs;
  for (int k = 0; k < 3; ++k) {
    Constraint con;
    con.a = static_cast<int>(rng.NextBelow(num_vars));
    con.b = static_cast<int>(rng.NextBelow(num_vars));
    con.eq = rng.NextBool();
    con.against_const = rng.NextBool();
    con.c = static_cast<int64_t>(rng.NextBelow(domain_size));
    constraints.push_back(con);
    FdExpr base = con.against_const ? FdExpr::Eq(vars[static_cast<size_t>(con.a)], con.c)
                                    : FdExpr::EqVar(vars[static_cast<size_t>(con.a)],
                                                    vars[static_cast<size_t>(con.b)]);
    exprs.push_back(con.eq ? base : FdExpr::Not(base));
  }
  ASSERT_OK(s.AddConstraint(FdExpr::And(exprs)));

  // Count models by blocking; compare against explicit enumeration.
  int solver_models = 0;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
    if (!sat1) break;
    ++solver_models;
    ASSERT_LE(solver_models, 27);
    std::vector<FdExpr> eqs;
    for (int i = 0; i < num_vars; ++i) {
      eqs.push_back(FdExpr::Eq(vars[static_cast<size_t>(i)],
                               s.ModelValue(vars[static_cast<size_t>(i)])));
    }
    ASSERT_OK(s.AddConstraint(FdExpr::Not(FdExpr::And(eqs))));
  }
  int expected = 0;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      for (int c = 0; c < 3; ++c) {
        int val[3] = {a, b, c};
        bool ok = true;
        for (const Constraint& con : constraints) {
          bool holds = con.against_const ? (val[con.a] == con.c)
                                         : (val[con.a] == val[con.b]);
          if (holds != con.eq) {
            ok = false;
            break;
          }
        }
        if (ok) ++expected;
      }
    }
  }
  EXPECT_EQ(solver_models, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdRandomFormula, ::testing::Range(0, 30));

}  // namespace
}  // namespace dynamite
