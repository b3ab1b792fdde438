// Unit tests for the Datalog AST, parser, evaluation engine, simplifier and
// equivalence checker (the Souffle substrate).

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "datalog/ast.h"
#include "datalog/engine.h"
#include "datalog/simplify.h"
#include "util/rng.h"
#include "testing.h"
#include "value/database.h"

namespace dynamite {
namespace {

FactDatabase EdgeDb(std::vector<std::pair<int, int>> edges) {
  FactDatabase db;
  db.DeclareRelation("edge", {"src", "dst"}).ValueOrDie();
  for (auto [a, b] : edges) {
    db.AddFact("edge", Tuple({Value::Int(a), Value::Int(b)}));
  }
  return db;
}

TEST(DatalogParser, ParsesMotivatingRule) {
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(R"(
    Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id2, num),
                                Univ(id2, ug, _).
  )"));
  ASSERT_EQ(p.rules.size(), 1u);
  const Rule& r = p.rules[0];
  EXPECT_EQ(r.heads.size(), 1u);
  EXPECT_EQ(r.body.size(), 3u);
  EXPECT_EQ(r.heads[0].relation, "Admission");
  EXPECT_TRUE(r.body[2].terms[2].is_wildcard());
  EXPECT_EQ(r.HeadVariables(), (std::vector<std::string>{"grad", "ug", "num"}));
}

TEST(DatalogParser, ParsesConstantsAndComments) {
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(R"(
    % percent comment
    // slash comment
    R(x) :- S(x, 42, "hello world", -3.5, true).
  )"));
  const Atom& atom = p.rules[0].body[0];
  EXPECT_EQ(atom.terms[1].constant(), Value::Int(42));
  EXPECT_EQ(atom.terms[2].constant(), Value::String("hello world"));
  EXPECT_EQ(atom.terms[3].constant(), Value::Float(-3.5));
  EXPECT_EQ(atom.terms[4].constant(), Value::Bool(true));
}

TEST(DatalogParser, ParsesMultiHeadRules) {
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("A(x), B(x, y) :- C(x, y)."));
  EXPECT_EQ(p.rules[0].heads.size(), 2u);
}

TEST(DatalogParser, RejectsUnboundHeadVariable) {
  EXPECT_FALSE(Program::Parse("A(x, y) :- B(x).").ok());
}

TEST(DatalogParser, RejectsSyntaxErrors) {
  EXPECT_FALSE(Program::Parse("A(x) :- B(x)").ok());   // missing dot
  EXPECT_FALSE(Program::Parse("A(x) B(x).").ok());     // missing :-
  EXPECT_FALSE(Program::Parse("A(x :- B(x).").ok());   // unbalanced paren
}

TEST(DatalogParser, RoundTripsThroughToString) {
  const char* text = "A(x, y) :- B(x, z), C(z, y, \"k\"), D(_, 7).";
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(text));
  ASSERT_OK_AND_ASSIGN(Program p2, Program::Parse(p.ToString()));
  EXPECT_EQ(p, p2);
}

TEST(DatalogEngine, SimpleJoin) {
  FactDatabase db = EdgeDb({{1, 2}, {2, 3}, {3, 4}});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("path2(x, y) :- edge(x, z), edge(z, y)."));
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out, engine.EvalAutoSignatures(p, db));
  const Relation* path2 = out.Find("path2").ValueOrDie();
  EXPECT_EQ(path2->size(), 2u);
  EXPECT_TRUE(path2->Contains(Tuple({Value::Int(1), Value::Int(3)})));
  EXPECT_TRUE(path2->Contains(Tuple({Value::Int(2), Value::Int(4)})));
}

TEST(DatalogEngine, ConstantsFilter) {
  FactDatabase db = EdgeDb({{1, 2}, {2, 3}, {1, 4}});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("from1(y) :- edge(1, y)."));
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out, engine.EvalAutoSignatures(p, db));
  EXPECT_EQ(out.Find("from1").ValueOrDie()->size(), 2u);
}

TEST(DatalogEngine, RepeatedVariableWithinAtom) {
  FactDatabase db = EdgeDb({{1, 1}, {1, 2}, {3, 3}});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("loop(x) :- edge(x, x)."));
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out, engine.EvalAutoSignatures(p, db));
  const Relation* loop = out.Find("loop").ValueOrDie();
  EXPECT_EQ(loop->size(), 2u);
  EXPECT_TRUE(loop->Contains(Tuple({Value::Int(1)})));
  EXPECT_TRUE(loop->Contains(Tuple({Value::Int(3)})));
}

TEST(DatalogEngine, MultiHeadSharesBindings) {
  FactDatabase db = EdgeDb({{1, 2}});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("A(x), B(y, x) :- edge(x, y)."));
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out, engine.EvalAutoSignatures(p, db));
  EXPECT_TRUE(out.Find("A").ValueOrDie()->Contains(Tuple({Value::Int(1)})));
  EXPECT_TRUE(out.Find("B").ValueOrDie()->Contains(Tuple({Value::Int(2), Value::Int(1)})));
}

TEST(DatalogEngine, RecursiveTransitiveClosure) {
  // The engine is a complete substrate: recursion works via semi-naive
  // fixpoint even though synthesis never needs it.
  FactDatabase db = EdgeDb({{1, 2}, {2, 3}, {3, 4}, {4, 5}});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )"));
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out, engine.EvalAutoSignatures(p, db));
  EXPECT_EQ(out.Find("tc").ValueOrDie()->size(), 10u);  // all i<j pairs
  EXPECT_TRUE(out.Find("tc").ValueOrDie()->Contains(Tuple({Value::Int(1), Value::Int(5)})));
}

TEST(DatalogEngine, RecursiveClosureOnCycle) {
  FactDatabase db = EdgeDb({{1, 2}, {2, 3}, {3, 1}});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )"));
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out, engine.EvalAutoSignatures(p, db));
  EXPECT_EQ(out.Find("tc").ValueOrDie()->size(), 9u);  // 3x3 complete
}

TEST(DatalogEngine, TupleLimitAborts) {
  FactDatabase db = EdgeDb({{1, 2}, {2, 3}, {3, 1}, {1, 3}, {2, 1}, {3, 2}});
  ASSERT_OK_AND_ASSIGN(Program p,
                       Program::Parse("big(a, b, c, d) :- edge(a, b), edge(b, c), "
                                      "edge(c, d), edge(d, a)."));
  DatalogEngine::Options options;
  options.max_derived_tuples = 3;
  DatalogEngine engine(options);
  auto result = engine.EvalAutoSignatures(p, db);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kEvalBudget);
}

TEST(DatalogEngine, UnknownBodyRelationFails) {
  FactDatabase db = EdgeDb({});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("A(x) :- mystery(x)."));
  DatalogEngine engine;
  EXPECT_FALSE(engine.EvalAutoSignatures(p, db).ok());
}

TEST(DatalogEngine, ArityMismatchFails) {
  FactDatabase db = EdgeDb({{1, 2}});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("A(x) :- edge(x, _, _)."));
  DatalogEngine engine;
  EXPECT_FALSE(engine.EvalAutoSignatures(p, db).ok());
}

TEST(Simplify, RemovesDuplicateAtoms) {
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("A(x) :- B(x, y), B(x, y)."));
  Rule s = SimplifyRule(p.rules[0]);
  EXPECT_EQ(s.body.size(), 1u);
}

TEST(Simplify, RemovesSubsumedAtoms) {
  // Second B atom only constrains via a local variable: subsumed by the
  // first one.
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("A(x) :- B(x, y), B(x, z)."));
  Rule s = SimplifyRule(p.rules[0]);
  EXPECT_EQ(s.body.size(), 1u);
}

TEST(Simplify, KeepsConstrainingAtoms) {
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("A(x) :- B(x, y), C(y)."));
  Rule s = SimplifyRule(p.rules[0]);
  EXPECT_EQ(s.body.size(), 2u);
}

TEST(Simplify, SingleUseVariablesBecomeWildcards) {
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("A(x) :- B(x, unused)."));
  Rule s = SimplifyRule(p.rules[0]);
  EXPECT_TRUE(s.body[0].terms[1].is_wildcard());
}

TEST(Simplify, PreservesSemantics) {
  // Property: the simplified rule computes the same output.
  FactDatabase db = EdgeDb({{1, 2}, {2, 3}, {1, 3}, {3, 3}});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(
      "A(x, y) :- edge(x, y), edge(x, z), edge(x, y)."));
  Program s = SimplifyProgram(p);
  EXPECT_LT(s.rules[0].body.size(), p.rules[0].body.size());
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out1, engine.EvalAutoSignatures(p, db));
  ASSERT_OK_AND_ASSIGN(FactDatabase out2, engine.EvalAutoSignatures(s, db));
  EXPECT_TRUE(out1.SetEquals(out2));
}

TEST(Equivalence, RenamedRulesAreEquivalent) {
  ASSERT_OK_AND_ASSIGN(Program a, Program::Parse("A(x, y) :- B(x, z), C(z, y)."));
  ASSERT_OK_AND_ASSIGN(Program b, Program::Parse("A(p, q) :- B(p, r), C(r, q)."));
  EXPECT_TRUE(RuleEquivalent(a.rules[0], b.rules[0]));
  EXPECT_TRUE(RuleIsomorphic(a.rules[0], b.rules[0]));
}

TEST(Equivalence, ReorderedBodyIsEquivalent) {
  ASSERT_OK_AND_ASSIGN(Program a, Program::Parse("A(x, y) :- B(x, z), C(z, y)."));
  ASSERT_OK_AND_ASSIGN(Program b, Program::Parse("A(x, y) :- C(w, y), B(x, w)."));
  EXPECT_TRUE(RuleEquivalent(a.rules[0], b.rules[0]));
}

TEST(Equivalence, RedundantAtomDoesNotChangeSemantics) {
  ASSERT_OK_AND_ASSIGN(Program a, Program::Parse("A(x) :- B(x, y)."));
  ASSERT_OK_AND_ASSIGN(Program b, Program::Parse("A(x) :- B(x, y), B(x, z)."));
  EXPECT_TRUE(RuleEquivalent(a.rules[0], b.rules[0]));
  EXPECT_EQ(DistanceToOptimal(b.rules[0], a.rules[0]), 1);
}

TEST(Equivalence, DifferentJoinsAreNotEquivalent) {
  ASSERT_OK_AND_ASSIGN(Program a, Program::Parse("A(x, y) :- B(x, z), C(z, y)."));
  ASSERT_OK_AND_ASSIGN(Program b, Program::Parse("A(x, y) :- B(x, _), C(_, y)."));
  EXPECT_FALSE(RuleEquivalent(a.rules[0], b.rules[0]));
}

TEST(Equivalence, ConstantsMustMatch) {
  ASSERT_OK_AND_ASSIGN(Program a, Program::Parse("A(x) :- B(x, 1)."));
  ASSERT_OK_AND_ASSIGN(Program b, Program::Parse("A(x) :- B(x, 2)."));
  EXPECT_FALSE(RuleEquivalent(a.rules[0], b.rules[0]));
}

// Property test for Theorem 1: Datalog semantics is invariant under
// injective variable renaming.
class RenamingInvariance : public ::testing::TestWithParam<int> {};

TEST_P(RenamingInvariance, HoldsOnRandomGraphs) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 12; ++i) {
    edges.push_back({static_cast<int>(rng.NextBelow(5)), static_cast<int>(rng.NextBelow(5))});
  }
  FactDatabase db = EdgeDb(edges);
  ASSERT_OK_AND_ASSIGN(Program original,
                       Program::Parse("T(a, c) :- edge(a, b), edge(b, c), edge(c, a)."));
  ASSERT_OK_AND_ASSIGN(Program renamed,
                       Program::Parse("T(q0, q2) :- edge(q0, q1), edge(q1, q2), edge(q2, q0)."));
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out1, engine.EvalAutoSignatures(original, db));
  ASSERT_OK_AND_ASSIGN(FactDatabase out2, engine.EvalAutoSignatures(renamed, db));
  EXPECT_TRUE(out1.SetEquals(out2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RenamingInvariance, ::testing::Range(0, 10));

// ------------------------------------------------- existential cut ---
// An atom none of whose variables is read by a later atom or a head only
// tests existence; the matcher stops scanning it at its first passing row.
// These tests pin that the cut changes nothing observable.

/// Every row of `rel`, in insertion order.
std::vector<std::vector<Value>> RowsInOrder(const Relation& rel) {
  std::vector<std::vector<Value>> rows(rel.size());
  for (size_t r = 0; r < rel.size(); ++r) {
    for (size_t c = 0; c < rel.arity(); ++c) rows[r].push_back(rel.cell(r, c));
  }
  return rows;
}

/// Naive reference: enumerate every combination of body rows, keep the
/// consistent ones, and project each head. No plan, no index, no cut.
std::map<std::string, std::set<std::vector<Value>>> NaiveEval(const Program& program,
                                                              const FactDatabase& db) {
  std::map<std::string, std::set<std::vector<Value>>> out;
  std::map<std::string, std::vector<std::vector<Value>>> rows_of;
  for (const std::string& name : db.RelationNames()) {
    rows_of[name] = RowsInOrder(*db.Find(name).ValueOrDie());
  }
  for (const Rule& rule : program.rules) {
    for (const Atom& h : rule.heads) out[h.relation];
    std::map<std::string, Value> env;
    std::function<void(size_t)> walk = [&](size_t k) {
      if (k == rule.body.size()) {
        for (const Atom& h : rule.heads) {
          std::vector<Value> row;
          for (const Term& t : h.terms) {
            row.push_back(t.is_constant() ? t.constant() : env.at(t.var()));
          }
          out[h.relation].insert(std::move(row));
        }
        return;
      }
      const Atom& atom = rule.body[k];
      for (const std::vector<Value>& row : rows_of.at(atom.relation)) {
        std::map<std::string, Value> saved = env;
        bool ok = true;
        for (size_t i = 0; i < atom.terms.size() && ok; ++i) {
          const Term& t = atom.terms[i];
          if (t.is_constant()) {
            ok = t.constant() == row[i];
          } else if (t.is_variable()) {
            auto [it, fresh] = env.emplace(t.var(), row[i]);
            ok = fresh || it->second == row[i];
          }
        }
        if (ok) walk(k + 1);
        env = std::move(saved);
      }
    };
    walk(0);
  }
  return out;
}

/// Random non-recursive programs over 2-4 small EDB relations (one of them
/// sometimes empty), padded with dead atoms: all-wildcard atoms, atoms with
/// constants, and atoms repeating a variable nothing else reads.
class ExistentialCutProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExistentialCutProperty, MatchesNaiveNestedLoops) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 17);
  FactDatabase db;
  const size_t num_rels = 2 + rng.NextIndex(3);
  std::vector<size_t> arity(num_rels);
  const bool with_empty = rng.NextBool(0.4);
  for (size_t r = 0; r < num_rels; ++r) {
    arity[r] = 1 + rng.NextIndex(3);
    std::vector<std::string> attrs;
    for (size_t c = 0; c < arity[r]; ++c) attrs.push_back("c" + std::to_string(c));
    const std::string name = "R" + std::to_string(r);
    db.DeclareRelation(name, attrs).ValueOrDie();
    const size_t rows = with_empty && r == 0 ? 0 : 1 + rng.NextIndex(8);
    for (size_t i = 0; i < rows; ++i) {
      std::vector<Value> row;
      for (size_t c = 0; c < arity[r]; ++c) row.push_back(Value::Int(rng.NextInt(0, 3)));
      db.AddFact(name, Tuple(row));
    }
  }

  auto atom_text = [&](size_t r, const std::vector<std::string>& terms) {
    std::string s = "R" + std::to_string(r) + "(";
    for (size_t i = 0; i < terms.size(); ++i) s += (i > 0 ? ", " : "") + terms[i];
    return s + ")";
  };
  const size_t head_arity[2] = {1, 1 + rng.NextIndex(3)};
  std::string text;
  const size_t num_rules = 1 + rng.NextIndex(3);
  for (size_t ri = 0; ri < num_rules; ++ri) {
    std::vector<std::string> body;
    std::vector<std::string> vars;
    std::vector<std::string> last_vars;  // of the last live atom
    const size_t live_atoms = 1 + rng.NextIndex(3);
    for (size_t a = 0; a < live_atoms; ++a) {
      const size_t r = rng.NextIndex(num_rels);
      std::vector<std::string> terms;
      last_vars.clear();
      for (size_t c = 0; c < arity[r]; ++c) {
        if (rng.NextBool(0.15)) {
          terms.push_back(std::to_string(rng.NextInt(0, 3)));
        } else if (rng.NextBool(0.2)) {
          terms.push_back("_");
        } else {
          terms.push_back("v" + std::to_string(rng.NextIndex(4)));
          vars.push_back(terms.back());
          last_vars.push_back(terms.back());
        }
      }
      body.push_back(atom_text(r, terms));
    }
    // Padding atoms: their own variable (d0, d1) occurs nowhere else in the
    // rule. They may also reuse live variables, which makes them key probes,
    // or binders when the planner puts them first.
    const size_t dead_atoms = 1 + rng.NextIndex(2);
    for (size_t a = 0; a < dead_atoms; ++a) {
      const size_t r = rng.NextIndex(num_rels);
      const std::string dead = "d" + std::to_string(a);
      std::vector<std::string> terms;
      for (size_t c = 0; c < arity[r]; ++c) {
        switch (rng.NextIndex(4)) {
          case 0:
            terms.push_back(dead);  // repeated within the atom when drawn twice
            break;
          case 1:
            terms.push_back(std::to_string(rng.NextInt(0, 3)));
            break;
          case 2:
            terms.push_back(vars.empty() ? "_" : vars[rng.NextIndex(vars.size())]);
            break;
          default:
            terms.push_back("_");
            break;
        }
      }
      body.insert(body.begin() + static_cast<long>(rng.NextIndex(body.size() + 1)),
                  atom_text(r, terms));
    }
    if (with_empty && rng.NextBool(0.5)) {
      body.push_back(atom_text(0, std::vector<std::string>(arity[0], "_")));
    }
    // Heads reading only the last atom's variables leave the earlier join
    // variables to the body alone (an atom binding only those is not dead).
    const std::vector<std::string>& head_pool =
        last_vars.empty() || rng.NextBool(0.5) ? vars : last_vars;
    std::vector<std::string> heads;
    const size_t num_heads = 1 + rng.NextIndex(2);
    for (size_t h = 0; h < num_heads; ++h) {
      const size_t which = (ri + h) % 2;
      std::string head = "H" + std::to_string(which) + "(";
      for (size_t c = 0; c < head_arity[which]; ++c) {
        head += c > 0 ? ", " : "";
        head += head_pool.empty() || rng.NextBool(0.1)
                    ? std::to_string(rng.NextInt(0, 3))
                    : head_pool[rng.NextIndex(head_pool.size())];
      }
      heads.push_back(head + ")");
    }
    for (size_t h = 0; h < heads.size(); ++h) text += (h > 0 ? ", " : "") + heads[h];
    text += " :- ";
    for (size_t a = 0; a < body.size(); ++a) text += (a > 0 ? ", " : "") + body[a];
    text += ".\n";
  }
  SCOPED_TRACE(text);
  ASSERT_OK_AND_ASSIGN(Program program, Program::Parse(text));
  const auto expected = NaiveEval(program, db);

  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out, engine.EvalAutoSignatures(program, db));
  for (const auto& [name, rows] : expected) {
    std::vector<std::vector<Value>> got = RowsInOrder(*out.Find(name).ValueOrDie());
    EXPECT_EQ(std::set<std::vector<Value>>(got.begin(), got.end()), rows) << name;
    EXPECT_EQ(got.size(), rows.size()) << name << " has duplicate rows";
  }
  // A rule over an empty relation derives nothing: when every rule reads
  // the empty relation, every head comes out empty.
  if (with_empty) {
    bool all_read_empty = true;
    for (const Rule& rule : program.rules) {
      bool reads = false;
      for (const Atom& a : rule.body) reads = reads || a.relation == "R0";
      all_read_empty = all_read_empty && reads;
    }
    if (all_read_empty) {
      for (const auto& [name, rows] : expected) {
        EXPECT_EQ(out.Find(name).ValueOrDie()->size(), 0u) << name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExistentialCutProperty, ::testing::Range(0, 500));

TEST(ExistentialCut, DeadAtomKeepsRowsAndTheirOrder) {
  FactDatabase db;
  db.DeclareRelation("A", {"x", "y"}).ValueOrDie();
  db.DeclareRelation("B", {"p", "q"}).ValueOrDie();
  Rng rng(11);
  for (int i = 0; i < 600; ++i) {
    db.AddFact("A", Tuple({Value::Int(rng.NextInt(0, 200)), Value::Int(rng.NextInt(0, 50))}));
    db.AddFact("B", Tuple({Value::Int(i), Value::Int(i % 7)}));
  }
  ASSERT_OK_AND_ASSIGN(Program plain, Program::Parse("H(x, y) :- A(x, y)."));
  ASSERT_OK_AND_ASSIGN(Program padded, Program::Parse("H(x, y) :- A(x, y), B(_, _)."));
  ASSERT_OK_AND_ASSIGN(Program padded_first, Program::Parse("H(x, y) :- B(_, _), A(x, y)."));
  DatalogEngine reference;
  ASSERT_OK_AND_ASSIGN(FactDatabase want, reference.EvalAutoSignatures(plain, db));
  const auto want_rows = RowsInOrder(*want.Find("H").ValueOrDie());
  for (const Program* p : {&padded, &padded_first}) {
    DatalogEngine engine;
    ASSERT_OK_AND_ASSIGN(FactDatabase got, engine.EvalAutoSignatures(*p, db));
    EXPECT_EQ(RowsInOrder(*got.Find("H").ValueOrDie()), want_rows) << p->ToString();
  }
}

TEST(ExistentialCut, CrossProductOfDeadAtomsStaysLinear) {
  // Without the cut this is |A|·|B|·|C| = 10^15 candidates.
  constexpr int kRows = 100'000;
  FactDatabase db;
  for (const char* name : {"A", "B", "C"}) {
    db.DeclareRelation(name, {"v"}).ValueOrDie();
    for (int i = 0; i < kRows; ++i) db.AddFact(name, Tuple({Value::Int(i)}));
  }
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("H(x) :- A(x), B(_), C(_)."));
  DatalogEngine engine;
  const RunContext ctx = RunContext::WithTimeout(30);
  ASSERT_OK_AND_ASSIGN(FactDatabase out, engine.EvalAutoSignatures(p, db, &ctx));
  EXPECT_EQ(out.Find("H").ValueOrDie()->size(), static_cast<size_t>(kRows));
}

}  // namespace
}  // namespace dynamite
