// Tests for the interned-value runtime and the engine's join machinery:
// string pool identity, memoized tuple hashes, single-storage relations,
// join indexes, and join-order invariance.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "datalog/engine.h"
#include "datalog/index.h"
#include "util/rng.h"
#include "value/database.h"
#include "value/relation.h"
#include "value/string_pool.h"
#include "value/value.h"

namespace dynamite {
namespace {

// ----------------------------------------------------------- string pool ---

TEST(StringPool, InternIsIdempotent) {
  StringPool& pool = StringPool::Global();
  uint32_t a = pool.Intern("runtime_test_alpha");
  uint32_t b = pool.Intern("runtime_test_alpha");
  EXPECT_EQ(a, b);
  EXPECT_EQ(pool.Get(a), "runtime_test_alpha");
}

TEST(StringPool, DistinctStringsGetDistinctIds) {
  StringPool& pool = StringPool::Global();
  uint32_t a = pool.Intern("runtime_test_x");
  uint32_t b = pool.Intern("runtime_test_y");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Get(a), "runtime_test_x");
  EXPECT_EQ(pool.Get(b), "runtime_test_y");
}

TEST(StringPool, RoundTripThroughValue) {
  Value v = Value::String("runtime_test_round_trip");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "runtime_test_round_trip");
  // Equal strings intern to the same id, so equality is id equality.
  Value w = Value::String(std::string("runtime_test_") + "round_trip");
  EXPECT_EQ(v.string_id(), w.string_id());
  EXPECT_EQ(v, w);
  EXPECT_EQ(v.Hash(), w.Hash());
}

TEST(StringPool, OverflowFailsFastInsteadOfAliasing) {
  // Regression test for the id-truncation bug: past 2^32 entries the old
  // `static_cast<uint32_t>(strings_.size())` wrapped around and handed a
  // *reused* id to a brand-new string, silently aliasing distinct strings.
  // A capped pool exercises the same boundary without 2^32 interns: the
  // overflowing intern must fail, not corrupt the id space.
  StringPool pool(/*max_strings=*/3);
  uint32_t a = pool.Intern("overflow_a");
  uint32_t b = pool.Intern("overflow_b");
  uint32_t c = pool.Intern("overflow_c");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);

  Result<uint32_t> overflow = pool.TryIntern("overflow_d");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfRange);

  // The pool is still intact: existing strings resolve, re-interning them
  // is still a hit (no id was consumed or aliased by the failed intern).
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.Get(a), "overflow_a");
  EXPECT_EQ(pool.Get(c), "overflow_c");
  EXPECT_EQ(pool.Intern("overflow_b"), b);
  EXPECT_FALSE(pool.TryIntern("overflow_e").ok());
}

TEST(StringPool, ReferencesAreStableAcrossGrowth) {
  const std::string& first = Value::String("runtime_test_stable").AsString();
  const char* data_before = first.data();
  for (int i = 0; i < 1000; ++i) {
    Value::String("runtime_test_filler_" + std::to_string(i));
  }
  EXPECT_EQ(first.data(), data_before);
  EXPECT_EQ(first, "runtime_test_stable");
}

TEST(ValuePod, SixteenBytesAndOrdering) {
  EXPECT_EQ(sizeof(Value), 16u);
  // Lexicographic string ordering survives interning (ids are assigned in
  // first-sight order, which is not lexicographic).
  Value z = Value::String("runtime_test_zzz");
  Value a = Value::String("runtime_test_aaa");
  EXPECT_LT(a, z);
  EXPECT_FALSE(z < a);
}

// ---------------------------------------------------------- tuple hashes ---

TEST(TupleHash, ConsistentAfterAppend) {
  Tuple t({Value::Int(1), Value::String("runtime_test_hash")});
  size_t before = t.Hash();
  t.Append(Value::Int(2));
  size_t after = t.Hash();
  // The memoized hash must be recomputed, matching a freshly built tuple.
  Tuple fresh({Value::Int(1), Value::String("runtime_test_hash"), Value::Int(2)});
  EXPECT_EQ(after, fresh.Hash());
  EXPECT_NE(before, after);
  EXPECT_EQ(t, fresh);
}

TEST(TupleHash, ConsistentAfterMutationThroughOperator) {
  Tuple t({Value::Int(1), Value::Int(2)});
  size_t before = t.Hash();
  t[1] = Value::Int(3);
  Tuple fresh({Value::Int(1), Value::Int(3)});
  EXPECT_EQ(t.Hash(), fresh.Hash());
  EXPECT_NE(t.Hash(), before);
}

TEST(TupleHash, NeverReturnsUnsetSentinel) {
  EXPECT_NE(Tuple().Hash(), 0u);
  EXPECT_NE(Tuple({Value::Null()}).Hash(), 0u);
}

// --------------------------------------------------------------- relation ---

TEST(RelationStorage, InsertDeduplicatesAndKeepsOrder) {
  Relation r("r", {"a", "b"});
  EXPECT_TRUE(r.Insert(Tuple({Value::Int(1), Value::String("runtime_test_one")})));
  EXPECT_TRUE(r.Insert(Tuple({Value::Int(2), Value::String("runtime_test_two")})));
  EXPECT_FALSE(r.Insert(Tuple({Value::Int(1), Value::String("runtime_test_one")})));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(Tuple({Value::Int(2), Value::String("runtime_test_two")})));
  EXPECT_FALSE(r.Contains(Tuple({Value::Int(3), Value::String("runtime_test_two")})));
  EXPECT_EQ(r.row(0)[0], Value::Int(1));
  EXPECT_EQ(r.row(1)[0], Value::Int(2));
  // Column-major accessors see the same data.
  EXPECT_EQ(r.column(0)[0], Value::Int(1));
  EXPECT_EQ(r.cell(1, 1), Value::String("runtime_test_two"));
}

TEST(RelationStorage, SurvivesRehashGrowth) {
  Relation r("r", {"a"});
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(r.Insert(Tuple({Value::Int(i)})));
  }
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(r.Insert(Tuple({Value::Int(i)})));
    EXPECT_TRUE(r.Contains(Tuple({Value::Int(i)})));
  }
  EXPECT_EQ(r.size(), 10000u);
}

TEST(RelationStorage, CopiesAndMovesKeepRows) {
  Relation r("r", {"a"});
  r.Insert(Tuple({Value::Int(1)}));
  r.Insert(Tuple({Value::Int(2)}));
  Relation copy = r;
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_TRUE(copy.SetEquals(r));
  // The copy owns its storage: growing it leaves the original as it was.
  EXPECT_TRUE(copy.Insert(Tuple({Value::Int(3)})));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_FALSE(r.Contains(Tuple({Value::Int(3)})));

  Relation moved = std::move(r);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_TRUE(moved.Contains(Tuple({Value::Int(1)})));
  EXPECT_TRUE(moved.Contains(Tuple({Value::Int(2)})));
  EXPECT_FALSE(moved.Insert(Tuple({Value::Int(2)})));  // dedup table moved too
}

// ------------------------------------------------------------ join index ---

TEST(JoinIndex, GroupsEachKeysRowsAscending) {
  Relation r("edge", {"s", "t"});
  r.Insert(Tuple({Value::Int(1), Value::Int(2)}));
  r.Insert(Tuple({Value::Int(2), Value::Int(4)}));
  r.Insert(Tuple({Value::Int(1), Value::Int(3)}));
  JoinIndex idx(r, {0});
  Value one = Value::Int(1);
  PostingList both = idx.Lookup(r, &one, 1);  // a key with two rows
  EXPECT_EQ(std::vector<uint32_t>(both.begin(), both.end()), (std::vector<uint32_t>{0, 2}));
  Value two = Value::Int(2);
  PostingList single = idx.Lookup(r, &two, 1);  // a key's only row
  EXPECT_EQ(std::vector<uint32_t>(single.begin(), single.end()), std::vector<uint32_t>{1});
  Value missing = Value::Int(99);
  EXPECT_TRUE(idx.Lookup(r, &missing, 1).empty());
}

TEST(EngineConstants, IntAndFloatConstantsStayDistinct) {
  // Rule::ToString() prints Float(1.0) as "1", identical to Int(1); the
  // engine must match on exact constants, not the printout, also when one
  // engine evaluates both rules.
  FactDatabase db;
  db.DeclareRelation("r", {"a", "b"}).ValueOrDie();
  db.AddFact("r", Tuple({Value::String("introw"), Value::Int(1)}));
  db.AddFact("r", Tuple({Value::String("floatrow"), Value::Float(1.0)}));
  Program int_rule = Program::Parse("q(x) :- r(x, 1).").ValueOrDie();
  Program float_rule = Program::Parse("q(x) :- r(x, 1.0).").ValueOrDie();

  DatalogEngine engine;
  auto a = engine.EvalAutoSignatures(int_rule, db);
  auto b = engine.EvalAutoSignatures(float_rule, db);
  ASSERT_TRUE(a.ok() && b.ok());
  const Relation* qa = a.ValueOrDie().Find("q").ValueOrDie();
  const Relation* qb = b.ValueOrDie().Find("q").ValueOrDie();
  EXPECT_TRUE(qa->Contains(Tuple({Value::String("introw")})));
  EXPECT_FALSE(qa->Contains(Tuple({Value::String("floatrow")})));
  EXPECT_TRUE(qb->Contains(Tuple({Value::String("floatrow")})));
  EXPECT_FALSE(qb->Contains(Tuple({Value::String("introw")})));
}

TEST(RelationStorage, MovedFromRelationReadsEmpty) {
  Relation a("r", {"x"});
  a.Insert(Tuple({Value::Int(1)}));
  Relation b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_TRUE(b.Contains(Tuple({Value::Int(1)})));
  EXPECT_EQ(a.size(), 0u);
  EXPECT_TRUE(a.empty());

  Relation c("r", {"x"});
  c.Insert(Tuple({Value::Int(2)}));
  c.Insert(Tuple({Value::Int(3)}));
  b = std::move(c);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(c.size(), 0u);
}

// ------------------------------------------------------- join reordering ---

TEST(JoinReordering, ProducesIdenticalFixpoints) {
  // A 3-atom body whose selectivity order differs from the written order:
  // big(x, y) is large, small(y, z) tiny, const_rel('k', z) has a constant.
  FactDatabase db;
  db.DeclareRelation("big", {"x", "y"}).ValueOrDie();
  db.DeclareRelation("small", {"y", "z"}).ValueOrDie();
  db.DeclareRelation("tagged", {"t", "z"}).ValueOrDie();
  for (int i = 0; i < 200; ++i) {
    db.AddFact("big", Tuple({Value::Int(i), Value::Int(i % 10)}));
  }
  for (int y = 0; y < 10; ++y) {
    db.AddFact("small", Tuple({Value::Int(y), Value::Int(y % 3)}));
  }
  for (int z = 0; z < 3; ++z) {
    db.AddFact("tagged",
               Tuple({Value::String(z == 1 ? "keep" : "drop"), Value::Int(z)}));
  }
  Program p = Program::Parse(R"(
    picked(x, z) :- big(x, y), small(y, z), tagged("keep", z).
    chain(x, w) :- big(x, y), small(y, z), tagged("keep", z), small(w, z), big(w, _).
  )").ValueOrDie();

  DatalogEngine::Options reordered;
  reordered.reorder_joins = true;
  DatalogEngine::Options in_order;
  in_order.reorder_joins = false;
  auto a = DatalogEngine(reordered).EvalAutoSignatures(p, db);
  auto b = DatalogEngine(in_order).EvalAutoSignatures(p, db);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(a.ValueOrDie().SetEquals(b.ValueOrDie()));
  EXPECT_GT(a.ValueOrDie().Find("picked").ValueOrDie()->size(), 0u);
  EXPECT_GT(a.ValueOrDie().Find("chain").ValueOrDie()->size(), 0u);
}

TEST(JoinReordering, RandomProgramsOverSkewedColumns) {
  // Random multi-rule programs, some rules with two heads, over relations
  // whose columns range from one value to nearly unique ones, with
  // constants and variables repeated within an atom. The planner's order,
  // by bound positions, then cardinality, must derive the same sets as the
  // written order.
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed * 104729 + 7);
    FactDatabase db;
    const size_t num_rels = 2 + rng.NextIndex(3);
    std::vector<size_t> arity(num_rels);
    for (size_t r = 0; r < num_rels; ++r) {
      arity[r] = 1 + rng.NextIndex(3);
      std::vector<std::string> attrs;
      for (size_t c = 0; c < arity[r]; ++c) attrs.push_back("c" + std::to_string(c));
      const std::string name = "E" + std::to_string(r);
      db.DeclareRelation(name, attrs).ValueOrDie();
      // Per column, 1 to 32 distinct values, the smaller ones more often.
      std::vector<size_t> distinct(arity[r]);
      for (size_t& d : distinct) d = size_t{1} << rng.NextIndex(6);
      const size_t rows = rng.NextIndex(25);
      for (size_t i = 0; i < rows; ++i) {
        std::vector<Value> row;
        for (size_t c = 0; c < arity[r]; ++c) {
          const size_t v = std::min(rng.NextIndex(distinct[c]), rng.NextIndex(distinct[c]));
          row.push_back(Value::Int(static_cast<int64_t>(v)));
        }
        db.AddFact(name, Tuple(row));
      }
    }

    // IDB relations P/2 and Q/1; the first two rules derive one each, and
    // any rule may derive both.
    auto term = [&](std::vector<std::string>* vars) {
      if (rng.NextBool(0.1)) return std::to_string(rng.NextInt(0, 3));
      if (rng.NextBool(0.15)) return std::string("_");
      vars->push_back("v" + std::to_string(rng.NextIndex(5)));
      return vars->back();
    };
    std::string text;
    const size_t num_rules = 2 + rng.NextIndex(3);
    for (size_t ri = 0; ri < num_rules; ++ri) {
      std::vector<std::string> vars;
      std::string body;
      const size_t atoms = 1 + rng.NextIndex(4);
      for (size_t a = 0; a < atoms; ++a) {
        const size_t r = rng.NextIndex(num_rels);
        std::string atom = "E" + std::to_string(r) + "(";
        for (size_t c = 0; c < arity[r]; ++c) atom += (c > 0 ? ", " : "") + term(&vars);
        body += (a > 0 ? ", " : "") + atom + ")";
      }
      auto head = [&](bool p) {
        std::string h = p ? "P(" : "Q(";
        for (size_t c = 0; c < (p ? 2u : 1u); ++c) {
          h += c > 0 ? ", " : "";
          h += vars.empty() ? std::to_string(rng.NextInt(0, 3)) : vars[rng.NextIndex(vars.size())];
        }
        return h + ")";
      };
      const bool p = ri == 0 || (ri != 1 && rng.NextBool());
      std::string heads = head(p);
      if (ri >= 2 && rng.NextBool(0.3)) heads += ", " + head(!p);
      text += heads + " :- " + body + ".\n";
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + text);
    auto program = Program::Parse(text);
    ASSERT_TRUE(program.ok()) << program.status().ToString();

    DatalogEngine::Options reordered;
    reordered.reorder_joins = true;
    DatalogEngine::Options in_order;
    in_order.reorder_joins = false;
    auto a = DatalogEngine(reordered).EvalAutoSignatures(*program, db);
    auto b = DatalogEngine(in_order).EvalAutoSignatures(*program, db);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_TRUE(a.ValueOrDie().SetEquals(b.ValueOrDie()));
  }
}

}  // namespace
}  // namespace dynamite
