// Tests for the interned-value runtime and the incremental-index engine
// (ISSUE 1): string pool identity, memoized tuple hashes, single-storage
// relations, incremental join indexes, and join-order invariance.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "datalog/engine.h"
#include "datalog/index.h"
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

TEST(RelationStorage, CopiesGetFreshUidMovesKeepIt) {
  Relation r("r", {"a"});
  r.Insert(Tuple({Value::Int(1)}));
  uint64_t uid = r.uid();
  Relation copy = r;
  EXPECT_NE(copy.uid(), uid);
  EXPECT_TRUE(copy.Contains(Tuple({Value::Int(1)})));
  Relation moved = std::move(r);
  EXPECT_EQ(moved.uid(), uid);
  EXPECT_TRUE(moved.Contains(Tuple({Value::Int(1)})));
}

// ------------------------------------------------------------ join index ---

TEST(JoinIndex, IncrementalRefreshMatchesFromScratch) {
  Relation r("edge", {"s", "t"});
  JoinIndex incremental({0});
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      r.Insert(Tuple({Value::Int(round), Value::Int(i)}));
    }
    incremental.Refresh(r);
  }
  EXPECT_EQ(incremental.indexed_upto(), r.size());

  JoinIndex scratch({0});
  scratch.Refresh(r);
  for (int round = 0; round < 5; ++round) {
    Value key = Value::Int(round);
    const std::vector<uint32_t>* a = incremental.Lookup(r, &key, 1);
    const std::vector<uint32_t>* b = scratch.Lookup(r, &key, 1);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(*a, *b);
    // Posting lists are sorted ascending (required by delta range views).
    EXPECT_TRUE(std::is_sorted(a->begin(), a->end()));
  }
  Value missing = Value::Int(99);
  EXPECT_EQ(incremental.Lookup(r, &missing, 1), nullptr);
}

TEST(IndexCache, ReusesByUidAndExtends) {
  Relation r("edge", {"s", "t"});
  r.Insert(Tuple({Value::Int(1), Value::Int(2)}));
  IndexCache cache;
  JoinIndex* idx = cache.Get(r, {0});
  EXPECT_EQ(idx->indexed_upto(), 1u);
  r.Insert(Tuple({Value::Int(1), Value::Int(3)}));
  JoinIndex* again = cache.Get(r, {0});
  EXPECT_EQ(again, idx);  // same (uid, positions) -> same index, extended
  EXPECT_EQ(again->indexed_upto(), 2u);
  Value key = Value::Int(1);
  ASSERT_NE(again->Lookup(r, &key, 1), nullptr);
  EXPECT_EQ(again->Lookup(r, &key, 1)->size(), 2u);
  // A copy is a different instance: it must not share the cached index.
  Relation copy = r;
  JoinIndex* copy_idx = cache.Get(copy, {0});
  EXPECT_NE(copy_idx, idx);
}

// ------------------------------------------- semi-naive vs. reference TC ---

/// Reference transitive closure by iterated squaring over plain sets.
std::set<std::pair<int, int>> ReferenceClosure(const std::set<std::pair<int, int>>& edges) {
  std::set<std::pair<int, int>> closure = edges;
  bool changed = true;
  while (changed) {
    changed = false;
    std::set<std::pair<int, int>> next = closure;
    for (const auto& [a, b] : closure) {
      for (const auto& [c, d] : closure) {
        if (b == c && next.emplace(a, d).second) changed = true;
      }
    }
    closure = std::move(next);
  }
  return closure;
}

TEST(SemiNaive, TransitiveClosureMatchesReference) {
  // A graph with a cycle, a tail, and a disconnected component.
  std::set<std::pair<int, int>> edges = {{0, 1}, {1, 2}, {2, 0}, {2, 3},
                                         {3, 4}, {7, 8}, {8, 9}};
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  db.DeclareRelation("T", {"n"}).ValueOrDie();
  for (const auto& [a, b] : edges) {
    ASSERT_TRUE(db.AddFact("edge", Tuple({Value::Int(a), Value::Int(b)})).ok());
    ASSERT_TRUE(db.AddFact("T", Tuple({Value::Int(a)})).ok());
  }
  // The second program pads both rules with existence-only atoms, over an
  // EDB relation and over the recursive relation itself: the matcher's
  // existential cut must not change the fixpoint, including in the delta
  // plan that reads tc(_, _).
  for (const char* text : {R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )", R"(
    tc(x, y) :- edge(x, y), T(_).
    tc(x, y) :- T(_), tc(x, z), edge(z, y), tc(_, _).
  )"}) {
    SCOPED_TRACE(text);
    Program p = Program::Parse(text).ValueOrDie();
    DatalogEngine engine;
    auto out = engine.EvalAutoSignatures(p, db);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const Relation* tc = out.ValueOrDie().Find("tc").ValueOrDie();

    std::set<std::pair<int, int>> expected = ReferenceClosure(edges);
    EXPECT_EQ(tc->size(), expected.size());
    for (const auto& [a, b] : expected) {
      EXPECT_TRUE(tc->Contains(Tuple({Value::Int(a), Value::Int(b)})))
          << "missing (" << a << ", " << b << ")";
    }
  }
}

TEST(SemiNaive, StringClosureMatchesIntClosure) {
  // The same graph expressed over interned strings must produce the same
  // closure (exercises O(1) string equality inside the fixpoint).
  std::set<std::pair<int, int>> edges;
  for (int i = 0; i < 30; ++i) {
    edges.emplace(i, (i + 1) % 30);
    edges.emplace(i, (i * 7 + 3) % 30);
  }
  auto name = [](int i) { return "node_" + std::to_string(i); };
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  for (const auto& [a, b] : edges) {
    ASSERT_TRUE(
        db.AddFact("edge", Tuple({Value::String(name(a)), Value::String(name(b))})).ok());
  }
  Program p = Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )").ValueOrDie();
  DatalogEngine engine;
  auto out = engine.EvalAutoSignatures(p, db);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Relation* tc = out.ValueOrDie().Find("tc").ValueOrDie();

  std::set<std::pair<int, int>> expected = ReferenceClosure(edges);
  EXPECT_EQ(tc->size(), expected.size());
  for (const auto& [a, b] : expected) {
    EXPECT_TRUE(tc->Contains(Tuple({Value::String(name(a)), Value::String(name(b))})));
  }
}

TEST(SemiNaive, RepeatedEvalOnSameEngineIsStable) {
  // The engine caches EDB indexes and compiled rules across Eval calls (the
  // synthesizer's usage pattern); results must be identical every time.
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  for (int i = 0; i < 20; ++i) {
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i + 3) % 20)}));
  }
  Program p = Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )").ValueOrDie();
  DatalogEngine engine;
  auto first = engine.EvalAutoSignatures(p, db);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 3; ++i) {
    auto again = engine.EvalAutoSignatures(p, db);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again.ValueOrDie().SetEquals(first.ValueOrDie()));
  }
}

TEST(RuleCache, IntAndFloatConstantRulesDoNotCollide) {
  // Rule::ToString() prints Float(1.0) as "1", identical to Int(1); the
  // compiled-rule cache must key on exact constants, not the printout.
  FactDatabase db;
  db.DeclareRelation("r", {"a", "b"}).ValueOrDie();
  db.AddFact("r", Tuple({Value::String("introw"), Value::Int(1)}));
  db.AddFact("r", Tuple({Value::String("floatrow"), Value::Float(1.0)}));
  Program int_rule = Program::Parse("q(x) :- r(x, 1).").ValueOrDie();
  Program float_rule = Program::Parse("q(x) :- r(x, 1.0).").ValueOrDie();

  DatalogEngine engine;  // same engine: second Eval may hit the rule cache
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

TEST(RelationStorage, MovedFromRelationGetsFreshUid) {
  Relation a("r", {"x"});
  a.Insert(Tuple({Value::Int(1)}));
  uint64_t original_uid = a.uid();
  Relation b = std::move(a);
  EXPECT_EQ(b.uid(), original_uid);
  // Reusing the moved-from object must not impersonate b in uid-keyed
  // index caches.
  EXPECT_NE(a.uid(), original_uid);
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
    chain(x, w) :- picked(x, z), small(w, z), big(w, _).
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

TEST(JoinReordering, RecursiveProgramIdenticalFixpoints) {
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  db.DeclareRelation("allowed", {"n"}).ValueOrDie();
  for (int i = 0; i < 40; ++i) {
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i + 1) % 40)}));
    if (i % 2 == 0) db.AddFact("allowed", Tuple({Value::Int(i)}));
  }
  Program p = Program::Parse(R"(
    reach(x, y) :- edge(x, y), allowed(x).
    reach(x, y) :- reach(x, z), edge(z, y), allowed(z).
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
}

}  // namespace
}  // namespace dynamite
