// Tests for the columnar relation storage (ISSUE 2): dedup-after-append
// invariants, zero-copy projection views vs. materialized projections,
// RowRef stability across appends, engine output equivalence across plan
// configurations, repeated Evals on one engine, facts round-trips over all
// three instance kinds, and positional SetEquals.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "datalog/engine.h"
#include "instance/document.h"
#include "instance/graph.h"
#include "instance/relational.h"
#include "migrate/facts.h"
#include "schema/schema_builder.h"
#include "testing.h"
#include "value/relation.h"

namespace dynamite {
namespace {

using ::dynamite::testing::MotivatingExample;
using ::dynamite::testing::UnivSchema;

Relation MakeWide(int n, int last_mod) {
  Relation r("wide", {"a", "b", "c", "d"});
  for (int i = 0; i < n; ++i) {
    r.Insert(Tuple({Value::Int(i % 13), Value::String("s" + std::to_string(i % 7)),
                    Value::Int(i), Value::Int(i % last_mod)}));
  }
  return r;
}

// ------------------------------------------------- dedup / append invariants

TEST(ColumnarStorage, InsertRowDeduplicatesAcrossRehashGrowth) {
  Relation r("r", {"x", "y"});
  std::vector<Value> row(2);
  for (int i = 0; i < 5000; ++i) {
    row[0] = Value::Int(i % 100);
    row[1] = Value::Int(i % 37);
    bool fresh = r.InsertRow(row.data(), row.size());
    // (i % 100, i % 37) repeats with period lcm(100, 37) = 3700.
    EXPECT_EQ(fresh, i < 3700) << "at i=" << i;
  }
  EXPECT_EQ(r.size(), 3700u);
  // Columns stay parallel: every column holds exactly one cell per row.
  EXPECT_EQ(r.column(0).size(), r.size());
  EXPECT_EQ(r.column(1).size(), r.size());
  // Membership agrees with the dedup decisions made during insertion.
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(r.Contains(Tuple({Value::Int(i % 100), Value::Int(i % 37)})));
  }
  EXPECT_FALSE(r.Contains(Tuple({Value::Int(100), Value::Int(0)})));
}

TEST(ColumnarStorage, InsertRowAndInsertTupleAreInterchangeable) {
  Relation a("r", {"x", "y"}), b("r", {"x", "y"});
  for (int i = 0; i < 50; ++i) {
    Tuple t({Value::Int(i % 10), Value::String("v" + std::to_string(i % 4))});
    a.Insert(t);
    std::vector<Value> row = {t[0], t[1]};
    b.InsertRow(row);
  }
  EXPECT_EQ(a.size(), b.size());
  EXPECT_TRUE(a.SetEquals(b));
  // Memoized row hashes match the Tuple hash algorithm, so Tuple probes hit.
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.row_hash(i), a.TupleAt(i).Hash());
  }
}

TEST(ColumnarStorage, RowRefStaysValidAcrossAppends) {
  Relation r("r", {"x", "y"});
  r.Insert(Tuple({Value::Int(0), Value::String("first")}));
  RowRef first = r.row(0);
  // Force repeated column reallocations.
  for (int i = 1; i < 4000; ++i) {
    r.Insert(Tuple({Value::Int(i), Value::String("v" + std::to_string(i))}));
  }
  EXPECT_EQ(first[0], Value::Int(0));
  EXPECT_EQ(first[1], Value::String("first"));
  EXPECT_EQ(first.ToTuple(), Tuple({Value::Int(0), Value::String("first")}));
}

// -------------------------------------------------- zero-copy projections

TEST(ColumnarProjection, ViewMatchesRowMajorReferenceOnMaterialize) {
  Relation r = MakeWide(500, 3);
  ASSERT_OK_AND_ASSIGN(RelationView view, r.Project({"b", "d"}));
  EXPECT_EQ(view.base_rows(), r.size());  // zero-copy: duplicates visible

  // Row-major reference: project each tuple, fold duplicates via a set.
  std::set<Tuple> reference;
  for (size_t i = 0; i < r.size(); ++i) {
    reference.insert(r.TupleAt(i).Project({1, 3}));
  }
  Relation materialized = view.Materialize();
  EXPECT_EQ(materialized.size(), reference.size());
  for (const Tuple& t : reference) EXPECT_TRUE(materialized.Contains(t));
  EXPECT_EQ(materialized.attributes(), (std::vector<std::string>{"b", "d"}));
}

TEST(ColumnarProjection, ViewSetEqualsAgreesWithMaterializedSetEquals) {
  Relation a = MakeWide(400, 3);
  Relation b = MakeWide(400, 5);  // differs only in column d
  for (const auto& attrs : std::vector<std::vector<std::string>>{
           {"a"}, {"b"}, {"a", "b"}, {"a", "c"}, {"d"}, {"a", "b", "c", "d"}}) {
    ASSERT_OK_AND_ASSIGN(RelationView va, a.Project(attrs));
    ASSERT_OK_AND_ASSIGN(RelationView vb, b.Project(attrs));
    bool zero_copy = va.SetEquals(vb);
    bool materialized = va.Materialize().SetEquals(vb.Materialize());
    EXPECT_EQ(zero_copy, materialized) << "projection onto " << attrs[0];
    EXPECT_TRUE(va.SetEquals(va));
  }
}

TEST(ColumnarProjection, ViewIsAWindowNotASnapshot) {
  Relation r("r", {"x", "y"});
  r.Insert(Tuple({Value::Int(1), Value::Int(10)}));
  ASSERT_OK_AND_ASSIGN(RelationView view, r.Project({"y"}));
  EXPECT_EQ(view.base_rows(), 1u);
  r.Insert(Tuple({Value::Int(2), Value::Int(20)}));
  EXPECT_EQ(view.base_rows(), 2u);
  EXPECT_EQ(view.At(1, 0), Value::Int(20));
}

TEST(ColumnarProjection, DuplicateFoldingDiffersFromBaseCount) {
  Relation a("r", {"x", "y"}), b("r", {"x", "y"});
  a.Insert(Tuple({Value::Int(1), Value::Int(1)}));
  a.Insert(Tuple({Value::Int(1), Value::Int(2)}));
  a.Insert(Tuple({Value::Int(2), Value::Int(3)}));
  b.Insert(Tuple({Value::Int(1), Value::Int(9)}));
  b.Insert(Tuple({Value::Int(2), Value::Int(8)}));
  // Projections onto x fold a's duplicate: {1, 2} on both sides.
  ASSERT_OK_AND_ASSIGN(RelationView va, a.Project({"x"}));
  ASSERT_OK_AND_ASSIGN(RelationView vb, b.Project({"x"}));
  EXPECT_NE(va.base_rows(), vb.base_rows());
  EXPECT_TRUE(va.SetEquals(vb));
  EXPECT_TRUE(vb.SetEquals(va));
  // Onto y they differ.
  ASSERT_OK_AND_ASSIGN(RelationView ya, a.Project({"y"}));
  ASSERT_OK_AND_ASSIGN(RelationView yb, b.Project({"y"}));
  EXPECT_FALSE(ya.SetEquals(yb));
}

// ------------------------------------------------------ SetEquals semantics

TEST(SetEquals, PositionalByDefaultIgnoresAttributeNames) {
  Relation a("A", {"x", "y"}), b("B", {"p", "q"});
  a.Insert(Tuple({Value::Int(1), Value::Int(2)}));
  b.Insert(Tuple({Value::Int(1), Value::Int(2)}));
  EXPECT_TRUE(a.SetEquals(b));  // names differ, positions agree
}

// ------------------------------------- engine outputs across plan configs

/// Programs mirroring tests/datalog_test.cc's engine coverage: joins,
/// constants, repeated variables, multi-head rules, a join that closes a
/// cycle, and multi-rule programs.
const char* kEngineEquivalencePrograms[] = {
    "path2(x, y) :- edge(x, z), edge(z, y).",
    "from1(y) :- edge(1, y).",
    "loop(x) :- edge(x, x).",
    "A(x), B(y, x) :- edge(x, y).",
    R"(hop(x, y) :- edge(x, y).
       hop(x, y) :- edge(x, z), edge(z, y).
       cycle3(x) :- edge(x, y), edge(y, z), edge(z, x).)",
    R"(same(x, y) :- edge(x, z), edge(y, z).
       linked(x) :- edge(x, z), edge(y, z), edge(y, 1).)",
};

TEST(ColumnarEngine, OutputsInvariantUnderPlanConfiguration) {
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  for (int i = 0; i < 30; ++i) {
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i + 1) % 30)}));
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i * 3 + 1) % 30)}));
  }
  db.AddFact("edge", Tuple({Value::Int(5), Value::Int(5)}));
  for (const char* text : kEngineEquivalencePrograms) {
    ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(text));
    DatalogEngine::Options reordered;  // defaults: reorder on
    DatalogEngine::Options plain;
    plain.reorder_joins = false;
    DatalogEngine reused_engine(reordered);
    auto a = reused_engine.EvalAutoSignatures(p, db);
    auto b = reused_engine.EvalAutoSignatures(p, db);  // a second call
    auto c = DatalogEngine(plain).EvalAutoSignatures(p, db);
    ASSERT_TRUE(a.ok()) << text << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << text << ": " << b.status().ToString();
    ASSERT_TRUE(c.ok()) << text << ": " << c.status().ToString();
    EXPECT_TRUE(a.ValueOrDie().SetEquals(b.ValueOrDie())) << text;
    EXPECT_TRUE(a.ValueOrDie().SetEquals(c.ValueOrDie())) << text;
  }
}

// --------------------------------------------- repeated Evals on one engine

// An engine reused across Evals keeps nothing between them: each Eval builds
// its join indexes and plans its join order for the sizes it sees. Results
// must follow the data as it grows between calls.

TEST(RepeatedEval, SameEngineFollowsEdbGrowth) {
  FactDatabase db;
  db.DeclareRelation("r", {"a", "b"}).ValueOrDie();
  db.DeclareRelation("s", {"b", "c"}).ValueOrDie();
  for (int i = 0; i < 4; ++i) {
    db.AddFact("r", Tuple({Value::Int(i), Value::Int(i % 2)}));
    db.AddFact("s", Tuple({Value::Int(i % 2), Value::Int(i)}));
  }
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("q(a, c) :- r(a, b), s(b, c)."));

  DatalogEngine engine;
  auto first = engine.EvalAutoSignatures(p, db);
  ASSERT_TRUE(first.ok());
  auto second = engine.EvalAutoSignatures(p, db);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.ValueOrDie().SetEquals(first.ValueOrDie()));

  // Grow r 16x under the same engine.
  for (int i = 4; i < 64; ++i) {
    db.AddFact("r", Tuple({Value::Int(i), Value::Int(i % 2)}));
  }
  auto third = engine.EvalAutoSignatures(p, db);
  ASSERT_TRUE(third.ok());
  const Relation* q = third.ValueOrDie().Find("q").ValueOrDie();
  EXPECT_EQ(q->size(), 64u * 2u);  // each r row matches 2 s rows
  auto fourth = engine.EvalAutoSignatures(p, db);
  ASSERT_TRUE(fourth.ok());
  EXPECT_TRUE(fourth.ValueOrDie().SetEquals(third.ValueOrDie()));
}

TEST(RepeatedEval, SameEngineFollowsIdbGrowth) {
  // A two-rule program whose output grows 16x between Evals while one of
  // the relations it joins (`link`) stays put.
  FactDatabase db;
  db.DeclareRelation("base", {"x", "y"}).ValueOrDie();
  db.DeclareRelation("link", {"z", "y"}).ValueOrDie();
  for (int i = 0; i < 3; ++i) {
    db.AddFact("link", Tuple({Value::Int(i), Value::Int(i + 1)}));
  }
  for (int i = 0; i < 4; ++i) {
    db.AddFact("base", Tuple({Value::Int(i), Value::Int(i % 4)}));
  }
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(R"(
    p(x, y) :- base(x, y).
    p(x, y) :- base(x, z), link(z, y).
  )"));

  DatalogEngine engine;
  auto first = engine.EvalAutoSignatures(p, db);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.ValueOrDie().Find("p").ValueOrDie()->size(), 7u);
  auto second = engine.EvalAutoSignatures(p, db);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.ValueOrDie().SetEquals(first.ValueOrDie()));

  // Grow base 16x: p's first rule derives 64 rows instead of 4.
  for (int i = 4; i < 64; ++i) {
    db.AddFact("base", Tuple({Value::Int(i), Value::Int(i % 4)}));
  }
  auto third = engine.EvalAutoSignatures(p, db);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.ValueOrDie().Find("p").ValueOrDie()->size(), 112u);
  auto fourth = engine.EvalAutoSignatures(p, db);
  ASSERT_TRUE(fourth.ok());
  EXPECT_TRUE(fourth.ValueOrDie().SetEquals(third.ValueOrDie()));
}

// ----------------------------------------------- facts round-trips (3 kinds)

TEST(FactsRoundTrip, RelationalInstance) {
  auto schema = RelationalSchemaBuilder()
                    .AddTable("t", {{"a", PrimitiveType::kInt}, {"b", PrimitiveType::kString}})
                    .Build()
                    .ValueOrDie();
  RelationalInstance inst;
  ASSERT_OK(inst.DeclareTable(schema, "t"));
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(inst.InsertRow("t", {Value::Int(i), Value::String("row" + std::to_string(i))}));
  }
  ASSERT_OK_AND_ASSIGN(RecordForest forest, inst.ToForest(schema));
  uint64_t next_id = 1;
  ASSERT_OK_AND_ASSIGN(FactDatabase facts, ToFacts(forest, schema, &next_id));
  EXPECT_EQ(facts.Find("t").ValueOrDie()->size(), 100u);
  ASSERT_OK_AND_ASSIGN(RecordForest back, BuildForest(facts, schema));
  EXPECT_TRUE(ForestEquals(forest, back));
  ASSERT_OK_AND_ASSIGN(RelationalInstance inst_back,
                       RelationalInstance::FromForest(back, schema));
  EXPECT_TRUE(inst_back.Table("t").ValueOrDie()->SetEquals(*inst.Table("t").ValueOrDie()));
}

TEST(FactsRoundTrip, DocumentInstance) {
  // Nested documents exercise the parent-column id machinery.
  Example e = MotivatingExample();
  uint64_t next_id = 1;
  ASSERT_OK_AND_ASSIGN(FactDatabase facts, ToFacts(e.input, UnivSchema(), &next_id));
  ASSERT_OK_AND_ASSIGN(RecordForest back, BuildForest(facts, UnivSchema()));
  EXPECT_TRUE(ForestEquals(e.input, back));
  ASSERT_OK_AND_ASSIGN(DocumentInstance doc,
                       DocumentInstance::FromForest(back, UnivSchema()));
  ASSERT_OK_AND_ASSIGN(RecordForest doc_forest, doc.ToForest(UnivSchema()));
  EXPECT_TRUE(ForestEquals(e.input, doc_forest));
}

TEST(FactsRoundTrip, GraphInstance) {
  auto schema = GraphSchemaBuilder()
                    .AddNodeType("N", {{"nid", PrimitiveType::kInt},
                                       {"label", PrimitiveType::kString}})
                    .AddEdgeType("E", {{"w", PrimitiveType::kInt}}, "e")
                    .Build()
                    .ValueOrDie();
  GraphInstance g;
  for (int i = 0; i < 20; ++i) {
    g.AddNode(GraphNode{"N", {{"nid", Value::Int(i)},
                              {"label", Value::String("n" + std::to_string(i))}}});
    g.AddEdge(GraphEdge{"E", i, (i + 1) % 20, {{"w", Value::Int(i * 10)}}});
  }
  ASSERT_OK_AND_ASSIGN(RecordForest forest, g.ToForest(schema));
  uint64_t next_id = 1;
  ASSERT_OK_AND_ASSIGN(FactDatabase facts, ToFacts(forest, schema, &next_id));
  ASSERT_OK_AND_ASSIGN(RecordForest back, BuildForest(facts, schema));
  EXPECT_TRUE(ForestEquals(forest, back));
  ASSERT_OK_AND_ASSIGN(GraphInstance g_back,
                       GraphInstance::FromForest(back, schema, {{"E", "e"}}));
  EXPECT_EQ(g_back.nodes().size(), 20u);
  EXPECT_EQ(g_back.edges().size(), 20u);
}

}  // namespace
}  // namespace dynamite
