// Unit tests for the instance <-> facts conversion (§3.3) and the flattened
// views used by MDP analysis.

#include <gtest/gtest.h>

#include <algorithm>

#include "migrate/facts.h"
#include "migrate/migrator.h"
#include "testing.h"

namespace dynamite {
namespace {

TEST(ToFacts, MotivatingExampleMatchesPaper) {
  // Example 4 of the paper: two Univ facts and four Admit facts where the
  // Admit parent ids equal the Univ record ids.
  Example e = testing::MotivatingExample();
  uint64_t next_id = 1;
  ASSERT_OK_AND_ASSIGN(FactDatabase db, ToFacts(e.input, testing::UnivSchema(), &next_id));
  const Relation* univ = db.Find("Univ").ValueOrDie();
  const Relation* admit = db.Find("Admit").ValueOrDie();
  ASSERT_EQ(univ->size(), 2u);
  ASSERT_EQ(admit->size(), 4u);
  // Signature: Univ(id, name, Admit) — the Admit column holds the record
  // identifier; Admit(_parent_Admit, uid, count).
  EXPECT_EQ(univ->attributes(), (std::vector<std::string>{"id", "name", "Admit"}));
  EXPECT_EQ(admit->attributes(),
            (std::vector<std::string>{"_parent_Admit", "uid", "count"}));
  // Every Admit parent id appears as some Univ record id (column-wise: the
  // parent ids are Admit's column 0 and the record ids Univ's column 2).
  for (const Value& parent : admit->column(0)) {
    bool found = false;
    for (const Value& univ_id : univ->column(2)) {
      if (univ_id == parent) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(ToFactsBuildForest, RoundTripsNestedInstance) {
  Example e = testing::MotivatingExample();
  uint64_t next_id = 1;
  ASSERT_OK_AND_ASSIGN(FactDatabase db, ToFacts(e.input, testing::UnivSchema(), &next_id));
  ASSERT_OK_AND_ASSIGN(RecordForest back, BuildForest(db, testing::UnivSchema()));
  EXPECT_TRUE(ForestEquals(e.input, back));
}

TEST(ToFactsBuildForest, RoundTripsFlatInstance) {
  Example e = testing::MotivatingExample();
  uint64_t next_id = 1;
  ASSERT_OK_AND_ASSIGN(FactDatabase db,
                       ToFacts(e.output, testing::AdmissionSchema(), &next_id));
  EXPECT_EQ(db.Find("Admission").ValueOrDie()->size(), 4u);
  ASSERT_OK_AND_ASSIGN(RecordForest back, BuildForest(db, testing::AdmissionSchema()));
  EXPECT_TRUE(ForestEquals(e.output, back));
}

TEST(ToFactsBuildForest, ChildIndexIsBuiltOncePerRelation) {
  // Regression pin for the build-once posting-list ChildIndex (ISSUE 9):
  // one index build per child relation regardless of how many parents chase
  // into it, and exactly one lookup per record-typed cell. A rebuild-per-
  // lookup regression shows up as builds == lookups.
  Example e = testing::MotivatingExample();
  uint64_t next_id = 1;
  ASSERT_OK_AND_ASSIGN(FactDatabase db, ToFacts(e.input, testing::UnivSchema(), &next_id));
  IngestStats stats;
  ASSERT_OK_AND_ASSIGN(RecordForest back,
                       BuildForest(db, testing::UnivSchema(), nullptr, &stats));
  EXPECT_TRUE(ForestEquals(e.input, back));
  // Univ is the only record type with a record-typed attribute (Admit): one
  // index build, one lookup per Univ root (2 roots in Example 4).
  EXPECT_EQ(stats.child_index_builds, 1u);
  EXPECT_EQ(stats.child_index_lookups, 2u);
}

TEST(ToFactsBuildForest, RejectsNestedRelationOfWrongArity) {
  // Admit's fact signature is (_parent_Admit, uid, count). A relation that
  // carries only the parent column is rejected up front, whether or not a
  // Univ record would lead into it.
  Example e = testing::MotivatingExample();
  uint64_t next_id = 1;
  ASSERT_OK_AND_ASSIGN(FactDatabase facts,
                       ToFacts(e.input, testing::UnivSchema(), &next_id));
  const Relation* univ = facts.Find("Univ").ValueOrDie();
  const Relation* admit = facts.Find("Admit").ValueOrDie();

  FactDatabase alone;
  ASSERT_OK(alone.DeclareRelation("Admit", {"_parent_Admit"}).status());
  for (const Value& parent : admit->column(0)) alone.AddFact("Admit", Tuple({parent}));
  Result<RecordForest> out = BuildForest(alone, testing::UnivSchema());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out.status().message(), "relation Admit has arity 1, schema expects 3");

  FactDatabase with_parents = std::move(alone);
  ASSERT_OK(with_parents.DeclareRelation("Univ", univ->attributes()).status());
  for (size_t r = 0; r < univ->size(); ++r) {
    with_parents.AddFact("Univ",
                         Tuple({univ->cell(r, 0), univ->cell(r, 1), univ->cell(r, 2)}));
  }
  out = BuildForest(with_parents, testing::UnivSchema());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out.status().message(), "relation Admit has arity 1, schema expects 3");
}

RecordForest WithReversedPrims(RecordForest forest) {
  std::vector<RecordNode*> stack;
  for (RecordNode& root : forest.roots) stack.push_back(&root);
  while (!stack.empty()) {
    RecordNode* node = stack.back();
    stack.pop_back();
    std::reverse(node->prims.begin(), node->prims.end());
    for (auto& [attr, kids] : node->children) {
      for (RecordNode& k : kids) stack.push_back(&k);
    }
  }
  return forest;
}

void ExpectSameRows(const Relation& a, const Relation& b) {
  EXPECT_EQ(a.attributes(), b.attributes());
  ASSERT_EQ(a.size(), b.size()) << a.name();
  for (size_t r = 0; r < a.size(); ++r) {
    for (size_t c = 0; c < a.arity(); ++c) {
      EXPECT_EQ(a.row(r)[c], b.row(r)[c]) << a.name() << " row " << r << " column " << c;
    }
  }
}

TEST(ToFacts, PrimOrderDoesNotChangeTheFacts) {
  // Prims out of schema order take the name-scan path; the facts, their
  // row order and their record ids must not depend on it.
  Example e = testing::MotivatingExample();
  RecordForest reversed = WithReversedPrims(e.input);
  uint64_t next_id = 1, reversed_next_id = 1;
  ASSERT_OK_AND_ASSIGN(FactDatabase db, ToFacts(e.input, testing::UnivSchema(), &next_id));
  ASSERT_OK_AND_ASSIGN(FactDatabase rdb,
                       ToFacts(reversed, testing::UnivSchema(), &reversed_next_id));
  EXPECT_EQ(next_id, reversed_next_id);
  ASSERT_EQ(db.RelationNames(), rdb.RelationNames());
  for (const std::string& name : db.RelationNames()) {
    ExpectSameRows(*db.Find(name).ValueOrDie(), *rdb.Find(name).ValueOrDie());
  }
}

TEST(FactSignatures, CoverAllRecords) {
  auto sigs = FactSignatures(testing::UnivSchema());
  ASSERT_EQ(sigs.size(), 2u);
  EXPECT_EQ(sigs.at("Univ").size(), 3u);
  EXPECT_EQ(sigs.at("Admit").size(), 3u);
}

TEST(FlattenView, FlatRelationIsItself) {
  Example e = testing::MotivatingExample();
  ASSERT_OK_AND_ASSIGN(Relation view,
                       FlattenForestView(e.output, testing::AdmissionSchema(), "Admission"));
  EXPECT_EQ(view.attributes(), (std::vector<std::string>{"grad", "ug", "num"}));
  EXPECT_EQ(view.size(), 4u);
}

TEST(FlattenView, NestedTreeJoinsParentAndChildren) {
  Example e = testing::MotivatingExample();
  ASSERT_OK_AND_ASSIGN(Relation view,
                       FlattenForestView(e.input, testing::UnivSchema(), "Univ"));
  EXPECT_EQ(view.attributes(), (std::vector<std::string>{"id", "name", "uid", "count"}));
  EXPECT_EQ(view.size(), 4u);  // 2 universities x 2 admits each
  EXPECT_TRUE(view.Contains(Tuple(
      {Value::Int(1), Value::String("U1"), Value::Int(2), Value::Int(50)})));
}

TEST(FlattenView, PrimOrderDoesNotChangeTheRows) {
  Example e = testing::MotivatingExample();
  ASSERT_OK_AND_ASSIGN(Relation view,
                       FlattenForestView(e.input, testing::UnivSchema(), "Univ"));
  ASSERT_OK_AND_ASSIGN(Relation reversed, FlattenForestView(WithReversedPrims(e.input),
                                                            testing::UnivSchema(), "Univ"));
  ExpectSameRows(view, reversed);
}

TEST(FlattenView, ChildlessParentPadsWithNulls) {
  RecordForest f;
  f.roots.push_back(testing::UnivRecord(9, "Lonely", {}));
  ASSERT_OK_AND_ASSIGN(Relation view, FlattenForestView(f, testing::UnivSchema(), "Univ"));
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view.row(0)[0], Value::Int(9));
  EXPECT_TRUE(view.row(0)[2].is_null());
  EXPECT_TRUE(view.row(0)[3].is_null());
}

TEST(Migrator, EndToEndMotivatingExample) {
  Example e = testing::MotivatingExample();
  ASSERT_OK_AND_ASSIGN(Program golden, Program::Parse(R"(
    Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id2, num),
                                Univ(id2, ug, _).
  )"));
  Migrator migrator(testing::UnivSchema(), testing::AdmissionSchema());
  MigrationStats stats;
  ASSERT_OK_AND_ASSIGN(RecordForest out, migrator.Migrate(golden, e.input, &stats));
  EXPECT_TRUE(ForestEquals(out, e.output));
  EXPECT_EQ(stats.source_records, 6u);
  EXPECT_EQ(stats.source_facts, 6u);
  EXPECT_EQ(stats.target_facts, 4u);
  EXPECT_EQ(stats.target_records, 4u);
}

TEST(Migrator, NestedTargetGroupsChildren) {
  // Relational -> document: group admits under universities by id.
  auto src = RelationalSchemaBuilder()
                 .AddTable("u", {{"uid2", PrimitiveType::kInt},
                                 {"uname", PrimitiveType::kString}})
                 .AddTable("a", {{"a_univ", PrimitiveType::kInt},
                                 {"a_count", PrimitiveType::kInt}})
                 .Build()
                 .ValueOrDie();
  auto tgt = DocumentSchemaBuilder()
                 .AddCollection("UDoc", {{"dname", PrimitiveType::kString}})
                 .AddCollection("ADoc", {{"dcount", PrimitiveType::kInt}}, "UDoc")
                 .Build()
                 .ValueOrDie();
  ASSERT_OK_AND_ASSIGN(Program prog, Program::Parse(R"(
    UDoc(n, u), ADoc(u, c) :- u(u, n), a(u, c).
  )"));
  RecordForest source;
  source.roots.push_back(
      testing::FlatRecord("u", {{"uid2", Value::Int(1)}, {"uname", Value::String("A")}}));
  source.roots.push_back(
      testing::FlatRecord("u", {{"uid2", Value::Int(2)}, {"uname", Value::String("B")}}));
  source.roots.push_back(
      testing::FlatRecord("a", {{"a_univ", Value::Int(1)}, {"a_count", Value::Int(10)}}));
  source.roots.push_back(
      testing::FlatRecord("a", {{"a_univ", Value::Int(1)}, {"a_count", Value::Int(20)}}));
  source.roots.push_back(
      testing::FlatRecord("a", {{"a_univ", Value::Int(2)}, {"a_count", Value::Int(30)}}));
  Migrator migrator(src, tgt);
  ASSERT_OK_AND_ASSIGN(RecordForest out, migrator.Migrate(prog, source));
  // Expect: A with [10, 20], B with [30].
  ASSERT_EQ(out.roots.size(), 2u);
  const RecordNode* a_doc = nullptr;
  for (const RecordNode& r : out.roots) {
    if (r.Prim("dname") == Value::String("A")) a_doc = &r;
  }
  ASSERT_NE(a_doc, nullptr);
  EXPECT_EQ(a_doc->Children("ADoc").size(), 2u);
}

TEST(Migrator, ScalesToLargerInstances) {
  // Sanity: migrate a few thousand records through the full pipeline.
  Schema src = testing::UnivSchema();
  Schema tgt = testing::AdmissionSchema();
  RecordForest big;
  for (int i = 0; i < 500; ++i) {
    big.roots.push_back(testing::UnivRecord(
        i, "U" + std::to_string(i),
        {{(i + 1) % 500, 10 + i % 90}, {(i + 2) % 500, 20 + i % 70}}));
  }
  ASSERT_OK_AND_ASSIGN(Program golden, Program::Parse(R"(
    Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id2, num),
                                Univ(id2, ug, _).
  )"));
  Migrator migrator(src, tgt);
  MigrationStats stats;
  ASSERT_OK_AND_ASSIGN(RecordForest out, migrator.Migrate(golden, big, &stats));
  EXPECT_EQ(out.roots.size(), 1000u);  // 500 univs x 2 admits
  EXPECT_GT(stats.TotalSeconds(), 0.0);
}

}  // namespace
}  // namespace dynamite
