// Unit tests for RecordForest and the document/relational/graph instance
// adapters.

#include <gtest/gtest.h>

#include "instance/document.h"
#include "instance/graph.h"
#include "instance/relational.h"
#include "migrate/facts.h"
#include "testing.h"

namespace dynamite {
namespace {

TEST(RecordForest, AccessorsAndCounts) {
  RecordForest f;
  f.roots.push_back(testing::UnivRecord(1, "U1", {{1, 10}, {2, 50}}));
  EXPECT_EQ(f.TotalRecords(), 3u);
  EXPECT_EQ(f.RootsOfType("Univ").size(), 1u);
  EXPECT_EQ(f.RootsOfType("Nope").size(), 0u);
  const RecordNode& univ = f.roots[0];
  EXPECT_EQ(univ.Prim("name"), Value::String("U1"));
  EXPECT_TRUE(univ.Prim("missing").is_null());
  EXPECT_EQ(univ.Children("Admit").size(), 2u);
}

TEST(ValidateForest, AcceptsMotivatingInstance) {
  Example e = testing::MotivatingExample();
  EXPECT_OK(ValidateForest(e.input, testing::UnivSchema()));
  EXPECT_OK(ValidateForest(e.output, testing::AdmissionSchema()));
}

/// ValidateForest's status on a one-root forest under UnivSchema.
Status ValidateOne(RecordNode root) {
  RecordForest f;
  f.roots.push_back(std::move(root));
  return ValidateForest(f, testing::UnivSchema());
}

RecordNode AdmitRecord(int64_t uid, int64_t count) {
  return testing::FlatRecord("Admit", {{"uid", Value::Int(uid)}, {"count", Value::Int(count)}});
}

void ExpectRejected(const Status& st, StatusCode code, const std::string& message) {
  EXPECT_EQ(st.code(), code) << st.ToString();
  EXPECT_EQ(st.message(), message);
}

TEST(ValidateForest, RejectsBadShapes) {
  ExpectRejected(ValidateOne(testing::FlatRecord("Ghost", {})), StatusCode::kInvalidArgument,
                 "unknown record type in instance: Ghost");
  ExpectRejected(ValidateOne(testing::FlatRecord("Univ", {{"id", Value::Int(1)}})),
                 StatusCode::kInvalidArgument, "record Univ missing attribute name");
  ExpectRejected(ValidateOne(testing::FlatRecord(
                     "Univ", {{"id", Value::String("one")}, {"name", Value::String("U")}})),
                 StatusCode::kTypeError,
                 "record Univ attribute id has value \"one\" incompatible with Int");
  ExpectRejected(ValidateOne(AdmitRecord(1, 2)), StatusCode::kInvalidArgument,
                 "nested record type Admit cannot appear at the top level");
  {  // children under a primitive attribute
    RecordNode univ = testing::UnivRecord(1, "U", {});
    univ.children.push_back({"name", {AdmitRecord(1, 2)}});
    ExpectRejected(ValidateOne(std::move(univ)), StatusCode::kInvalidArgument,
                   "record Univ has children under name which is not a record type");
  }
  {  // a child of the wrong type
    RecordNode univ = testing::UnivRecord(1, "U", {});
    univ.children[0].second.push_back(testing::UnivRecord(2, "V", {}));
    ExpectRejected(ValidateOne(std::move(univ)), StatusCode::kInvalidArgument,
                   "child of type Univ stored under attribute Admit");
  }
  {  // the nested record's own attributes are checked too
    RecordNode univ = testing::UnivRecord(1, "U", {});
    univ.children[0].second.push_back(
        testing::FlatRecord("Admit", {{"uid", Value::Int(1)}, {"count", Value::Bool(true)}}));
    ExpectRejected(ValidateOne(std::move(univ)), StatusCode::kTypeError,
                   "record Admit attribute count has value true incompatible with Int");
  }
}

TEST(ValidateForest, ReadsPrimsByNameWhenOutOfSchemaOrder) {
  // GraphInstance::ToForest writes node properties in their own order.
  EXPECT_OK(ValidateOne(testing::FlatRecord(
      "Univ", {{"name", Value::String("U")}, {"id", Value::Int(1)}})));
  ExpectRejected(ValidateOne(testing::FlatRecord(
                     "Univ", {{"name", Value::Int(7)}, {"id", Value::Int(1)}})),
                 StatusCode::kTypeError,
                 "record Univ attribute name has value 7 incompatible with String");
  RecordNode univ = testing::UnivRecord(1, "U", {});
  univ.children[0].second.push_back(
      testing::FlatRecord("Admit", {{"count", Value::Int(3)}, {"uid", Value::Int(2)}}));
  EXPECT_OK(ValidateOne(std::move(univ)));
}

TEST(ValidateForest, FirstOfDuplicatePrimsWins) {
  // As in RecordNode::Prim, the first entry with a name is its value.
  EXPECT_OK(ValidateOne(testing::FlatRecord(
      "Univ",
      {{"id", Value::Int(1)}, {"id", Value::String("x")}, {"name", Value::String("U")}})));
  ExpectRejected(
      ValidateOne(testing::FlatRecord(
          "Univ",
          {{"id", Value::String("x")}, {"id", Value::Int(1)}, {"name", Value::String("U")}})),
      StatusCode::kTypeError, "record Univ attribute id has value \"x\" incompatible with Int");
  // `name` sits at its schema slot (1) only as a second duplicate: the first
  // one, a string, is the value.
  EXPECT_OK(ValidateOne(testing::FlatRecord(
      "Univ",
      {{"name", Value::String("U")}, {"name", Value::Int(5)}, {"id", Value::Int(1)}})));
}

TEST(ValidateForest, IgnoresPrimsOutsideTheSchema) {
  EXPECT_OK(ValidateOne(testing::FlatRecord(
      "Univ",
      {{"id", Value::Int(1)}, {"extra", Value::Bool(true)}, {"name", Value::String("U")}})));
  EXPECT_OK(ValidateOne(testing::FlatRecord(
      "Univ",
      {{"id", Value::Int(1)}, {"name", Value::String("U")}, {"extra", Value::Bool(true)}})));
}

TEST(ValidateForest, RejectsSecondGroupUnderOneAttribute) {
  // Children("Admit") sees only the first group: the second one's records
  // would be counted but never become facts.
  RecordNode univ = testing::UnivRecord(1, "U", {{1, 10}});
  univ.children.push_back({"Admit", {AdmitRecord(2, 20), AdmitRecord(3, 30)}});
  RecordForest f;
  f.roots.push_back(std::move(univ));
  ExpectRejected(ValidateForest(f, testing::UnivSchema()), StatusCode::kInvalidArgument,
                 "record Univ has a second child group under Admit");
  uint64_t next_id = 1;
  EXPECT_EQ(ToFacts(f, testing::UnivSchema(), &next_id).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(next_id, 1u);
}

TEST(ValidateForest, RejectsGroupUnderAForeignRecordType) {
  // Univ is a record type, but not one of Univ's own attributes.
  RecordNode univ = testing::UnivRecord(1, "U", {{1, 10}});
  univ.children.push_back({"Univ", {testing::UnivRecord(2, "V", {})}});
  RecordForest f;
  f.roots.push_back(std::move(univ));
  ExpectRejected(ValidateForest(f, testing::UnivSchema()), StatusCode::kInvalidArgument,
                 "record Univ has children under Univ which is not one of its attributes");
  uint64_t next_id = 1;
  EXPECT_EQ(ToFacts(f, testing::UnivSchema(), &next_id).status().code(),
            StatusCode::kInvalidArgument);
  // Any other defect in the forest keeps its own message.
  f.roots.push_back(testing::FlatRecord("Univ", {{"id", Value::Int(3)}}));
  ExpectRejected(ValidateForest(f, testing::UnivSchema()), StatusCode::kInvalidArgument,
                 "record Univ missing attribute name");
}

TEST(DocumentInstance, JsonRoundTrip) {
  Schema s = testing::UnivSchema();
  const char* text = R"({
    "Univ": [
      {"id": 1, "name": "U1", "Admit": [{"uid": 1, "count": 10},
                                        {"uid": 2, "count": 50}]},
      {"id": 2, "name": "U2", "Admit": [{"uid": 2, "count": 20}]}
    ]
  })";
  ASSERT_OK_AND_ASSIGN(DocumentInstance inst, DocumentInstance::FromJsonText(text));
  ASSERT_OK_AND_ASSIGN(RecordForest forest, inst.ToForest(s));
  EXPECT_EQ(forest.TotalRecords(), 5u);
  ASSERT_OK_AND_ASSIGN(DocumentInstance back, DocumentInstance::FromForest(forest, s));
  ASSERT_OK_AND_ASSIGN(RecordForest forest2, back.ToForest(s));
  EXPECT_TRUE(ForestEquals(forest, forest2));
}

TEST(DocumentInstance, RejectsTypeMismatches) {
  Schema s = testing::UnivSchema();
  ASSERT_OK_AND_ASSIGN(
      DocumentInstance inst,
      DocumentInstance::FromJsonText(R"({"Univ": [{"id": "x", "name": "U", "Admit": []}]})"));
  EXPECT_FALSE(inst.ToForest(s).ok());
}

TEST(RelationalInstance, RoundTrip) {
  auto schema = RelationalSchemaBuilder()
                    .AddTable("t", {{"a", PrimitiveType::kInt}, {"b", PrimitiveType::kString}})
                    .Build()
                    .ValueOrDie();
  RelationalInstance inst;
  ASSERT_OK(inst.DeclareTable(schema, "t"));
  ASSERT_OK(inst.Insert("t", Tuple({Value::Int(1), Value::String("x")})));
  ASSERT_OK(inst.Insert("t", Tuple({Value::Int(2), Value::String("y")})));
  ASSERT_OK_AND_ASSIGN(RecordForest forest, inst.ToForest(schema));
  EXPECT_EQ(forest.TotalRecords(), 2u);
  ASSERT_OK_AND_ASSIGN(RelationalInstance back,
                       RelationalInstance::FromForest(forest, schema));
  EXPECT_EQ(back.Table("t").ValueOrDie()->size(), 2u);
  EXPECT_TRUE(back.Table("t").ValueOrDie()->Contains(
      Tuple({Value::Int(1), Value::String("x")})));
}

TEST(GraphInstance, RoundTrip) {
  auto schema = GraphSchemaBuilder()
                    .AddNodeType("N", {{"nid", PrimitiveType::kInt},
                                       {"label", PrimitiveType::kString}})
                    .AddEdgeType("E", {{"w", PrimitiveType::kInt}}, "e")
                    .Build()
                    .ValueOrDie();
  GraphInstance g;
  g.AddNode(GraphNode{"N", {{"nid", Value::Int(1)}, {"label", Value::String("a")}}});
  g.AddNode(GraphNode{"N", {{"nid", Value::Int(2)}, {"label", Value::String("b")}}});
  g.AddEdge(GraphEdge{"E", 1, 2, {{"w", Value::Int(9)}}});
  ASSERT_OK_AND_ASSIGN(RecordForest forest, g.ToForest(schema));
  EXPECT_EQ(forest.TotalRecords(), 3u);
  ASSERT_OK_AND_ASSIGN(GraphInstance back,
                       GraphInstance::FromForest(forest, schema, {{"E", "e"}}));
  ASSERT_EQ(back.nodes().size(), 2u);
  ASSERT_EQ(back.edges().size(), 1u);
  EXPECT_EQ(back.edges()[0].source, 1);
  EXPECT_EQ(back.edges()[0].target, 2);
  EXPECT_EQ(back.edges()[0].properties[0].second, Value::Int(9));
}

TEST(CanonicalForest, IgnoresOrderAndDuplicates) {
  RecordForest a, b;
  a.roots.push_back(testing::AdmissionRecord("X", "Y", 1));
  a.roots.push_back(testing::AdmissionRecord("P", "Q", 2));
  b.roots.push_back(testing::AdmissionRecord("P", "Q", 2));
  b.roots.push_back(testing::AdmissionRecord("X", "Y", 1));
  b.roots.push_back(testing::AdmissionRecord("X", "Y", 1));  // duplicate
  EXPECT_TRUE(ForestEquals(a, b));
}

TEST(CanonicalForest, ChildOrderIgnored) {
  RecordForest a, b;
  a.roots.push_back(testing::UnivRecord(1, "U", {{1, 10}, {2, 20}}));
  b.roots.push_back(testing::UnivRecord(1, "U", {{2, 20}, {1, 10}}));
  EXPECT_TRUE(ForestEquals(a, b));
}

TEST(CanonicalForest, DetectsNestingDifferences) {
  RecordForest a, b;
  a.roots.push_back(testing::UnivRecord(1, "U", {{1, 10}}));
  b.roots.push_back(testing::UnivRecord(1, "U", {{1, 11}}));
  EXPECT_FALSE(ForestEquals(a, b));
}

}  // namespace
}  // namespace dynamite
