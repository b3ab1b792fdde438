// Example: migrating a property graph (social follow graph, like the
// Tencent Weibo benchmark) into a relational table, from a 2-node example,
// using dynamite::Session (src/api/session.h) — synthesis and migration
// share one engine, and errors come back as typed ErrorCodes.
//
//   $ ./graph_to_relational

#include <cstdio>

#include "api/session.h"
#include "instance/graph.h"
#include "instance/relational.h"
#include "schema/schema_builder.h"

using namespace dynamite;

int main() {
  // Source: a graph of users with weighted "follows" edges.
  Schema source = GraphSchemaBuilder()
                      .AddNodeType("User", {{"uid", PrimitiveType::kInt},
                                            {"uname", PrimitiveType::kString}})
                      .AddEdgeType("Follows", {{"weight", PrimitiveType::kInt}}, "f")
                      .Build()
                      .ValueOrDie();
  // Target: one table of (follower name, followee name, weight).
  Schema target = RelationalSchemaBuilder()
                      .AddTable("FollowTable", {{"follower", PrimitiveType::kString},
                                                {"followee", PrimitiveType::kString},
                                                {"weight", PrimitiveType::kInt}})
                      .Build()
                      .ValueOrDie();

  // Example graph: ann -> bob (3), bob -> cat (5).
  GraphInstance example_graph;
  example_graph.AddNode(
      GraphNode{"User", {{"uid", Value::Int(1)}, {"uname", Value::String("ann")}}});
  example_graph.AddNode(
      GraphNode{"User", {{"uid", Value::Int(2)}, {"uname", Value::String("bob")}}});
  example_graph.AddNode(
      GraphNode{"User", {{"uid", Value::Int(3)}, {"uname", Value::String("cat")}}});
  example_graph.AddEdge(GraphEdge{"Follows", 1, 2, {{"weight", Value::Int(3)}}});
  example_graph.AddEdge(GraphEdge{"Follows", 2, 3, {{"weight", Value::Int(5)}}});

  // Expected relational output for the example.
  RelationalInstance example_table;
  example_table.DeclareTable(target, "FollowTable");
  example_table.Insert("FollowTable", Tuple({Value::String("ann"), Value::String("bob"),
                                             Value::Int(3)}));
  example_table.Insert("FollowTable", Tuple({Value::String("bob"), Value::String("cat"),
                                             Value::Int(5)}));

  Example example;
  example.input = example_graph.ToForest(source).ValueOrDie();
  example.output = example_table.ToForest(target).ValueOrDie();

  Session session = Session::Create(source, target).ValueOrDie();
  auto result = session.Synthesize(example, RunContext::WithTimeout(60));
  if (!result.ok()) {
    std::fprintf(stderr, "synthesis failed (%s): %s\n",
                 StatusCodeToString(result.status().code()),
                 result.status().message().c_str());
    return 1;
  }
  std::printf("Synthesized mapping:\n%s\n", result->program.ToString().c_str());

  // Migrate a bigger graph with the same session and the synthesized
  // program.
  GraphInstance big;
  const char* names[] = {"u0", "u1", "u2", "u3", "u4"};
  for (int i = 0; i < 5; ++i) {
    big.AddNode(GraphNode{
        "User", {{"uid", Value::Int(i)}, {"uname", Value::String(names[i])}}});
  }
  for (int i = 0; i < 5; ++i) {
    big.AddEdge(GraphEdge{"Follows", i, (i + 2) % 5, {{"weight", Value::Int(i * 10)}}});
  }
  RecordForest migrated =
      session.Migrate(result->program, big.ToForest(source).ValueOrDie()).ValueOrDie();
  RelationalInstance out = RelationalInstance::FromForest(migrated, target).ValueOrDie();
  std::printf("Migrated table:\n%s\n", out.ToString().c_str());
  return 0;
}
