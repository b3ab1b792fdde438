// Tests for interactive mode (§5 / Appendix B) through
// Session::SynthesizeInteractive: Example 10's ambiguity is resolved by a
// distinguishing query answered by an oracle, and the example stays
// consistent when the query's records join with the example's own.

#include <gtest/gtest.h>

#include "api/session.h"
#include "testing.h"
#include "workload/benchmarks.h"

namespace dynamite {
namespace {

struct Example10 {
  Schema src = RelationalSchemaBuilder()
                   .AddTable("Employee", {{"ename", PrimitiveType::kString},
                                          {"edept", PrimitiveType::kInt}})
                   .AddTable("Department", {{"did", PrimitiveType::kInt},
                                            {"dname", PrimitiveType::kString}})
                   .Build()
                   .ValueOrDie();
  Schema tgt = RelationalSchemaBuilder()
                   .AddTable("WorksIn", {{"w_name", PrimitiveType::kString},
                                         {"w_dept", PrimitiveType::kString}})
                   .Build()
                   .ValueOrDie();
  Program golden = Program::Parse(
                       "WorksIn(n, d) :- Employee(n, x), Department(x, d).")
                       .ValueOrDie();

  RecordNode Emp(const char* n, int d) {
    return testing::FlatRecord(
        "Employee", {{"ename", Value::String(n)}, {"edept", Value::Int(d)}});
  }
  RecordNode Dept(int i, const char* n) {
    return testing::FlatRecord("Department",
                               {{"did", Value::Int(i)}, {"dname", Value::String(n)}});
  }
};

TEST(Interactive, ResolvesExample10Ambiguity) {
  Example10 fixture;
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(fixture.src, fixture.tgt));
  // The simulated user answers with the golden program on a Session of its
  // own, apart from the one doing the synthesis.
  ASSERT_OK_AND_ASSIGN(Session user, Session::Create(fixture.src, fixture.tgt));
  // Initial ambiguous example: a single employee/department pair.
  Example initial;
  initial.input.roots = {fixture.Emp("Alice", 11), fixture.Dept(11, "CS")};
  ASSERT_OK_AND_ASSIGN(RecordForest init_out,
                       user.Migrate(fixture.golden, initial.input));
  initial.output = init_out;

  // Validation pool: the distinguishing input of the paper (two employees
  // in different departments) is a subset of this pool.
  RecordForest pool;
  pool.roots = {fixture.Emp("Alice", 11), fixture.Emp("Bob", 12), fixture.Dept(11, "CS"),
                fixture.Dept(12, "EE")};

  Oracle oracle = [&](const RecordForest& input) -> Result<RecordForest> {
    return user.Migrate(fixture.golden, input);
  };

  ASSERT_OK_AND_ASSIGN(InteractiveResult result,
                       session.SynthesizeInteractive(initial, pool, oracle));
  EXPECT_GE(result.queries, 1u) << "ambiguity should have triggered a query";

  // The final program must be the join, not the cross product: check on an
  // input where they differ.
  RecordForest probe;
  probe.roots = {fixture.Emp("X", 1), fixture.Emp("Y", 2), fixture.Dept(1, "D1"),
                 fixture.Dept(2, "D2")};
  ASSERT_OK_AND_ASSIGN(RecordForest got, session.Migrate(result.result.program, probe));
  ASSERT_OK_AND_ASSIGN(RecordForest want, session.Migrate(fixture.golden, probe));
  EXPECT_TRUE(ForestEquals(got, want)) << result.result.program.ToString();
}

TEST(Interactive, UnambiguousExampleNeedsNoQueries) {
  Example10 fixture;
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(fixture.src, fixture.tgt));
  ASSERT_OK_AND_ASSIGN(Session user, Session::Create(fixture.src, fixture.tgt));
  // A rich example that already pins down the join.
  Example initial;
  initial.input.roots = {fixture.Emp("Alice", 11), fixture.Emp("Bob", 12),
                         fixture.Dept(11, "CS"), fixture.Dept(12, "EE")};
  ASSERT_OK_AND_ASSIGN(RecordForest out, user.Migrate(fixture.golden, initial.input));
  initial.output = out;

  Oracle oracle = [&](const RecordForest& input) -> Result<RecordForest> {
    return user.Migrate(fixture.golden, input);
  };
  RecordForest pool = initial.input;
  ASSERT_OK_AND_ASSIGN(InteractiveResult result,
                       session.SynthesizeInteractive(initial, pool, oracle));
  EXPECT_EQ(result.queries, 0u);
  EXPECT_TRUE(result.unique);
}

/// Runs one simulated user of the §6.3 study on `bench`: the example and the
/// validation pool are drawn from the benchmark's generator, and a separate
/// Session running the golden program answers the queries.
Result<InteractiveResult> RunSimulatedUser(const workload::Benchmark& bench,
                                           uint64_t example_seed, uint64_t pool_seed,
                                           size_t pool_scale) {
  DYNAMITE_ASSIGN_OR_RETURN(Example initial, workload::MakeExample(bench, example_seed, 2));
  DYNAMITE_ASSIGN_OR_RETURN(RecordForest pool,
                            workload::GenerateSource(bench, pool_seed, pool_scale));
  DYNAMITE_ASSIGN_OR_RETURN(Session user, Session::Create(bench.source, bench.target));
  Oracle oracle = [&](const RecordForest& input) -> Result<RecordForest> {
    return user.Migrate(bench.golden, input);
  };
  DYNAMITE_ASSIGN_OR_RETURN(Session session, Session::Create(bench.source, bench.target));
  return session.SynthesizeInteractive(initial, pool, oracle);
}

TEST(Interactive, WorksOnTencent1Benchmark) {
  // The user-study benchmark (§6.3) driven by an oracle instead of a human.
  const workload::Benchmark* bench = workload::FindBenchmark("Tencent-1");
  ASSERT_NE(bench, nullptr);
  ASSERT_OK_AND_ASSIGN(InteractiveResult result, RunSimulatedUser(*bench, 3, 5, 4));
  ASSERT_OK_AND_ASSIGN(bool agrees,
                       workload::AgreesWithGolden(*bench, result.result.program, 77, 8));
  EXPECT_TRUE(agrees) << result.result.program.ToString();
}

TEST(Interactive, QueryJoiningTheExampleKeepsItConsistent) {
  // Retina-1's first query returns pool RContact rows that join with the
  // example's RNeuron rows. The oracle answers for the example's input plus
  // the query, so the next round still has a consistent example; answering
  // for the query alone and appending left no program that fits.
  const workload::Benchmark* bench = workload::FindBenchmark("Retina-1");
  ASSERT_NE(bench, nullptr);
  ASSERT_OK_AND_ASSIGN(InteractiveResult result, RunSimulatedUser(*bench, 100, 150, 5));
  EXPECT_GE(result.queries, 1u);
  EXPECT_FALSE(result.result.program.rules.empty());
}

}  // namespace
}  // namespace dynamite
