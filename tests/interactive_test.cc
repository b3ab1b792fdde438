// Tests for interactive mode (§5 / Appendix B) through
// Session::SynthesizeInteractive: Example 10's ambiguity is resolved by a
// distinguishing query answered by an oracle, a run that stops early
// synthesizes once per round, a timeout in the ambiguity probe fails the
// run, Figure 8's Tencent-1 users all succeed, and the example stays
// consistent when the query's records join with the example's own.

#include <gtest/gtest.h>

#include "api/session.h"
#include "testing.h"
#include "util/failpoint.h"
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

/// Counts the syntheses of an interactive run: each one reports
/// Phase::kInferMapping exactly once, when it starts.
struct SynthesisCounter {
  size_t syntheses = 0;
  RunContext Context() {
    RunContext ctx;
    ctx.observer = [this](const ProgressEvent& e) {
      if (e.phase == Phase::kInferMapping) ++syntheses;
    };
    return ctx;
  }
};

TEST(Interactive, EarlyExitSynthesizesOncePerRound) {
  // A run that stops before its round budget returns its last round's
  // synthesis instead of synthesizing the same example again.
  Example10 fixture;
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(fixture.src, fixture.tgt));
  ASSERT_OK_AND_ASSIGN(Session user, Session::Create(fixture.src, fixture.tgt));
  Example initial;
  initial.input.roots = {fixture.Emp("Alice", 11), fixture.Dept(11, "CS")};
  ASSERT_OK_AND_ASSIGN(initial.output, user.Migrate(fixture.golden, initial.input));
  RecordForest pool;
  pool.roots = {fixture.Emp("Alice", 11), fixture.Emp("Bob", 12), fixture.Dept(11, "CS"),
                fixture.Dept(12, "EE")};

  // Resolved: one query, then a unique round.
  Oracle answering = [&](const RecordForest& input) -> Result<RecordForest> {
    return user.Migrate(fixture.golden, input);
  };
  SynthesisCounter resolved;
  ASSERT_OK_AND_ASSIGN(InteractiveResult unique,
                       session.SynthesizeInteractive(initial, pool, answering,
                                                     resolved.Context()));
  EXPECT_TRUE(unique.unique);
  EXPECT_EQ(unique.rounds, 2u);
  EXPECT_EQ(resolved.syntheses, unique.rounds);

  // Oracle-cancelled: the first query is refused.
  Oracle refusing = [](const RecordForest&) -> Result<RecordForest> {
    return Status::Cancelled("user closed the prompt");
  };
  SynthesisCounter declined;
  ASSERT_OK_AND_ASSIGN(InteractiveResult cancelled,
                       session.SynthesizeInteractive(initial, pool, refusing,
                                                     declined.Context()));
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_EQ(cancelled.rounds, 1u);
  EXPECT_EQ(declined.syntheses, cancelled.rounds);
  EXPECT_FALSE(cancelled.result.program.rules.empty());
}

TEST(Interactive, TimeoutDuringAlternativesSearchFailsTheRun) {
  // The first round's ambiguity probe is cut short right after the first
  // program: the timeout fails the run instead of reporting that program as
  // unique (Example 10's first round has alternatives).
  Example10 fixture;
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(fixture.src, fixture.tgt));
  ASSERT_OK_AND_ASSIGN(Session user, Session::Create(fixture.src, fixture.tgt));
  Example initial;
  initial.input.roots = {fixture.Emp("Alice", 11), fixture.Dept(11, "CS")};
  ASSERT_OK_AND_ASSIGN(initial.output, user.Migrate(fixture.golden, initial.input));
  RecordForest pool;
  pool.roots = {fixture.Emp("Alice", 11), fixture.Emp("Bob", 12), fixture.Dept(11, "CS"),
                fixture.Dept(12, "EE")};
  Oracle answering = [&](const RecordForest& input) -> Result<RecordForest> {
    return user.Migrate(fixture.golden, input);
  };
  // One rule, so the first program takes `iterations` candidate passes and
  // the next pass is the alternatives search's first.
  ASSERT_OK_AND_ASSIGN(SynthesisResult first, session.Synthesize(initial));
  ASSERT_EQ(first.rule_stats.size(), 1u);
  ASSERT_OK(failpoint::ArmFromString("synth.candidate",
                                     "hit_" + std::to_string(first.iterations + 1) + ":timeout"));
  auto result = session.SynthesizeInteractive(initial, pool, answering);
  failpoint::DisarmAll();
  ASSERT_FALSE(result.ok()) << "unique=" << result.ValueOrDie().unique;
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout) << result.status().ToString();
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

TEST(Interactive, Tencent1UserStudy) {
  // Figure 8's five simulated Tencent-1 users (bench_fig8_userstudy): every
  // one resolves all ambiguity and ends with a program that agrees with the
  // golden one, the paper's 5/5.
  const workload::Benchmark* bench = workload::FindBenchmark("Tencent-1");
  ASSERT_NE(bench, nullptr);
  for (uint64_t seed = 100; seed < 105; ++seed) {
    ASSERT_OK_AND_ASSIGN(InteractiveResult result,
                         RunSimulatedUser(*bench, seed, seed + 50, 5));
    EXPECT_TRUE(result.unique) << "user seed " << seed;
    ASSERT_OK_AND_ASSIGN(bool agrees, workload::AgreesWithGolden(*bench, result.result.program,
                                                                 seed + 99, 8));
    EXPECT_TRUE(agrees) << "user seed " << seed << "\n" << result.result.program.ToString();
  }
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
