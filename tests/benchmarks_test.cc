// Parameterized end-to-end test over all 28 benchmarks of Table 2: the
// golden program runs, synthesis from a curated example succeeds in its
// pinned number of iterations, and the synthesized program agrees with the
// golden program on a larger validation instance (the paper's success
// criterion).

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "api/session.h"
#include "testing.h"
#include "workload/benchmarks.h"

namespace dynamite {
namespace {

using workload::AllBenchmarks;
using workload::Benchmark;

/// Wall-clock budget per synthesis run. Sanitizer builds run 10-30x slower
/// than Release, so CI overrides the default via DYNAMITE_SYNTH_TEST_TIMEOUT
/// (seconds) rather than failing on an environment-speed artifact.
double SynthTestTimeoutSeconds() {
  const char* env = std::getenv("DYNAMITE_SYNTH_TEST_TIMEOUT");
  if (env != nullptr) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return 120;
}

/// Synthesis iterations (SAT models tried, summed over rules) on each
/// benchmark's curated example. The counts pin the solver's trajectory: a
/// change that alters the model sequence must update this table on purpose
/// and record why.
const std::map<std::string, size_t>& PinnedIterations() {
  static const auto* pinned = new std::map<std::string, size_t>{
      {"Yelp-1", 5},     {"IMDB-1", 6},      {"DBLP-1", 4},     {"Mondial-1", 18},
      {"MLB-1", 12},     {"Airbnb-1", 1},    {"Patent-1", 2},   {"Bike-1", 15977},
      {"Tencent-1", 11}, {"Retina-1", 23},   {"Movie-1", 9},    {"Soccer-1", 44},
      {"Tencent-2", 11}, {"Retina-2", 2035}, {"Movie-2", 1},    {"Soccer-2", 26},
      {"Yelp-2", 6},     {"IMDB-2", 20},     {"DBLP-2", 5},     {"Mondial-2", 11},
      {"MLB-2", 8},      {"Airbnb-2", 10},   {"Patent-2", 5},   {"Bike-2", 12},
      {"MLB-3", 13},     {"Airbnb-3", 7},    {"Patent-3", 9},   {"Bike-3", 50},
  };
  return *pinned;
}

class BenchmarkTest : public ::testing::TestWithParam<std::string> {
 protected:
  const Benchmark& bench() const { return *workload::FindBenchmark(GetParam()); }
};

TEST_P(BenchmarkTest, GoldenProgramRuns) {
  const Benchmark& b = bench();
  ASSERT_OK(b.golden.Validate());
  ASSERT_OK_AND_ASSIGN(RecordForest source,
                       workload::GenerateSource(b, /*seed=*/11, /*scale=*/5));
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(b.source, b.target));
  MigrationStats stats;
  ASSERT_OK_AND_ASSIGN(RecordForest target, session.Migrate(b.golden, source, &stats));
  EXPECT_GT(target.TotalRecords(), 0u) << b.name;
  EXPECT_GT(stats.source_facts, 0u);
  EXPECT_GT(stats.target_facts, 0u);
}

TEST_P(BenchmarkTest, SynthesizesCorrectProgram) {
  const Benchmark& b = bench();
  ASSERT_OK_AND_ASSIGN(Example example,
                       workload::MakeExample(b, b.example_seed, b.example_scale));
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(b.source, b.target));
  ASSERT_OK_AND_ASSIGN(SynthesisResult result,
                       session.Synthesize(example,
                                          RunContext::WithTimeout(SynthTestTimeoutSeconds())));
  EXPECT_EQ(result.program.rules.size(), b.target.TopLevelRecords().size());
  ASSERT_EQ(PinnedIterations().count(b.name), 1u) << b.name;
  EXPECT_EQ(result.iterations, PinnedIterations().at(b.name)) << b.name;
  // Correctness = observational equivalence with the golden program on a
  // larger validation instance.
  ASSERT_OK_AND_ASSIGN(bool agrees, workload::AgreesWithGolden(b, result.program,
                                                               /*seed=*/99, /*scale=*/8));
  EXPECT_TRUE(agrees) << b.name << "\nsynthesized:\n"
                      << result.program.ToString() << "\ngolden:\n"
                      << b.golden.ToString();
}

std::vector<std::string> AllNames() {
  std::vector<std::string> names;
  for (const Benchmark& b : AllBenchmarks()) names.push_back(b.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(All, BenchmarkTest, ::testing::ValuesIn(AllNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(BenchmarkRegistry, Has28Benchmarks) { EXPECT_EQ(AllBenchmarks().size(), 28u); }

TEST(BenchmarkRegistry, KindsMatchTable2) {
  // Spot-check the type pattern of Table 2.
  const Benchmark* yelp1 = workload::FindBenchmark("Yelp-1");
  ASSERT_NE(yelp1, nullptr);
  EXPECT_EQ(yelp1->source_kind, 'D');
  EXPECT_EQ(yelp1->target_kind, 'R');
  const Benchmark* tencent2 = workload::FindBenchmark("Tencent-2");
  ASSERT_NE(tencent2, nullptr);
  EXPECT_EQ(tencent2->source_kind, 'G');
  EXPECT_EQ(tencent2->target_kind, 'D');
  const Benchmark* mlb3 = workload::FindBenchmark("MLB-3");
  ASSERT_NE(mlb3, nullptr);
  EXPECT_EQ(mlb3->source_kind, 'R');
  EXPECT_EQ(mlb3->target_kind, 'R');
}

TEST(SynthesisMemoryBudget, ClauseDatabaseIsCharged) {
  // Retina-2's 2,035 SAT calls grow the clause database by well over
  // 8 MiB, while every other stage of its synthesis charges about 2.4 MiB:
  // the budget must stop the search with a typed error, not a program.
  const Benchmark& b = *workload::FindBenchmark("Retina-2");
  ASSERT_OK_AND_ASSIGN(Example example,
                       workload::MakeExample(b, b.example_seed, b.example_scale));
  SessionOptions tight;
  tight.max_memory_bytes = size_t{8} << 20;
  ASSERT_OK_AND_ASSIGN(Session starved, Session::Create(b.source, b.target, tight));
  auto result =
      starved.Synthesize(example, RunContext::WithTimeout(SynthTestTimeoutSeconds()));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();

  SessionOptions ample;
  ample.max_memory_bytes = size_t{256} << 20;
  ASSERT_OK_AND_ASSIGN(Session fed, Session::Create(b.source, b.target, ample));
  ASSERT_OK_AND_ASSIGN(SynthesisResult fed_result,
                       fed.Synthesize(example, RunContext::WithTimeout(SynthTestTimeoutSeconds())));
  EXPECT_EQ(fed_result.iterations, PinnedIterations().at(b.name));
}

}  // namespace
}  // namespace dynamite
