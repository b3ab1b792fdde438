// Micro-benchmarks (google-benchmark) for the substrates: Datalog join
// evaluation, the SAT blocking-clause stream, facts conversion, flattening,
// and MDP search.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "api/session.h"
#include "bench_util.h"
#include "datalog/engine.h"
#include "migrate/facts.h"
#include "migrate/migrator.h"
#include "schema/schema_builder.h"
#include "solver/fd.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"
#include "synth/mdp.h"
#include "synth/synthesizer.h"
#include "workload/benchmarks.h"
#include "workload/families.h"

namespace dynamite {
namespace {

FactDatabase ChainEdges(int n) {
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  for (int i = 0; i < n; ++i) {
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i + 1) % n)}));
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i * 7 + 3) % n)}));
  }
  return db;
}

std::string UserName(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user_%06d", i);
  return buf;
}

std::string CityName(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "city_of_%04d", i);
  return buf;
}

/// String-keyed EDB: person(name, city) x city(city, country); all join
/// columns are strings with long shared prefixes, the worst case for
/// by-value string comparison and hashing.
FactDatabase StringPeople(int n) {
  FactDatabase db;
  db.DeclareRelation("person", {"name", "city"}).ValueOrDie();
  db.DeclareRelation("city", {"city", "country"}).ValueOrDie();
  int cities = n / 10 + 1;
  for (int i = 0; i < n; ++i) {
    db.AddFact("person", Tuple({Value::String(UserName(i)),
                                Value::String(CityName(i % cities))}));
  }
  for (int c = 0; c < cities; ++c) {
    db.AddFact("city", Tuple({Value::String(CityName(c)),
                              Value::String("country_" + std::to_string(c % 17))}));
  }
  return db;
}

/// String-node edge relation for recursive (fixpoint) workloads.
FactDatabase StringEdges(int n) {
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  for (int i = 0; i < n; ++i) {
    db.AddFact("edge", Tuple({Value::String(UserName(i)),
                              Value::String(UserName((i + 1) % n))}));
    db.AddFact("edge", Tuple({Value::String(UserName(i)),
                              Value::String(UserName((i * 7 + 3) % n))}));
  }
  return db;
}

void BM_DatalogTwoWayJoin(benchmark::State& state) {
  FactDatabase db = ChainEdges(static_cast<int>(state.range(0)));
  Program p = Program::Parse("j(x, z) :- edge(x, y), edge(y, z).").ValueOrDie();
  DatalogEngine engine;
  size_t derived = 0;
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    derived = out.ValueOrDie().TotalFacts();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(derived));
}
BENCHMARK(BM_DatalogTwoWayJoin)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DatalogStringJoin(benchmark::State& state) {
  FactDatabase db = StringPeople(static_cast<int>(state.range(0)));
  Program p = Program::Parse(
      "lives(n, c, k) :- person(n, c), city(c, k).").ValueOrDie();
  DatalogEngine engine;
  size_t derived = 0;
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    derived = out.ValueOrDie().TotalFacts();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(derived));
}
BENCHMARK(BM_DatalogStringJoin)->Arg(1000)->Arg(10000);

void BM_DatalogStringSelfJoin(benchmark::State& state) {
  // Same-city pairs: a fan-out join whose key and payload are all strings.
  FactDatabase db = StringPeople(static_cast<int>(state.range(0)));
  Program p = Program::Parse(
      "pair(a, b) :- person(a, c), person(b, c).").ValueOrDie();
  DatalogEngine engine;
  size_t derived = 0;
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    derived = out.ValueOrDie().TotalFacts();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(derived));
}
BENCHMARK(BM_DatalogStringSelfJoin)->Arg(300)->Arg(1000);

void BM_DatalogStringTransitiveClosure(benchmark::State& state) {
  FactDatabase db = StringEdges(static_cast<int>(state.range(0)));
  Program p = Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )").ValueOrDie();
  DatalogEngine engine;
  size_t derived = 0;
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    derived = out.ValueOrDie().TotalFacts();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(derived));
}
BENCHMARK(BM_DatalogStringTransitiveClosure)->Arg(50)->Arg(200);

void BM_DatalogTransitiveClosure(benchmark::State& state) {
  FactDatabase db = ChainEdges(static_cast<int>(state.range(0)));
  Program p = Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )").ValueOrDie();
  DatalogEngine engine;
  size_t derived = 0;
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    derived = out.ValueOrDie().TotalFacts();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(derived));
}
BENCHMARK(BM_DatalogTransitiveClosure)->Arg(50)->Arg(200);

void BM_DatalogExistentialAtom(benchmark::State& state) {
  // The padding synthesized programs carry: an all-wildcard atom over a
  // source table (the MLB-2 shape) and a key-probed atom whose columns
  // nothing else reads (each probe has 100 matching rows). Only the first
  // match of either atom matters to the output.
  const int n = static_cast<int>(state.range(0));
  FactDatabase db;
  db.DeclareRelation("pad", {"a", "b", "c", "d"}).ValueOrDie();
  db.DeclareRelation("base", {"id", "name", "team"}).ValueOrDie();
  db.DeclareRelation("X", {"a", "v"}).ValueOrDie();
  db.DeclareRelation("Y", {"v", "p", "q"}).ValueOrDie();
  const int keys = std::max(1, n / 100);
  for (int i = 0; i < n; ++i) {
    db.AddFact("pad", Tuple({Value::Int(i), Value::String(UserName(i)), Value::Int(i % 7),
                             Value::Int(i % 13)}));
    db.AddFact("base", Tuple({Value::Int(i), Value::String(UserName(i)),
                              Value::String(CityName(i % 30))}));
    db.AddFact("X", Tuple({Value::Int(i), Value::Int(i % keys)}));
    db.AddFact("Y", Tuple({Value::Int(i % keys), Value::Int(i), Value::String(UserName(i))}));
  }
  Program p = Program::Parse(R"(
    Node(id, name) :- pad(_, _, _, _), base(id, name, _).
    E(a) :- X(a, v), Y(v, _, _).
  )").ValueOrDie();
  DatalogEngine engine;
  size_t derived = 0;
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    derived = out.ValueOrDie().TotalFacts();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(derived));
}
BENCHMARK(BM_DatalogExistentialAtom)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_FixpointParallel(benchmark::State& state) {
  // The parallel-fixpoint headline number: string TC at num_threads = 1 vs
  // 4 (ISSUE 4). Results are bit-identical across thread counts, so the
  // pair isolates pure engine scaling; CI gates on the 1-vs-4 ratio when
  // the runner has >= 4 cores (see .github/workflows/ci.yml).
  FactDatabase db = StringEdges(static_cast<int>(state.range(0)));
  Program p = Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )").ValueOrDie();
  DatalogEngine::Options opts;
  opts.num_threads = static_cast<size_t>(state.range(1));
  DatalogEngine engine(opts);
  size_t derived = 0;
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    derived = out.ValueOrDie().TotalFacts();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(derived));
}
BENCHMARK(BM_FixpointParallel)
    ->Args({200, 1})
    ->Args({200, 4})
    ->Args({400, 1})
    ->Args({400, 4});

void BM_FailpointOverhead(benchmark::State& state) {
  // Cost of the fault-injection sites on the hot fixpoint path (ISSUE 6):
  // identical workload to BM_FixpointParallel/200/1, so comparing against
  // that entry measures the failpoint tax directly. Arg 0 runs disarmed —
  // the shipping configuration, where each site is one relaxed atomic load
  // (claim: <2% vs BM_FixpointParallel/200/1, i.e. within run-to-run
  // noise). Arg 1 arms every engine-path site with an unreachable hit
  // target, forcing the armed slow path (counter increment, trigger check)
  // on every execution without ever firing — an upper bound on what a
  // fully armed but quiet production binary would pay.
  const bool armed = state.range(0) != 0;
  if (armed) {
    failpoint::Spec never;
    never.hit = uint64_t{1} << 62;
    for (const char* site :
         {"engine.compile", "engine.plan.entry", "engine.worker.chunk",
          "engine.merge.alloc", "engine.fixpoint.round", "engine.index.refresh",
          "relation.insert.alloc", "string_pool.intern", "thread_pool.worker"}) {
      failpoint::Arm(site, never);
    }
  }
  FactDatabase db = StringEdges(200);
  Program p = Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )").ValueOrDie();
  DatalogEngine::Options opts;
  opts.num_threads = 1;
  DatalogEngine engine(opts);
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    benchmark::DoNotOptimize(out);
  }
  if (armed) failpoint::DisarmAll();
}
BENCHMARK(BM_FailpointOverhead)->Arg(0)->Arg(1);

void BM_TraceOverhead(benchmark::State& state) {
  // Cost of the trace spans on the hot fixpoint path (ISSUE 10): identical
  // workload to BM_FixpointParallel/200/1, so comparing against that entry
  // measures the span tax directly. Arg 0 runs disarmed — the shipping
  // configuration, where each span site is one relaxed atomic load (claim:
  // <2% vs BM_FixpointParallel/200/1, i.e. within run-to-run noise; the
  // acceptance number recorded in BENCH_micro.json). Arg 1 arms tracing, so
  // every span pays two steady_clock reads and a ring-buffer write — the
  // upper bound for a run with DYNAMITE_TRACE set. Ring contents are
  // cleared around the armed arm so the fixed-capacity rings never skew a
  // later dump.
  const bool armed = state.range(0) != 0;
  if (armed) {
    trace::Clear();
    trace::Arm();
  }
  FactDatabase db = StringEdges(200);
  Program p = Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )").ValueOrDie();
  DatalogEngine::Options opts;
  opts.num_threads = 1;
  DatalogEngine engine(opts);
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    benchmark::DoNotOptimize(out);
  }
  if (armed) {
    trace::Disarm();
    trace::Clear();
  }
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1);

void BM_SatBlockingStream(benchmark::State& state) {
  // Sketch completion's solver workload: n rounds of Solve() followed by
  // an AnalyzeBlocking-shaped constraint, And over two MDPs of
  // Not(And(200 pairwise (dis)equalities read off the current model)),
  // the width of Bike-1's blocking constraints.
  constexpr int kVars = 40;
  constexpr int kWidth = 200;
  constexpr int kMdps = 2;
  const int rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    FdSolver solver;
    std::vector<FdVar> vars;
    for (int i = 0; i < kVars; ++i) {
      vars.push_back(solver.NewVar("v" + std::to_string(i), {0, 1, 2, 3}));
    }
    Rng rng(17);
    for (int r = 0; r < rounds; ++r) {
      auto sat = solver.Solve();
      if (!sat.ok() || !*sat) {
        state.SkipWithError("blocking stream became unsatisfiable");
        break;
      }
      std::vector<FdExpr> blocks;
      for (int m = 0; m < kMdps; ++m) {
        std::vector<FdExpr> conj;
        for (int k = 0; k < kWidth; ++k) {
          FdVar x = vars[rng.NextIndex(vars.size())];
          FdVar y = vars[rng.NextIndex(vars.size())];
          if (x == y) continue;
          FdExpr eq = FdExpr::EqVar(x, y);
          conj.push_back(solver.ModelValue(x) == solver.ModelValue(y)
                             ? std::move(eq)
                             : FdExpr::Not(std::move(eq)));
        }
        blocks.push_back(FdExpr::Not(FdExpr::And(std::move(conj))));
      }
      if (!solver.AddConstraint(FdExpr::And(std::move(blocks))).ok()) {
        state.SkipWithError("AddConstraint failed");
        break;
      }
    }
    benchmark::DoNotOptimize(solver.num_clauses());
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_SatBlockingStream)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_FactsRoundTrip(benchmark::State& state) {
  const auto& family = workload::GetFamily("Yelp");
  RecordForest forest = family.generate(1, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    uint64_t next_id = 1;
    auto db = ToFacts(forest, family.schema, &next_id);
    auto back = BuildForest(*db, family.schema);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(forest.TotalRecords()));
}
BENCHMARK(BM_FactsRoundTrip)->Arg(100)->Arg(1000);

void BM_FlattenView(benchmark::State& state) {
  const auto& family = workload::GetFamily("Yelp");
  RecordForest forest = family.generate(1, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto view = FlattenForestView(forest, family.schema, "Business");
    benchmark::DoNotOptimize(view);
  }
}
BENCHMARK(BM_FlattenView)->Arg(100)->Arg(1000);

void BM_ProjectionCompare(benchmark::State& state) {
  // Project a wide relation onto 3 of 8 attributes and set-compare: the
  // MDP/attribute-mapping access pattern, dominated by projection cost.
  int n = static_cast<int>(state.range(0));
  std::vector<std::string> attrs = {"a", "b", "c", "d", "e", "f", "g", "h"};
  Relation a("wide", attrs), b("wide", attrs);
  for (int i = 0; i < n; ++i) {
    Tuple base({Value::Int(i % 50), Value::String(CityName(i % 20)), Value::Int(i % 7),
                Value::Int(i), Value::Float(i * 0.5), Value::Bool((i & 1) != 0),
                Value::String(UserName(i)), Value::Int(i % 3)});
    Tuple other = base;
    other[7] = Value::Int((i + 1) % 3);
    a.Insert(std::move(base));
    b.Insert(std::move(other));
  }
  std::vector<std::string> proj = {"a", "b", "g"};
  for (auto _ : state) {
    auto pa = a.Project(proj);
    auto pb = b.Project(proj);
    benchmark::DoNotOptimize(pa.ValueOrDie().SetEquals(pb.ValueOrDie()));
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<int64_t>(n));
}
BENCHMARK(BM_ProjectionCompare)->Arg(1000)->Arg(10000);

void BM_MdpSearch(benchmark::State& state) {
  // Two relations differing in a 2-attribute projection.
  int n = static_cast<int>(state.range(0));
  Relation actual("r", {"a", "b", "c", "d"});
  Relation expected("r", {"a", "b", "c", "d"});
  for (int i = 0; i < n; ++i) {
    actual.Insert(Tuple({Value::Int(i), Value::Int(i % 5), Value::Int(i % 7),
                         Value::Int(i % 3)}));
    expected.Insert(Tuple({Value::Int(i), Value::Int(i % 5), Value::Int(i % 7),
                           Value::Int((i + 1) % 3)}));
  }
  for (auto _ : state) {
    auto mdps = MDPSet(actual, expected);
    benchmark::DoNotOptimize(mdps);
  }
}
BENCHMARK(BM_MdpSearch)->Arg(16)->Arg(256);

void BM_MigrateDirect(benchmark::State& state) {
  // Baseline for the Session-overhead check below: the Migrator stage
  // driving a Tencent-1-scale migration directly.
  const auto* bench = workload::FindBenchmark("Tencent-1");
  RecordForest source =
      workload::GenerateSource(*bench, 77, static_cast<size_t>(state.range(0)))
          .ValueOrDie();
  Migrator migrator(bench->source, bench->target);
  size_t records = 0;
  for (auto _ : state) {
    auto out = migrator.Migrate(bench->golden, source);
    records = out.ValueOrDie().TotalRecords();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(records));
}
BENCHMARK(BM_MigrateDirect)->Arg(200)->Arg(1000);

void BM_MigrateSession(benchmark::State& state) {
  // Same migration through Session::Migrate: schema validation at Create,
  // per-call forest checks, and RunContext plumbing must not cost anything
  // measurable vs BM_MigrateDirect (tracked in BENCH_micro.json).
  const auto* bench = workload::FindBenchmark("Tencent-1");
  RecordForest source =
      workload::GenerateSource(*bench, 77, static_cast<size_t>(state.range(0)))
          .ValueOrDie();
  Session session = Session::Create(bench->source, bench->target).ValueOrDie();
  size_t records = 0;
  for (auto _ : state) {
    auto out = session.Migrate(bench->golden, source);
    records = out.ValueOrDie().TotalRecords();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(records));
}
BENCHMARK(BM_MigrateSession)->Arg(200)->Arg(1000);

void BM_EndToEndSynthesisMotivating(benchmark::State& state) {
  const auto* bench = workload::FindBenchmark("Tencent-1");
  auto example = workload::MakeExample(*bench, 7, 3).ValueOrDie();
  Session session = Session::Create(bench->source, bench->target).ValueOrDie();
  for (auto _ : state) {
    auto result = session.Synthesize(example);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EndToEndSynthesisMotivating)->Unit(benchmark::kMillisecond);

void BM_SynthesizeEndToEnd(benchmark::State& state) {
  // The enumeration loop on a workload where candidate *evaluation*
  // dominates the per-iteration SAT solve. One target table whose golden
  // rule is the Yelp-1 two-atom join, over a migration-scale instance:
  // every candidate runs a real join on thousands of facts, while the
  // sketch's SAT queries stay microseconds. Enum mode plus max_iterations
  // makes the measurement a fixed count of enumeration steps ending in a
  // deterministic kEvalBudget.
  const auto* bench = workload::FindBenchmark("Yelp-1");
  Schema tgt = RelationalSchemaBuilder()
                   .AddTable("ReviewT", {{"rt_id", PrimitiveType::kInt},
                                         {"rt_biz", PrimitiveType::kInt},
                                         {"rt_stars", PrimitiveType::kInt},
                                         {"rt_user", PrimitiveType::kInt}})
                   .Build()
                   .ValueOrDie();
  Program golden =
      Program::Parse(
          "ReviewT(r, b, s, u) :- Business(b, _, _, _, rv, _), Review(rv, r, s, u).")
          .ValueOrDie();
  SessionOptions options;
  options.synthesis.use_analysis = false;  // Dynamite-Enum: one candidate per iteration
  options.synthesis.use_mdp = false;
  options.synthesis.max_iterations = 192;
  Session session = Session::Create(bench->source, tgt, options).ValueOrDie();
  Example example;
  example.input = workload::GenerateSource(*bench, 7, 200).ValueOrDie();
  example.output = session.Migrate(golden, example.input).ValueOrDie();

  for (auto _ : state) {
    auto result = session.Synthesize(example);
    // The budget is below the solution's enumeration index: every run
    // measures exactly max_iterations candidate evaluations.
    if (result.ok() || result.status().code() != StatusCode::kEvalBudget) {
      state.SkipWithError("expected kEvalBudget");
      break;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(options.synthesis.max_iterations));
}
BENCHMARK(BM_SynthesizeEndToEnd)->Unit(benchmark::kMillisecond);

/// Console reporter that additionally records every run into a JsonWriter,
/// so the perf trajectory lands in BENCH_micro.json (satellite of ISSUE 1).
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(bench::JsonWriter* writer) : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      double wall_ms = run.GetAdjustedRealTime() *
                       (run.time_unit == benchmark::kMillisecond ? 1.0
                        : run.time_unit == benchmark::kMicrosecond ? 1e-3
                        : run.time_unit == benchmark::kSecond ? 1e3
                                                              : 1e-6);
      double ips = 0;
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) ips = it->second.value;
      writer_->Record(run.benchmark_name(), wall_ms, ips);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::JsonWriter* writer_;
};

}  // namespace
}  // namespace dynamite

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  dynamite::bench::JsonWriter writer;
  dynamite::JsonTeeReporter reporter(&writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const char* path = std::getenv("DYNAMITE_BENCH_JSON");
  const char* label = std::getenv("DYNAMITE_BENCH_LABEL");
  if (path == nullptr) path = "BENCH_micro.json";
  if (label == nullptr) label = "";
  if (writer.empty()) {
    std::fprintf(stderr, "no benchmark results; %s not written\n", path);
    return 0;
  }
  // Annotate the run with the process-wide metrics snapshot: the counters
  // say what the measured runs actually did (plan refreshes, memo hits,
  // fallbacks), which is what makes threshold re-tunes explainable from the
  // JSON alone.
  dynamite::metrics::MetricsSnapshot snapshot = dynamite::metrics::Snapshot();
  for (const auto& [name, value] : snapshot.counters) {
    writer.RecordMetric(name, value);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    writer.RecordMetric(name, static_cast<uint64_t>(value));
  }
  for (const auto& h : snapshot.histograms) {
    writer.RecordMetric(h.name + ".count", h.count);
    writer.RecordMetric(h.name + ".sum", h.sum);
  }
  if (!writer.WriteFile(path, label)) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", path);
  return 0;
}
