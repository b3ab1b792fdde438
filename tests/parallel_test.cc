// Concurrency suite. Evaluation is sequential, but Sessions on different
// threads share the process-wide StringPool, metrics registry, trace rings
// and failpoint table (session.h: one Session per thread). Two Sessions
// running at once must each produce what the same call produces alone, the
// sharded StringPool must survive concurrent interning, and a cancel from
// another thread must land within one 1024-tick stride. The skewed inputs
// that stress posting-list fan-out are checked against brute-force
// references. This binary is the core of the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/run_context.h"
#include "api/session.h"
#include "datalog/engine.h"
#include "migrate/facts.h"
#include "testing.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "util/trace.h"
#include "value/database.h"
#include "value/string_pool.h"
#include "workload/benchmarks.h"
#include "workload/datagen.h"

namespace dynamite {
namespace {

// ----------------------------------------------------------------- fixtures

using Edge = std::pair<int64_t, int64_t>;

/// Cyclic int edge list with fan-out 2 (the TC bench shape): the closure is
/// all pairs, so the fixpoint runs many rounds with fat deltas.
std::vector<Edge> UniformEdges(int n) {
  std::vector<Edge> edges;
  for (int i = 0; i < n; ++i) {
    edges.emplace_back(i, (i + 1) % n);
    edges.emplace_back(i, (i * 7 + 3) % n);
  }
  return edges;
}

/// Skewed edge list: Zipf-distributed targets give hash groups with giant
/// posting lists, so a few first-atom rows fan out into most of the join
/// output.
std::vector<Edge> SkewedEdges(int n) {
  std::vector<Edge> edges;
  Rng rng(99);
  workload::ZipfDist zipf(n, 1.1);
  for (int i = 0; i < n; ++i) {
    edges.emplace_back(i, static_cast<int64_t>(zipf.Sample(&rng)));
    edges.emplace_back(i, (i * 7 + 3) % n);
  }
  return edges;
}

FactDatabase EdgeFacts(const std::vector<Edge>& edges) {
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  for (const auto& [s, t] : edges) {
    db.AddFact("edge", Tuple({Value::Int(s), Value::Int(t)}));
  }
  return db;
}

/// Same shape as UniformEdges over interned strings (string-keyed joins plus
/// pool traffic).
FactDatabase StringEdges(int n) {
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  auto name = [](int i) { return "node_" + std::to_string(i); };
  for (int i = 0; i < n; ++i) {
    db.AddFact("edge", Tuple({Value::String(name(i)), Value::String(name((i + 1) % n))}));
    db.AddFact("edge", Tuple({Value::String(name(i)), Value::String(name((i * 7 + 3) % n))}));
  }
  return db;
}

Program TcProgram() {
  return Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )")
      .ValueOrDie();
}

std::set<Edge> PairsOf(const Relation& rel) {
  std::set<Edge> pairs;
  for (size_t r = 0; r < rel.size(); ++r) {
    pairs.emplace(rel.cell(r, 0).AsInt(), rel.cell(r, 1).AsInt());
  }
  return pairs;
}

/// Transitive closure by breadth-first search from every node.
std::set<Edge> ReferenceClosure(const std::vector<Edge>& edges) {
  std::map<int64_t, std::vector<int64_t>> out;
  for (const auto& [s, t] : edges) out[s].push_back(t);
  std::set<Edge> closure;
  for (const auto& [source, unused] : out) {
    std::set<int64_t> seen;
    std::vector<int64_t> frontier = {source};
    while (!frontier.empty()) {
      int64_t node = frontier.back();
      frontier.pop_back();
      auto it = out.find(node);
      if (it == out.end()) continue;
      for (int64_t next : it->second) {
        if (seen.insert(next).second) frontier.push_back(next);
      }
    }
    for (int64_t target : seen) closure.emplace(source, target);
  }
  return closure;
}

/// Same rows in the same insertion order (strictly stronger than SetEquals).
void ExpectBitIdentical(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.arity(), b.arity());
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a.row_hash(r), b.row_hash(r)) << "row " << r;
    for (size_t c = 0; c < a.arity(); ++c) {
      ASSERT_EQ(a.cell(r, c), b.cell(r, c)) << "row " << r << " col " << c;
    }
  }
}

// ---------------------------------------------------------- skewed inputs --

TEST(SkewedInputs, TransitiveClosureMatchesReference) {
  Program p = TcProgram();
  for (bool skewed : {false, true}) {
    SCOPED_TRACE(skewed ? "skewed" : "uniform");
    const std::vector<Edge> edges = skewed ? SkewedEdges(150) : UniformEdges(150);
    FactDatabase db = EdgeFacts(edges);
    DatalogEngine engine;
    ASSERT_OK_AND_ASSIGN(FactDatabase first, engine.EvalAutoSignatures(p, db));
    const Relation& tc = *first.Find("tc").ValueOrDie();
    EXPECT_EQ(PairsOf(tc), ReferenceClosure(edges));
    if (!skewed) {
      EXPECT_EQ(tc.size(), 150u * 150u);
    }

    // A repeat on the warm engine and a fresh engine reproduce the rows in
    // the same order.
    ASSERT_OK_AND_ASSIGN(FactDatabase warm, engine.EvalAutoSignatures(p, db));
    ExpectBitIdentical(tc, *warm.Find("tc").ValueOrDie());
    ASSERT_OK_AND_ASSIGN(FactDatabase fresh, DatalogEngine().EvalAutoSignatures(p, db));
    ExpectBitIdentical(tc, *fresh.Find("tc").ValueOrDie());
  }
}

TEST(SkewedInputs, TwoWayJoinMatchesReference) {
  Program p = Program::Parse("j(x, z) :- edge(x, y), edge(y, z).").ValueOrDie();
  const std::vector<Edge> edges = SkewedEdges(600);
  std::set<Edge> want;
  for (const auto& [x, y] : edges) {
    for (const auto& [y2, z] : edges) {
      if (y == y2) want.emplace(x, z);
    }
  }
  ASSERT_FALSE(want.empty());

  FactDatabase db = EdgeFacts(edges);
  ASSERT_OK_AND_ASSIGN(FactDatabase first, DatalogEngine().EvalAutoSignatures(p, db));
  const Relation& j = *first.Find("j").ValueOrDie();
  EXPECT_EQ(PairsOf(j), want);
  ASSERT_OK_AND_ASSIGN(FactDatabase again, DatalogEngine().EvalAutoSignatures(p, db));
  ExpectBitIdentical(j, *again.Find("j").ValueOrDie());
}

// -------------------------------------------------- cancellation latency --

TEST(Cancellation, MidFixpointCancelLandsWithinOneStride) {
  // A closure large enough to run for many seconds if never interrupted;
  // cancelling mid-fixpoint from another thread must unwind within one
  // 1024-tick stride — microseconds of work. The wall-clock bound is
  // deliberately loose for sanitizer builds; the hard assertion is
  // kCancelled (the fixpoint did not run to completion).
  FactDatabase db = StringEdges(600);
  DatalogEngine engine;
  CancelSource source;
  RunContext ctx;
  ctx.cancel = source.token();

  std::atomic<bool> cancelled{false};
  std::chrono::steady_clock::time_point cancel_at;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cancel_at = std::chrono::steady_clock::now();
    cancelled.store(true);
    source.RequestCancel();
  });
  auto result = engine.EvalAutoSignatures(TcProgram(), db, &ctx);
  auto returned_at = std::chrono::steady_clock::now();
  canceller.join();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(cancelled.load());
  double latency = std::chrono::duration<double>(returned_at - cancel_at).count();
  EXPECT_LT(latency, 10.0) << "cancellation latency " << latency << "s";
}

TEST(Cancellation, PreCancelledContextReturnsImmediately) {
  FactDatabase db = StringEdges(600);
  DatalogEngine engine;
  CancelSource source;
  source.RequestCancel();
  RunContext ctx;
  ctx.cancel = source.token();
  auto start = std::chrono::steady_clock::now();
  auto result = engine.EvalAutoSignatures(TcProgram(), db, &ctx);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_LT(elapsed, 10.0);
}

// ------------------------------------------ StringPool under concurrency --

TEST(ParallelStringPool, ConcurrentInternsAreConsistent) {
  // 8 threads intern overlapping string sets while also reading back
  // earlier ids: every thread must observe the same string -> id mapping,
  // ids must come out dense, and Get must round-trip. Under TSan this is
  // the pool's shard/storage synchronization proof.
  constexpr int kThreads = 8;
  constexpr int kDistinct = 500;
  constexpr int kInternsPerThread = 4000;
  StringPool pool;
  auto name = [](int i) { return "hammer_" + std::to_string(i); };

  std::vector<std::vector<uint32_t>> ids(kThreads,
                                         std::vector<uint32_t>(kDistinct, UINT32_MAX));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kInternsPerThread; ++k) {
        int i = (k * 13 + t * 7) % kDistinct;
        uint32_t id = pool.Intern(name(i));
        if (ids[t][i] == UINT32_MAX) {
          ids[t][i] = id;
        } else {
          // Idempotent within a thread.
          ASSERT_EQ(ids[t][i], id);
        }
        // Lock-free read-back while other threads keep interning.
        ASSERT_EQ(pool.Get(id), name(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(pool.size(), static_cast<size_t>(kDistinct));
  std::set<uint32_t> distinct_ids;
  for (int i = 0; i < kDistinct; ++i) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[0][i], ids[t][i]) << "string " << i << " thread " << t;
    }
    ASSERT_NE(ids[0][i], UINT32_MAX);
    EXPECT_LT(ids[0][i], static_cast<uint32_t>(kDistinct));  // dense
    distinct_ids.insert(ids[0][i]);
    EXPECT_EQ(pool.Get(ids[0][i]), name(i));
  }
  EXPECT_EQ(distinct_ids.size(), static_cast<size_t>(kDistinct));
}

// ------------------------------------------- one Session per thread, twice --

struct PipelineCase {
  const workload::Benchmark* bench = nullptr;
  Example example;
  RecordForest source;
};

PipelineCase MakePipelineCase(const char* name) {
  PipelineCase pc;
  pc.bench = workload::FindBenchmark(name);
  EXPECT_NE(pc.bench, nullptr) << name;
  if (pc.bench == nullptr) return pc;
  pc.example = workload::MakeExample(*pc.bench, 7, 3).ValueOrDie();
  pc.source = workload::GenerateSource(*pc.bench, 77, 300).ValueOrDie();
  return pc;
}

Result<PipelineResult> RunPipeline(const PipelineCase& pc) {
  DYNAMITE_ASSIGN_OR_RETURN(Session session,
                            Session::Create(pc.bench->source, pc.bench->target));
  return session.SynthesizeAndMigrate(pc.example, pc.source);
}

TEST(ParallelSession, ConcurrentSessionsMatchSoloRuns) {
  const std::vector<PipelineCase> cases = {MakePipelineCase("Tencent-1"),
                                           MakePipelineCase("Soccer-1")};
  for (const PipelineCase& pc : cases) ASSERT_NE(pc.bench, nullptr);

  std::vector<PipelineResult> solo;
  for (const PipelineCase& pc : cases) {
    ASSERT_OK_AND_ASSIGN(PipelineResult result, RunPipeline(pc));
    EXPECT_GT(result.migrated.TotalRecords(), 0u);
    solo.push_back(std::move(result));
  }

  // Both Sessions run at once, each on its own thread, with tracing armed:
  // the shared StringPool, metrics registry, trace rings and failpoint
  // table all see concurrent traffic.
  trace::Clear();
  trace::Arm();
  std::vector<Result<PipelineResult>> concurrent(
      cases.size(), Result<PipelineResult>(Status::Internal("not run")));
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < cases.size(); ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < cases.size()) std::this_thread::yield();
      concurrent[i] = RunPipeline(cases[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  trace::Disarm();
  std::vector<trace::Event> events = trace::CollectEvents();
  trace::Clear();

  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].bench->name);
    ASSERT_TRUE(concurrent[i].ok()) << concurrent[i].status().ToString();
    const PipelineResult& got = concurrent[i].ValueOrDie();
    EXPECT_EQ(got.synthesis.program.ToString(), solo[i].synthesis.program.ToString());
    EXPECT_EQ(got.synthesis.iterations, solo[i].synthesis.iterations);
    EXPECT_TRUE(ForestEquals(got.migrated, solo[i].migrated));
  }

  // Each run recorded on its own thread under its own trace id, and every
  // span a thread recorded carries that thread's id.
  std::map<uint32_t, std::set<uint64_t>> ids_by_tid;
  for (const trace::Event& e : events) ids_by_tid[e.tid].insert(e.trace_id);
  ASSERT_EQ(ids_by_tid.size(), cases.size());
  std::set<uint64_t> run_ids;
  for (const auto& [tid, ids] : ids_by_tid) {
    ASSERT_EQ(ids.size(), 1u) << "tid " << tid << " mixes trace ids";
    EXPECT_NE(*ids.begin(), 0u);
    run_ids.insert(*ids.begin());
  }
  EXPECT_EQ(run_ids.size(), cases.size());
}

}  // namespace
}  // namespace dynamite
