// Determinism and thread-safety suite for the parallel semi-naive fixpoint
// (ISSUE 4): fixpoint outputs must be bit-identical — relation contents AND
// row insertion order — across num_threads ∈ {1, 2, 8}, stats() counters
// must agree, cancellation must land within one per-worker tick stride, and
// the sharded StringPool must survive concurrent interning. This binary is
// the core of the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/run_context.h"
#include "api/session.h"
#include "datalog/engine.h"
#include "testing.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "value/database.h"
#include "value/string_pool.h"
#include "workload/benchmarks.h"
#include "workload/datagen.h"

namespace dynamite {
namespace {

// ----------------------------------------------------------------- fixtures

/// Cyclic int edge relation with fan-out 2 (the TC bench shape): closure is
/// all-pairs, so the fixpoint runs many rounds with fat deltas — big enough
/// that every round takes the parallel chunked path.
FactDatabase IntEdges(int n) {
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  for (int i = 0; i < n; ++i) {
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i + 1) % n)}));
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i * 7 + 3) % n)}));
  }
  return db;
}

/// Same shape over interned strings (string-keyed joins + pool traffic).
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

/// Skewed int edge relation: Zipf-distributed targets give hash groups with
/// giant posting lists, so a few first-atom rows fan out into most of the
/// join output and chunks carry very uneven work.
FactDatabase SkewedEdges(int n) {
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  Rng rng(99);
  workload::ZipfDist zipf(n, 1.1);
  for (int i = 0; i < n; ++i) {
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int(static_cast<int64_t>(
                                                 zipf.Sample(&rng)))}));
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i * 7 + 3) % n)}));
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

DatalogEngine MakeEngine(size_t num_threads) {
  DatalogEngine::Options opts;
  opts.num_threads = num_threads;
  return DatalogEngine(opts);
}

/// Bit-identity: same rows in the same insertion order (strictly stronger
/// than SetEquals — it pins the canonical chunk-merge order to the
/// sequential emission order).
void ExpectBitIdentical(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.arity(), b.arity());
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a.row_hash(r), b.row_hash(r)) << "row " << r;
    for (size_t c = 0; c < a.arity(); ++c) {
      ASSERT_EQ(a.cell(r, c), b.cell(r, c)) << "row " << r << " col " << c;
    }
  }
  EXPECT_TRUE(a.SetEquals(b));
}

// ------------------------------------------------- determinism (tentpole) --

TEST(ParallelFixpoint, IntClosureBitIdenticalAcrossThreadCounts) {
  Program p = TcProgram();
  // Uniform fan-out 2 over a cycle (closure is all pairs), and the skewed
  // variant whose giant posting lists concentrate work in a few chunks.
  for (bool skewed : {false, true}) {
    FactDatabase db = skewed ? SkewedEdges(150) : IntEdges(150);
    auto baseline = MakeEngine(1).EvalAutoSignatures(p, db);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    const Relation* tc1 = baseline.ValueOrDie().Find("tc").ValueOrDie();
    if (!skewed) {
      EXPECT_EQ(tc1->size(), 150u * 150u);
    }

    for (size_t threads : {2u, 8u}) {
      auto parallel = MakeEngine(threads).EvalAutoSignatures(p, db);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectBitIdentical(*tc1, *parallel.ValueOrDie().Find("tc").ValueOrDie());
    }
  }
}

TEST(ParallelFixpoint, StringClosureBitIdenticalAcrossThreadCounts) {
  FactDatabase db = StringEdges(100);
  Program p = TcProgram();
  auto baseline = MakeEngine(1).EvalAutoSignatures(p, db);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const Relation* tc1 = baseline.ValueOrDie().Find("tc").ValueOrDie();

  for (size_t threads : {2u, 8u}) {
    auto parallel = MakeEngine(threads).EvalAutoSignatures(p, db);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectBitIdentical(*tc1, *parallel.ValueOrDie().Find("tc").ValueOrDie());
  }
}

TEST(ParallelFixpoint, NonRecursivePassZeroBitIdentical) {
  // Pass-0 full plans take the same chunked path as delta plans; a plain
  // two-way join covers the non-recursive synthesizer workload, over both
  // uniform and Zipf-skewed join keys.
  Program p = Program::Parse("j(x, z) :- edge(x, y), edge(y, z).").ValueOrDie();
  for (bool skewed : {false, true}) {
    FactDatabase db = skewed ? SkewedEdges(600) : IntEdges(400);
    auto baseline = MakeEngine(1).EvalAutoSignatures(p, db);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    const Relation* j1 = baseline.ValueOrDie().Find("j").ValueOrDie();
    ASSERT_GT(j1->size(), 0u);

    for (size_t threads : {2u, 8u}) {
      auto parallel = MakeEngine(threads).EvalAutoSignatures(p, db);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectBitIdentical(*j1, *parallel.ValueOrDie().Find("j").ValueOrDie());
    }
  }
}

TEST(ParallelFixpoint, MultiHeadRuleBitIdentical) {
  // Multi-head rules exercise the head_seq interleaving in the chunk merge.
  FactDatabase db = IntEdges(300);
  Program p = Program::Parse(R"(
    out(x, y), rev(y, x) :- edge(x, y), edge(y, _).
  )")
                  .ValueOrDie();
  auto baseline = MakeEngine(1).EvalAutoSignatures(p, db);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (size_t threads : {2u, 8u}) {
    auto parallel = MakeEngine(threads).EvalAutoSignatures(p, db);
    ASSERT_TRUE(parallel.ok());
    for (const char* rel : {"out", "rev"}) {
      ExpectBitIdentical(*baseline.ValueOrDie().Find(rel).ValueOrDie(),
                         *parallel.ValueOrDie().Find(rel).ValueOrDie());
    }
  }
}

TEST(ParallelFixpoint, StatsCountersIdenticalAcrossThreadCounts) {
  // The IDB-drift replan scenario at every thread count: same refresh
  // decisions, same counters, same (set-equal) outputs.
  Program p = Program::Parse(R"(
    p(x, y) :- base(x, y).
    p(x, y) :- p(x, z), link(z, y).
  )")
                  .ValueOrDie();
  std::vector<size_t> refreshes;
  std::vector<FactDatabase> outputs;
  for (size_t threads : {1u, 2u, 8u}) {
    FactDatabase db;
    db.DeclareRelation("base", {"x", "y"}).ValueOrDie();
    db.DeclareRelation("link", {"z", "y"}).ValueOrDie();
    for (int i = 0; i < 3; ++i) {
      db.AddFact("link", Tuple({Value::Int(i), Value::Int(i + 1)}));
    }
    for (int i = 0; i < 40; ++i) {
      db.AddFact("base", Tuple({Value::Int(i), Value::Int(i % 4)}));
    }
    DatalogEngine engine = MakeEngine(threads);
    ASSERT_TRUE(engine.EvalAutoSignatures(p, db).ok());
    for (int i = 40; i < 640; ++i) {
      db.AddFact("base", Tuple({Value::Int(i), Value::Int(i % 4)}));
    }
    auto second = engine.EvalAutoSignatures(p, db);
    ASSERT_TRUE(second.ok());
    refreshes.push_back(engine.stats().plan_refreshes);
    outputs.push_back(std::move(second).ValueOrDie());
  }
  EXPECT_EQ(refreshes[0], refreshes[1]);
  EXPECT_EQ(refreshes[0], refreshes[2]);
  EXPECT_GT(refreshes[0], 0u);  // the drift really happened
  EXPECT_TRUE(outputs[0].SetEquals(outputs[1]));
  EXPECT_TRUE(outputs[0].SetEquals(outputs[2]));
  ExpectBitIdentical(*outputs[0].Find("p").ValueOrDie(),
                     *outputs[2].Find("p").ValueOrDie());
}

TEST(ParallelFixpoint, EvalBudgetErrorIdenticalAcrossThreadCounts) {
  FactDatabase db = IntEdges(200);
  Program p = TcProgram();
  for (size_t threads : {1u, 2u, 8u}) {
    DatalogEngine::Options opts;
    opts.num_threads = threads;
    opts.max_derived_tuples = 1000;  // closure is 40000: always exceeded
    auto result = DatalogEngine(opts).EvalAutoSignatures(p, db);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kEvalBudget) << "threads " << threads;
  }
}

// -------------------------------------- cancellation latency (satellite) --

TEST(ParallelCancellation, MidFixpointCancelLandsWithinOneStride) {
  // A closure large enough to run for many seconds if never interrupted;
  // cancelling mid-fixpoint must unwind within one per-worker 1024-tick
  // stride — microseconds of work — at 1 worker and at 4. The wall-clock
  // bound is deliberately loose for sanitizer builds; the hard assertion is
  // kCancelled (the fixpoint did not run to completion).
  for (size_t threads : {1u, 4u}) {
    FactDatabase db = StringEdges(600);
    Program p = TcProgram();
    DatalogEngine engine = MakeEngine(threads);
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
    auto result = engine.EvalAutoSignatures(p, db, &ctx);
    auto returned_at = std::chrono::steady_clock::now();
    canceller.join();

    ASSERT_FALSE(result.ok()) << "threads " << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << "threads " << threads;
    ASSERT_TRUE(cancelled.load());
    double latency = std::chrono::duration<double>(returned_at - cancel_at).count();
    EXPECT_LT(latency, 10.0) << "threads " << threads
                             << ": cancellation latency " << latency << "s";
  }
}

TEST(ParallelCancellation, PreCancelledContextReturnsImmediately) {
  for (size_t threads : {1u, 4u}) {
    FactDatabase db = StringEdges(600);
    DatalogEngine engine = MakeEngine(threads);
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
    EXPECT_LT(elapsed, 10.0) << "threads " << threads;
  }
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

// ------------------------------------- synthesizer end-to-end (satellite) --

TEST(ParallelSession, SynthesizeAndMigrateDeterministicAcrossThreadCounts) {
  const auto* bench = workload::FindBenchmark("Tencent-1");
  ASSERT_NE(bench, nullptr);
  ASSERT_OK_AND_ASSIGN(Example example, workload::MakeExample(*bench, 7, 3));
  ASSERT_OK_AND_ASSIGN(RecordForest source, workload::GenerateSource(*bench, 77, 300));

  std::string program_at_one;
  size_t records_at_one = 0;
  for (size_t threads : {1u, 8u}) {
    SessionOptions options;
    options.num_threads = threads;
    ASSERT_OK_AND_ASSIGN(Session session,
                         Session::Create(bench->source, bench->target, options));
    ASSERT_OK_AND_ASSIGN(PipelineResult result,
                         session.SynthesizeAndMigrate(example, source));
    if (threads == 1) {
      program_at_one = result.synthesis.program.ToString();
      records_at_one = result.migrated.TotalRecords();
      EXPECT_GT(records_at_one, 0u);
    } else {
      EXPECT_EQ(result.synthesis.program.ToString(), program_at_one);
      EXPECT_EQ(result.migrated.TotalRecords(), records_at_one);
    }
  }
}

}  // namespace
}  // namespace dynamite
