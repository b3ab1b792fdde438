// Failure-semantics suite (ISSUE 6): injected faults must surface as typed
// Statuses — never crashes — and must leave the engine reusable; memory
// budgets trip kResourceExhausted, the engine's through RunContext::memory
// and a Session's over its whole pipeline; overflow paths
// that used to abort now return kOutOfRange; DYNAMITE_CHECK aborts in every
// build type. Each test arms failpoints programmatically and DisarmAll()s in
// teardown so tests stay independent.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/run_context.h"
#include "api/session.h"
#include "datalog/engine.h"
#include "util/cancel.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "value/database.h"
#include "value/relation.h"
#include "value/string_pool.h"
#include "value/value.h"
#include "workload/benchmarks.h"

namespace dynamite {
namespace {

// A cyclic fan-out-2 edge relation: 300 EDB rows at n=150.
FactDatabase IntEdges(int n) {
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  for (int i = 0; i < n; ++i) {
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i + 1) % n)}));
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i * 7 + 3) % n)}));
  }
  return db;
}

// Two rules that load the engine without recursion: `pair` is the
// all-pairs cross product of the edge sources (n^2 rows, 4n^2 candidates),
// and `hop2` the two-hop paths, evaluated after it.
Program LoadProgram() {
  return Program::Parse(R"(
    pair(x, y) :- edge(x, _), edge(y, _).
    hop2(x, y) :- edge(x, z), edge(z, y).
  )")
      .ValueOrDie();
}

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

class RobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

// ------------------------------------------------------- failpoint plumbing

TEST_F(RobustnessTest, ArmFromStringRejectsMalformedSpecs) {
  EXPECT_EQ(failpoint::ArmFromString("x", "wat").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::ArmFromString("x", "hit_").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::ArmFromString("x", "p=1.5@3").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::ArmFromString("x", "hit_2:frobnicate").code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(failpoint::ArmFromString("x", "hit_3:badalloc").ok());
  EXPECT_TRUE(failpoint::ArmFromString("x", "hit_3+:cancel").ok());
  EXPECT_TRUE(failpoint::ArmFromString("x", "p=0.25@7").ok());
  EXPECT_TRUE(failpoint::ArmFromString("x", "timeout").ok());
  EXPECT_TRUE(failpoint::ArmFromString("x", "").ok());
}

// ---------------------------------------- typed injection + engine reuse --

// An injected cancellation mid-run must come back as kCancelled, and after
// disarming, the SAME engine must evaluate to the bit-identical clean
// result.
TEST_F(RobustnessTest, InjectedCancelMidRunLeavesEngineReusable) {
  FactDatabase db = IntEdges(150);
  Program p = LoadProgram();
  auto baseline = DatalogEngine().EvalAutoSignatures(p, db);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const Relation* pair0 = baseline.ValueOrDie().Find("pair").ValueOrDie();
  const Relation* hop0 = baseline.ValueOrDie().Find("hop2").ValueOrDie();

  // Cancelled at the first plan, and at the second, after `pair` is full.
  for (const char* trigger : {"hit_1:cancel", "hit_2:cancel"}) {
    SCOPED_TRACE(trigger);
    DatalogEngine engine;
    ASSERT_TRUE(failpoint::ArmFromString("engine.plan.entry", trigger).ok());
    auto faulted = engine.EvalAutoSignatures(p, db);
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.status().code(), StatusCode::kCancelled);

    failpoint::DisarmAll();
    auto recovered = engine.EvalAutoSignatures(p, db);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ExpectBitIdentical(*pair0, *recovered.ValueOrDie().Find("pair").ValueOrDie());
    ExpectBitIdentical(*hop0, *recovered.ValueOrDie().Find("hop2").ValueOrDie());
  }
}

// relation.insert.alloc has no Status channel: it throws out of the first
// head-row insert, and the engine's exception boundary types it.
TEST_F(RobustnessTest, InjectedResourceExhaustionIsTypedAndRecoverable) {
  FactDatabase db = IntEdges(150);
  Program p = LoadProgram();
  DatalogEngine engine;
  ASSERT_TRUE(failpoint::ArmFromString("relation.insert.alloc", "hit_1").ok());
  auto faulted = engine.EvalAutoSignatures(p, db);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kResourceExhausted);

  failpoint::DisarmAll();
  auto recovered = engine.EvalAutoSignatures(p, db);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
}

// -------------------------------------------------------- memory budgets --

TEST_F(RobustnessTest, EngineMemoryBudgetReturnsResourceExhausted) {
  FactDatabase db = IntEdges(150);
  Program p = LoadProgram();
  DatalogEngine engine;
  MemoryBudget tight(4096);  // the 22,500 pairs alone allocate ~1 MiB
  RunContext tight_ctx;
  tight_ctx.memory = &tight;
  auto result = engine.EvalAutoSignatures(p, db, &tight_ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(tight.exhausted());

  // The same engine, given an ample budget, runs the program to completion
  // and charges what it allocated.
  MemoryBudget ample(size_t{1} << 32);
  RunContext ctx;
  ctx.memory = &ample;
  auto governed = engine.EvalAutoSignatures(p, db, &ctx);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  EXPECT_GT(ample.used(), 0u);
  EXPECT_FALSE(ample.exhausted());
}

TEST_F(RobustnessTest, SessionMemoryBudgetGovernsWholePipeline) {
  const workload::Benchmark& bench = workload::AllBenchmarks().front();
  auto source = workload::GenerateSource(bench, /*seed=*/7, /*scale=*/400);
  ASSERT_TRUE(source.ok()) << source.status().ToString();

  SessionOptions tight;
  tight.max_memory_bytes = 4096;
  auto tight_session =
      Session::Create(bench.source, bench.target, tight).ValueOrDie();
  auto starved = tight_session.Migrate(bench.golden, source.ValueOrDie());
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);

  auto unbounded_session =
      Session::Create(bench.source, bench.target, SessionOptions{}).ValueOrDie();
  auto migrated = unbounded_session.Migrate(bench.golden, source.ValueOrDie());
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
}

// ------------------------------------------------------ overflow → typed --

TEST_F(RobustnessTest, StringPoolOverflowReturnsOutOfRange) {
  StringPool pool(/*max_strings=*/2);
  auto a = pool.TryIntern("rb_overflow_a");
  auto b = pool.TryIntern("rb_overflow_b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = pool.TryIntern("rb_overflow_c");
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kOutOfRange);
  // Already-interned strings keep resolving after the pool is full: only
  // NOVEL strings hit the id-space limit.
  auto again = pool.TryIntern("rb_overflow_a");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie(), a.ValueOrDie());
}

TEST_F(RobustnessTest, InternFailpointSurfacesThroughTryString) {
  // The site sits after the lookup hit, so only a string this process has
  // never interned can trip it.
  ASSERT_TRUE(failpoint::ArmFromString("string_pool.intern", "hit_1:oor").ok());
  auto injected = Value::TryString("rb_unique_injection_probe");
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.status().code(), StatusCode::kOutOfRange);

  failpoint::DisarmAll();
  auto clean = Value::TryString("rb_unique_injection_probe");
  ASSERT_TRUE(clean.ok());
}

// --------------------------------------------- races with real interrupts --

// A pre-cancelled token racing an armed probabilistic fault must still yield
// a typed outcome from the small expected set, and the engine must be fully
// reusable afterwards.
TEST_F(RobustnessTest, CancelRacingInjectedTimeoutStaysTyped) {
  FactDatabase db = IntEdges(150);
  Program p = LoadProgram();
  auto baseline = DatalogEngine().EvalAutoSignatures(p, db);
  ASSERT_TRUE(baseline.ok());
  const Relation* pair0 = baseline.ValueOrDie().Find("pair").ValueOrDie();

  DatalogEngine engine;
  ASSERT_TRUE(failpoint::ArmFromString("engine.plan.entry", "p=0.5@42:timeout").ok());
  CancelSource cancel;
  cancel.RequestCancel();
  RunContext ctx;
  ctx.cancel = cancel.token();
  auto raced = engine.EvalAutoSignatures(p, db, &ctx);
  ASSERT_FALSE(raced.ok());
  EXPECT_TRUE(raced.status().code() == StatusCode::kCancelled ||
              raced.status().code() == StatusCode::kTimeout)
      << raced.status().ToString();

  failpoint::DisarmAll();
  auto recovered = engine.EvalAutoSignatures(p, db);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectBitIdentical(*pair0, *recovered.ValueOrDie().Find("pair").ValueOrDie());
}

// ------------------------------------------------------- hard invariants --

using RobustnessDeathTest = RobustnessTest;

TEST_F(RobustnessDeathTest, CheckAbortsOnArityMismatchInAllBuilds) {
  Relation r("r", {"a", "b"});
  // DYNAMITE_CHECK (unlike the assert it replaced) survives NDEBUG: a
  // mis-sized row aborts with a diagnostic instead of corrupting columns.
  EXPECT_DEATH(r.InsertRow({Value::Int(1)}), "DYNAMITE_CHECK failed");
}

}  // namespace
}  // namespace dynamite
