// Failure-semantics suite (ISSUE 6): injected faults must surface as typed
// Statuses — never crashes — and must leave the engine reusable; memory
// budgets trip kResourceExhausted with the documented precedence (a budget in
// RunContext::memory wins over Options::max_memory_bytes); overflow paths
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

// A cyclic fan-out-2 edge relation whose transitive closure is all-pairs:
// 300 EDB rows at n=150, a fixpoint of many rounds with fat deltas.
FactDatabase IntEdges(int n) {
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  for (int i = 0; i < n; ++i) {
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i + 1) % n)}));
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
// disarming, the SAME engine (caches warm) must evaluate to the
// bit-identical clean result.
TEST_F(RobustnessTest, InjectedCancelMidRunLeavesEngineReusable) {
  FactDatabase db = IntEdges(150);
  Program p = TcProgram();
  auto baseline = DatalogEngine().EvalAutoSignatures(p, db);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const Relation* tc0 = baseline.ValueOrDie().Find("tc").ValueOrDie();

  for (const char* site : {"engine.plan.entry", "engine.fixpoint.round"}) {
    SCOPED_TRACE(site);
    DatalogEngine engine;
    ASSERT_TRUE(failpoint::ArmFromString(site, "hit_1:cancel").ok());
    auto faulted = engine.EvalAutoSignatures(p, db);
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.status().code(), StatusCode::kCancelled);

    failpoint::DisarmAll();
    auto recovered = engine.EvalAutoSignatures(p, db);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ExpectBitIdentical(*tc0, *recovered.ValueOrDie().Find("tc").ValueOrDie());
  }
}

// relation.insert.alloc has no Status channel: it throws out of the first
// head-row insert, and the engine's exception boundary types it.
TEST_F(RobustnessTest, InjectedResourceExhaustionIsTypedAndRecoverable) {
  FactDatabase db = IntEdges(150);
  Program p = TcProgram();
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
  Program p = TcProgram();
  DatalogEngine::Options opts;
  opts.max_memory_bytes = 4096;  // the closure alone allocates ~700 KiB
  DatalogEngine engine{opts};
  auto result = engine.EvalAutoSignatures(p, db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);

  // Precedence: a budget the caller installed in RunContext::memory governs
  // the run even when Options::max_memory_bytes is tighter — one budget per
  // run, the caller's. With an ample caller budget the same engine succeeds.
  MemoryBudget ample(size_t{1} << 32);
  RunContext ctx;
  ctx.memory = &ample;
  auto governed = engine.EvalAutoSignatures(p, db, &ctx);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  EXPECT_GT(ample.used(), 0u);

  // And without the caller budget the option applies again: the exhausted
  // outcome is deterministic and the engine stays reusable throughout.
  auto again = engine.EvalAutoSignatures(p, db);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kResourceExhausted);
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
  Program p = TcProgram();
  auto baseline = DatalogEngine().EvalAutoSignatures(p, db);
  ASSERT_TRUE(baseline.ok());
  const Relation* tc0 = baseline.ValueOrDie().Find("tc").ValueOrDie();

  DatalogEngine engine;
  ASSERT_TRUE(
      failpoint::ArmFromString("engine.fixpoint.round", "p=0.5@42:timeout").ok());
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
  ExpectBitIdentical(*tc0, *recovered.ValueOrDie().Find("tc").ValueOrDie());
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
