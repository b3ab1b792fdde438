// Observability suite: trace spans must nest well-formed, every
// span of a run must carry the run's trace id, metrics::Snapshot() must
// agree with the legacy per-object stats() structs (delta-for-delta — the
// registry is process-cumulative), the disarmed path must record nothing
// and cost next to nothing, spans must close on injected faults, and
// progress observers must never fire after their Session is gone. Runs in
// the TSan CI job.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/run_context.h"
#include "api/session.h"
#include "datalog/engine.h"
#include "migrate/facts.h"
#include "testing.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "value/database.h"
#include "workload/families.h"

namespace dynamite {
namespace {

// Every test leaves the process disarmed and the rings empty: trace state is
// process-wide, and a leaked armed flag would contaminate every later test
// in this binary (and skew their timing).
class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisarmAll();
    trace::Disarm();
    trace::Clear();
  }
  void TearDown() override {
    failpoint::DisarmAll();
    trace::Disarm();
    trace::Clear();
  }
};

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

/// Per-thread laminarity sweep: on one thread, any two recorded spans must
/// be disjoint or properly nested (RAII guarantees it; a partial overlap
/// means a span leaked across scopes). Holds for any subset of a well-nested
/// family, so ring overwrites cannot produce false positives.
void ExpectWellNested(const std::vector<trace::Event>& events) {
  std::map<uint32_t, std::vector<const trace::Event*>> by_tid;
  for (const trace::Event& e : events) {
    if (e.kind == 'X') by_tid[e.tid].push_back(&e);
  }
  ASSERT_FALSE(by_tid.empty());
  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end(),
              [](const trace::Event* a, const trace::Event* b) {
                if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
                return a->dur_ns > b->dur_ns;  // outer-first on ties
              });
    std::vector<uint64_t> open_ends;
    for (const trace::Event* s : spans) {
      const uint64_t start = s->start_ns;
      const uint64_t end = s->start_ns + s->dur_ns;
      while (!open_ends.empty() && open_ends.back() <= start) {
        open_ends.pop_back();
      }
      if (!open_ends.empty()) {
        ASSERT_LE(end, open_ends.back())
            << "span " << s->name << " on tid " << tid
            << " partially overlaps an enclosing span";
      }
      open_ends.push_back(end);
    }
  }
}

bool HasSpan(const std::vector<trace::Event>& events, const std::string& name) {
  for (const trace::Event& e : events) {
    if (e.kind == 'X' && name == e.name) return true;
  }
  return false;
}

// ------------------------------------------------------------ span nesting

TEST_F(ObservabilityTest, SpansNestWellFormed) {
  trace::Arm();
  auto out = DatalogEngine().EvalAutoSignatures(TcProgram(), IntEdges(100));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  std::vector<trace::Event> events = trace::CollectEvents();
  ExpectWellNested(events);
  EXPECT_TRUE(HasSpan(events, "engine.eval"));
  EXPECT_TRUE(HasSpan(events, "engine.compile"));
  EXPECT_TRUE(HasSpan(events, "engine.fixpoint.round"));
}

TEST_F(ObservabilityTest, SessionPipelineEmitsRootAndStageSpans) {
  trace::Arm();
  ASSERT_OK_AND_ASSIGN(
      Session session,
      Session::Create(testing::UnivSchema(), testing::AdmissionSchema()));
  Example example = testing::MotivatingExample();
  ASSERT_OK_AND_ASSIGN(PipelineResult result,
                       session.SynthesizeAndMigrate(example, example.input));
  EXPECT_GT(result.migrated.TotalRecords(), 0u);

  std::vector<trace::Event> events = trace::CollectEvents();
  ExpectWellNested(events);
  for (const char* span : {"session.synthesize_and_migrate", "synth.synthesize",
                           "migrate.run", "migrate.facts", "migrate.eval",
                           "migrate.build", "engine.eval", "solver.solve"}) {
    EXPECT_TRUE(HasSpan(events, span)) << "missing span " << span;
  }

  // Root spans carry the run's trace id, stamped by the Session entry point.
  uint64_t root_id = 0;
  for (const trace::Event& e : events) {
    if (e.kind == 'X' &&
        std::string("session.synthesize_and_migrate") == e.name) {
      root_id = e.trace_id;
    }
  }
  EXPECT_NE(root_id, 0u);

  const std::string path = ::testing::TempDir() + "observability_dump.json";
  ASSERT_OK(session.DumpTrace(path));
}

// --------------------------------------------------------------- trace ids

TEST_F(ObservabilityTest, EverySpanCarriesTheAmbientTraceId) {
  trace::Arm();
  trace::TraceIdScope scope(42);
  auto out = DatalogEngine().EvalAutoSignatures(TcProgram(), IntEdges(100));
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  std::vector<trace::Event> events = trace::CollectEvents();
  ASSERT_FALSE(events.empty());
  for (const trace::Event& e : events) {
    EXPECT_EQ(e.trace_id, 42u) << "span " << e.name << " lost the trace id";
  }
}

// ---------------------------------------------------- metrics/stats parity

TEST_F(ObservabilityTest, EngineMetricsMatchStats) {
  // An IDB-drift replan: the registry delta must equal the fresh engine's
  // stats() after the run. Deltas, not absolutes — the registry is
  // process-cumulative.
  Program p = Program::Parse(R"(
    p(x, y) :- base(x, y).
    p(x, y) :- p(x, z), link(z, y).
  )")
                  .ValueOrDie();
  FactDatabase db;
  db.DeclareRelation("base", {"x", "y"}).ValueOrDie();
  db.DeclareRelation("link", {"z", "y"}).ValueOrDie();
  for (int i = 0; i < 3; ++i) {
    db.AddFact("link", Tuple({Value::Int(i), Value::Int(i + 1)}));
  }
  for (int i = 0; i < 40; ++i) {
    db.AddFact("base", Tuple({Value::Int(i), Value::Int(i % 4)}));
  }
  const uint64_t refreshes_before =
      metrics::Snapshot().counter("engine.plan_refreshes");
  DatalogEngine engine;
  ASSERT_OK(engine.EvalAutoSignatures(p, db).status());
  for (int i = 40; i < 640; ++i) {
    db.AddFact("base", Tuple({Value::Int(i), Value::Int(i % 4)}));
  }
  ASSERT_OK(engine.EvalAutoSignatures(p, db).status());
  const uint64_t delta =
      metrics::Snapshot().counter("engine.plan_refreshes") - refreshes_before;
  EXPECT_EQ(delta, engine.stats().plan_refreshes);
  EXPECT_GT(engine.stats().plan_refreshes, 0u);  // the drift happened
}

TEST_F(ObservabilityTest, FixpointRoundsHistogramObservesEvals) {
  // histogram() points into its snapshot: keep each snapshot alive.
  const metrics::MetricsSnapshot before_all = metrics::Snapshot();
  const metrics::HistogramSnapshot* before_snap =
      before_all.histogram("engine.fixpoint.rounds_per_eval");
  const uint64_t before = before_snap != nullptr ? before_snap->count : 0;
  ASSERT_OK(DatalogEngine().EvalAutoSignatures(TcProgram(), IntEdges(60)).status());
  const metrics::MetricsSnapshot after_all = metrics::Snapshot();
  const metrics::HistogramSnapshot* after =
      after_all.histogram("engine.fixpoint.rounds_per_eval");
  ASSERT_NE(after, nullptr);
  EXPECT_GT(after->count, before);
  EXPECT_GT(after->sum, 0u);
}

TEST_F(ObservabilityTest, IngestMetricsMatchStats) {
  const auto& family = workload::GetFamily("Yelp");
  RecordForest forest = family.generate(1, 400);
  uint64_t next_id = 1;
  ASSERT_OK_AND_ASSIGN(FactDatabase db, ToFacts(forest, family.schema, &next_id));
  IngestStats stats;
  metrics::MetricsSnapshot before = metrics::Snapshot();
  ASSERT_OK_AND_ASSIGN(RecordForest back, BuildForest(db, family.schema, nullptr, &stats));
  EXPECT_EQ(back.TotalRecords(), forest.TotalRecords());
  metrics::MetricsSnapshot after = metrics::Snapshot();

  EXPECT_GT(stats.child_index_lookups, 0u);
  EXPECT_EQ(after.counter("ingest.child_index_builds") -
                before.counter("ingest.child_index_builds"),
            stats.child_index_builds);
  EXPECT_EQ(after.counter("ingest.child_index_lookups") -
                before.counter("ingest.child_index_lookups"),
            stats.child_index_lookups);
}

// ------------------------------------------------------------ disarmed path

TEST_F(ObservabilityTest, DisarmedRunRecordsNothing) {
  ASSERT_FALSE(trace::Enabled());
  ASSERT_OK(DatalogEngine().EvalAutoSignatures(TcProgram(), IntEdges(80)).status());
  EXPECT_TRUE(trace::CollectEvents().empty());
  EXPECT_EQ(trace::DroppedEvents(), 0u);
}

TEST_F(ObservabilityTest, DisarmedSpanCostIsNanoseconds) {
  // The real overhead pin is BM_TraceOverhead vs
  // BM_DatalogStringTransitiveClosure/200 (<2%, recorded in
  // BENCH_micro.json); this is the in-tree backstop: a
  // disarmed span must stay within nanoseconds — one relaxed load, no
  // clock read, no allocation. The bound is deliberately loose (5µs/span)
  // so sanitizer builds never flake; a lock or clock read on the disarmed
  // path would blow through it anyway.
  ASSERT_FALSE(trace::Enabled());
  constexpr int kIterations = 200000;
  volatile int sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    DYNAMITE_TRACE_SPAN("test.disarmed");
    sink = sink ^ i;  // xor, not +: the running sum would overflow int
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(seconds / kIterations, 5e-6);
  EXPECT_TRUE(trace::CollectEvents().empty());
}

// ----------------------------------------------------------- fault safety

TEST_F(ObservabilityTest, SpansCloseOnInjectedFault) {
  trace::Arm();
  // The round site fires inside the open engine.eval span, after pass 0's
  // spans closed, so the Eval genuinely fails mid-span.
  failpoint::Arm("engine.fixpoint.round", failpoint::Spec());  // every execution
  auto out = DatalogEngine().EvalAutoSignatures(TcProgram(), IntEdges(100));
  ASSERT_FALSE(out.ok());
  failpoint::DisarmAll();

  // RAII unwinding must have closed every open span: the rings only ever
  // hold closed spans, so the sweep and the dump stay well-formed.
  std::vector<trace::Event> events = trace::CollectEvents();
  ExpectWellNested(events);
  EXPECT_TRUE(HasSpan(events, "engine.eval"));
  const std::string path = ::testing::TempDir() + "observability_fault.json";
  ASSERT_OK(trace::WriteChromeTrace(path));
}

// ------------------------------------------------------ progress observers

TEST_F(ObservabilityTest, ProgressTicksRecordAsInstantEvents) {
  trace::Arm();
  RunContext ctx;
  ProgressEvent event;
  event.phase = Phase::kSearch;
  event.detail = "unit-tick";
  ctx.Report(event);

  bool found = false;
  for (const trace::Event& e : trace::CollectEvents()) {
    if (e.kind == 'i' && std::string("search") == e.name) {
      found = true;
      EXPECT_EQ(std::string(e.detail), "unit-tick");
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ObservabilityTest, ObserverNeverFiresAfterSessionTeardown) {
  auto torn_down = std::make_shared<std::atomic<bool>>(false);
  auto ticks = std::make_shared<std::atomic<size_t>>(0);
  Example example = testing::MotivatingExample();
  {
    ASSERT_OK_AND_ASSIGN(
        Session session,
        Session::Create(testing::UnivSchema(), testing::AdmissionSchema()));
    RunContext ctx;
    ctx.observer = [torn_down, ticks](const ProgressEvent&) {
      EXPECT_FALSE(torn_down->load()) << "observer fired after teardown";
      ticks->fetch_add(1);
    };
    ASSERT_OK_AND_ASSIGN(PipelineResult result,
                         session.SynthesizeAndMigrate(example, example.input, ctx));
    EXPECT_GT(result.migrated.TotalRecords(), 0u);
  }
  EXPECT_GT(ticks->load(), 0u);  // the observer wiring works at all
  torn_down->store(true);
  const size_t ticks_at_teardown = ticks->load();

  // Fresh observer-less pipeline work must not resurrect the dead session's callback.
  ASSERT_OK_AND_ASSIGN(
      Session session,
      Session::Create(testing::UnivSchema(), testing::AdmissionSchema()));
  ASSERT_OK(session.SynthesizeAndMigrate(example, example.input).status());
  EXPECT_EQ(ticks->load(), ticks_at_teardown);
}

}  // namespace
}  // namespace dynamite
