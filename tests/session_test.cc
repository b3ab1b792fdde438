// Tests for the unified Session pipeline API (src/api/session.h): stage vs
// Session equivalence across the three data models, typed error codes,
// cooperative cancellation, oracle cancellation, and progress observation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "api/session.h"
#include "instance/graph.h"
#include "migrate/migrator.h"
#include "schema/schema_builder.h"
#include "synth/interactive.h"
#include "synth/synthesizer.h"
#include "testing.h"
#include "util/timer.h"

namespace dynamite {
namespace {

// ---------------------------------------------------------------- fixtures --

/// Relational fixture: the paper's Example 10 join (unambiguous variant).
struct RelationalFixture {
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

  static RecordNode Emp(const char* n, int d) {
    return testing::FlatRecord(
        "Employee", {{"ename", Value::String(n)}, {"edept", Value::Int(d)}});
  }
  static RecordNode Dept(int i, const char* n) {
    return testing::FlatRecord("Department",
                               {{"did", Value::Int(i)}, {"dname", Value::String(n)}});
  }

  /// Rich enough to pin down the join.
  Example MakeExample() const {
    Example e;
    e.input.roots = {Emp("Alice", 11), Emp("Bob", 12), Dept(11, "CS"), Dept(12, "EE")};
    Migrator migrator(src, tgt);
    e.output = migrator.Migrate(golden, e.input).ValueOrDie();
    return e;
  }
};

/// Graph fixture: follow edges to a flat table.
struct GraphFixture {
  Schema src = GraphSchemaBuilder()
                   .AddNodeType("User", {{"uid", PrimitiveType::kInt},
                                         {"uname", PrimitiveType::kString}})
                   .AddEdgeType("Follows", {{"weight", PrimitiveType::kInt}}, "f")
                   .Build()
                   .ValueOrDie();
  Schema tgt = RelationalSchemaBuilder()
                   .AddTable("FollowTable", {{"follower", PrimitiveType::kString},
                                             {"followee", PrimitiveType::kString},
                                             {"weight", PrimitiveType::kInt}})
                   .Build()
                   .ValueOrDie();

  Example MakeExample() const {
    GraphInstance g;
    g.AddNode(GraphNode{"User", {{"uid", Value::Int(1)}, {"uname", Value::String("ann")}}});
    g.AddNode(GraphNode{"User", {{"uid", Value::Int(2)}, {"uname", Value::String("bob")}}});
    g.AddNode(GraphNode{"User", {{"uid", Value::Int(3)}, {"uname", Value::String("cat")}}});
    g.AddEdge(GraphEdge{"Follows", 1, 2, {{"weight", Value::Int(3)}}});
    g.AddEdge(GraphEdge{"Follows", 2, 3, {{"weight", Value::Int(5)}}});
    Example e;
    e.input = g.ToForest(src).ValueOrDie();
    e.output.roots = {
        testing::FlatRecord("FollowTable", {{"follower", Value::String("ann")},
                                            {"followee", Value::String("bob")},
                                            {"weight", Value::Int(3)}}),
        testing::FlatRecord("FollowTable", {{"follower", Value::String("bob")},
                                            {"followee", Value::String("cat")},
                                            {"weight", Value::Int(5)}})};
    return e;
  }
};

/// An example whose output is unreachable and whose hole domains are
/// maximal: every table stores the same value set ("v_<row>" in every
/// column), so the attribute mapping admits every source attribute for
/// every target attribute and the sketch space is astronomically large
/// (~1e155 completions at this size). The single expected output row mixes
/// three distinct row values, which only a cross product could emit — and a
/// cross product emits 27 rows — so no program is consistent and, with
/// analysis disabled (model-at-a-time blocking, ~hundreds of candidates per
/// second), exhaustion is unreachable on any test timescale. Used to
/// exercise budgets and cancellation mid-search.
struct AdversarialFixture {
  Schema src;
  Schema tgt;
  Example example;

  AdversarialFixture() {
    RelationalSchemaBuilder sb;
    for (int t = 0; t < 3; ++t) {
      std::vector<AttrDecl> cols;
      for (int c = 0; c < 3; ++c) {
        cols.push_back({"t" + std::to_string(t) + "c" + std::to_string(c),
                        PrimitiveType::kString});
      }
      sb.AddTable("T" + std::to_string(t), std::move(cols));
    }
    src = sb.Build().ValueOrDie();
    tgt = RelationalSchemaBuilder()
              .AddTable("Out", {{"o0", PrimitiveType::kString},
                                {"o1", PrimitiveType::kString},
                                {"o2", PrimitiveType::kString}})
              .Build()
              .ValueOrDie();

    for (int t = 0; t < 3; ++t) {
      for (int r = 0; r < 3; ++r) {
        std::vector<std::pair<std::string, Value>> prims;
        for (int c = 0; c < 3; ++c) {
          prims.push_back({"t" + std::to_string(t) + "c" + std::to_string(c),
                           Value::String("v_" + std::to_string(r))});
        }
        example.input.roots.push_back(
            testing::FlatRecord("T" + std::to_string(t), std::move(prims)));
      }
    }
    example.output.roots = {testing::FlatRecord("Out", {{"o0", Value::String("v_0")},
                                                        {"o1", Value::String("v_1")},
                                                        {"o2", Value::String("v_2")}})};
  }

  SessionOptions SlowOptions() const {
    SessionOptions options;
    options.synthesis.use_analysis = false;  // model-at-a-time blocking
    options.synthesis.use_mdp = false;
    options.default_budget_seconds = 0;  // the test's RunContext governs
    return options;
  }
};

// ------------------------------------------------ stage-vs-Session parity --

TEST(Session, MatchesSynthesizerOnDocumentExample) {
  Schema src = testing::UnivSchema(), tgt = testing::AdmissionSchema();
  Example example = testing::MotivatingExample();

  Synthesizer stage(src, tgt);
  ASSERT_OK_AND_ASSIGN(SynthesisResult direct, stage.Synthesize(example));

  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(src, tgt));
  ASSERT_OK_AND_ASSIGN(SynthesisResult unified, session.Synthesize(example));

  EXPECT_EQ(direct.program.ToString(), unified.program.ToString());
  EXPECT_EQ(direct.iterations, unified.iterations);
}

TEST(Session, MatchesSynthesizerOnRelationalExample) {
  RelationalFixture fixture;
  Example example = fixture.MakeExample();

  Synthesizer stage(fixture.src, fixture.tgt);
  ASSERT_OK_AND_ASSIGN(SynthesisResult direct, stage.Synthesize(example));

  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(fixture.src, fixture.tgt));
  ASSERT_OK_AND_ASSIGN(SynthesisResult unified, session.Synthesize(example));

  EXPECT_EQ(direct.program.ToString(), unified.program.ToString());

  // And the synthesized program migrates identically through both paths.
  RecordForest probe;
  probe.roots = {RelationalFixture::Emp("X", 1), RelationalFixture::Emp("Y", 2),
                 RelationalFixture::Dept(1, "D1"), RelationalFixture::Dept(2, "D2")};
  Migrator migrator(fixture.src, fixture.tgt);
  ASSERT_OK_AND_ASSIGN(RecordForest via_stage, migrator.Migrate(unified.program, probe));
  ASSERT_OK_AND_ASSIGN(RecordForest via_session, session.Migrate(unified.program, probe));
  EXPECT_TRUE(ForestEquals(via_stage, via_session));
}

TEST(Session, MatchesSynthesizerOnGraphExample) {
  GraphFixture fixture;
  Example example = fixture.MakeExample();

  Synthesizer stage(fixture.src, fixture.tgt);
  ASSERT_OK_AND_ASSIGN(SynthesisResult direct, stage.Synthesize(example));

  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(fixture.src, fixture.tgt));
  ASSERT_OK_AND_ASSIGN(SynthesisResult unified, session.Synthesize(example));

  EXPECT_EQ(direct.program.ToString(), unified.program.ToString());
}

TEST(Session, SynthesizeAndMigrateMatchesSeparateCalls) {
  Schema src = testing::UnivSchema(), tgt = testing::AdmissionSchema();
  Example example = testing::MotivatingExample();

  RecordForest big;
  big.roots.push_back(testing::UnivRecord(1, "MIT", {{2, 7}, {3, 12}}));
  big.roots.push_back(testing::UnivRecord(2, "Stanford", {{1, 9}}));
  big.roots.push_back(testing::UnivRecord(3, "Berkeley", {{1, 4}, {2, 6}}));

  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(src, tgt));
  std::vector<ProgressEvent> events;
  RunContext ctx;
  ctx.observer = [&](const ProgressEvent& e) { events.push_back(e); };
  ASSERT_OK_AND_ASSIGN(PipelineResult pipeline,
                       session.SynthesizeAndMigrate(example, big, ctx));
  ASSERT_OK_AND_ASSIGN(SynthesisResult synth, session.Synthesize(example));
  ASSERT_OK_AND_ASSIGN(RecordForest migrated, session.Migrate(synth.program, big));

  EXPECT_EQ(pipeline.synthesis.program.ToString(), synth.program.ToString());
  EXPECT_TRUE(ForestEquals(pipeline.migrated, migrated));
  EXPECT_EQ(pipeline.migration.source_records, big.TotalRecords());
  EXPECT_GT(pipeline.migration.target_facts, 0u);

  // Counters stay monotone across the synthesis -> migration phase
  // boundary: the migrate-stage events carry the synthesis totals.
  size_t last_iterations = 0;
  bool saw_migrate = false;
  for (const ProgressEvent& e : events) {
    EXPECT_GE(e.iterations, last_iterations);
    last_iterations = e.iterations;
    saw_migrate = saw_migrate || e.phase == Phase::kMigrate;
  }
  EXPECT_TRUE(saw_migrate);
  EXPECT_EQ(last_iterations, pipeline.synthesis.iterations);
}

// ----------------------------------------------------------- typed errors --

TEST(Session, CreateRejectsInvalidSchemaWithSchemaMismatch) {
  Schema bad;
  ASSERT_OK(bad.DefineRecord("R", {"missing_attr"}));
  auto session = Session::Create(bad, testing::AdmissionSchema());
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), ErrorCode::kSchemaMismatch);
}

TEST(Session, SynthesizeRejectsForeignExampleWithSchemaMismatch) {
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(testing::UnivSchema(),
                                                        testing::AdmissionSchema()));
  Example example = testing::MotivatingExample();
  example.input.roots.push_back(
      testing::FlatRecord("NoSuchRecord", {{"x", Value::Int(1)}}));
  auto result = session.Synthesize(example);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kSchemaMismatch);
}

TEST(Session, MigrateRejectsForeignInstanceWithSchemaMismatch) {
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(testing::UnivSchema(),
                                                        testing::AdmissionSchema()));
  RecordForest bogus;
  bogus.roots.push_back(testing::FlatRecord("Mystery", {{"x", Value::Int(1)}}));
  Program noop =
      Program::Parse("Admission(g, u, n) :- Univ(_, g, _), Admit(_, _, n), Univ(_, u, _).")
          .ValueOrDie();
  auto result = session.Migrate(noop, bogus);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kSchemaMismatch);
}

TEST(Session, InconsistentExampleFailsWithSynthesisFailure) {
  // Output value absent from the input: no program can produce it.
  Schema src = RelationalSchemaBuilder()
                   .AddTable("a_rel", {{"x", PrimitiveType::kInt}})
                   .Build()
                   .ValueOrDie();
  Schema tgt = RelationalSchemaBuilder()
                   .AddTable("b_rel", {{"y", PrimitiveType::kInt}})
                   .Build()
                   .ValueOrDie();
  Example example;
  example.input.roots = {testing::FlatRecord("a_rel", {{"x", Value::Int(1)}})};
  example.output.roots = {testing::FlatRecord("b_rel", {{"y", Value::Int(42)}})};
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(src, tgt));
  auto result = session.Synthesize(example);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kSynthesisFailure);
}

TEST(Session, ExpiredDeadlineFailsWithTimeout) {
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(testing::UnivSchema(),
                                                        testing::AdmissionSchema()));
  RunContext ctx(Deadline::After(0), CancelToken());  // already expired
  auto result = session.Synthesize(testing::MotivatingExample(), ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
}

TEST(Session, IterationBudgetFailsWithEvalBudget) {
  AdversarialFixture fixture;
  SessionOptions options = fixture.SlowOptions();
  options.synthesis.max_iterations = 200;  // spent long before exhaustion
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(fixture.src, fixture.tgt, options));
  auto result = session.Synthesize(fixture.example);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kEvalBudget);
}

// ----------------------------------------------------------- cancellation --

TEST(Session, CancellationStopsLongSynthesisQuickly) {
  // Without cancellation this enumeration runs for minutes (see
  // AdversarialFixture); the run must stop within a candidate batch of the
  // request — far under the 100-second deadline it was given.
  AdversarialFixture fixture;
  ASSERT_OK_AND_ASSIGN(Session session,
                       Session::Create(fixture.src, fixture.tgt, fixture.SlowOptions()));

  CancelSource source;
  RunContext ctx(Deadline::After(100), source.token());
  Status status;
  Timer timer;
  std::thread worker([&] {
    auto result = session.Synthesize(fixture.example, ctx);
    status = result.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  source.RequestCancel();
  worker.join();
  double elapsed = timer.ElapsedSeconds();

  EXPECT_EQ(status.code(), ErrorCode::kCancelled) << status.ToString();
  // Generous bound for sanitizer builds; typically ~0.3s.
  EXPECT_LT(elapsed, 30.0);
}

TEST(Session, PreCancelledContextShortCircuitsMigration) {
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(testing::UnivSchema(),
                                                        testing::AdmissionSchema()));
  CancelSource source;
  source.RequestCancel();
  RunContext ctx(Deadline::Infinite(), source.token());
  Program program =
      Program::Parse("Admission(g, u, n) :- Univ(_, g, _), Admit(_, _, n), Univ(_, u, _).")
          .ValueOrDie();
  RecordForest big;
  for (int i = 0; i < 50; ++i) {
    big.roots.push_back(testing::UnivRecord(i, "U" + std::to_string(i),
                                            {{i, 10 * i}, {i + 1, 10 * i + 1}}));
  }
  auto result = session.Migrate(program, big, nullptr, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kCancelled);
}

TEST(Engine, CancellationInterruptsEval) {
  // Engine-level: a cancel request set before Eval aborts within one
  // 1024-tick poll even on a fixpoint workload.
  FactDatabase db;
  ASSERT_OK(db.DeclareRelation("edge", {"s", "t"}).status());
  for (int i = 0; i < 300; ++i) {
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i + 1) % 300)}));
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i * 7 + 3) % 300)}));
  }
  Program tc = Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )").ValueOrDie();
  DatalogEngine engine;
  CancelSource source;
  source.RequestCancel();
  RunContext ctx(Deadline::Infinite(), source.token());
  auto result = engine.EvalAutoSignatures(tc, db, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kCancelled);
}

// ---------------------------------------------------- oracle cancellation --

TEST(Session, OracleCancelReturnsPartialResultNotFailure) {
  RelationalFixture fixture;
  // Ambiguous single-pair example (the paper's Example 10 setup).
  Example initial;
  initial.input.roots = {RelationalFixture::Emp("Alice", 11),
                         RelationalFixture::Dept(11, "CS")};
  Migrator migrator(fixture.src, fixture.tgt);
  ASSERT_OK_AND_ASSIGN(RecordForest out, migrator.Migrate(fixture.golden, initial.input));
  initial.output = out;

  RecordForest pool;
  pool.roots = {RelationalFixture::Emp("Alice", 11), RelationalFixture::Emp("Bob", 12),
                RelationalFixture::Dept(11, "CS"), RelationalFixture::Dept(12, "EE")};

  size_t questions = 0;
  Oracle refusing = [&](const RecordForest&) -> Result<RecordForest> {
    ++questions;
    return Status::Cancelled("user closed the prompt");
  };

  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(fixture.src, fixture.tgt));
  ASSERT_OK_AND_ASSIGN(InteractiveResult result,
                       session.SynthesizeInteractive(initial, pool, refusing));
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.unique);
  EXPECT_EQ(result.queries, questions);
  EXPECT_GE(result.queries, 1u);
  EXPECT_GE(result.rounds, 1u);
  // The partial result still holds a program consistent with the initial
  // example.
  ASSERT_FALSE(result.result.program.rules.empty());
  ASSERT_OK_AND_ASSIGN(RecordForest replay,
                       session.Migrate(result.result.program, initial.input));
  EXPECT_TRUE(ForestEquals(replay, initial.output));
}

TEST(Session, FailOnAmbiguityReturnsAmbiguous) {
  RelationalFixture fixture;
  Example initial;
  initial.input.roots = {RelationalFixture::Emp("Alice", 11),
                         RelationalFixture::Dept(11, "CS")};
  Migrator migrator(fixture.src, fixture.tgt);
  ASSERT_OK_AND_ASSIGN(RecordForest out, migrator.Migrate(fixture.golden, initial.input));
  initial.output = out;

  // A pool that cannot distinguish join from cross product (single pair).
  RecordForest pool = initial.input;
  Oracle oracle = [&](const RecordForest& input) -> Result<RecordForest> {
    return migrator.Migrate(fixture.golden, input);
  };

  SessionOptions options;
  options.fail_on_ambiguity = true;
  ASSERT_OK_AND_ASSIGN(Session session,
                       Session::Create(fixture.src, fixture.tgt, options));
  auto result = session.SynthesizeInteractive(initial, pool, oracle);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kAmbiguous);
}

// -------------------------------------------------------------- progress --

TEST(Session, ProgressObserverSeesMonotoneCounters) {
  AdversarialFixture fixture;
  SessionOptions options = fixture.SlowOptions();
  options.synthesis.max_iterations = 300;  // enough for several batches
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(fixture.src, fixture.tgt, options));

  std::vector<ProgressEvent> events;
  RunContext ctx;
  ctx.observer = [&](const ProgressEvent& e) { events.push_back(e); };
  auto result = session.Synthesize(fixture.example, ctx);  // exhausts budget
  ASSERT_FALSE(result.ok());

  ASSERT_GE(events.size(), 3u);  // infer-mapping, sketch, search batches
  EXPECT_EQ(events.front().phase, Phase::kInferMapping);
  size_t last_iterations = 0;
  double last_coverage = 0;
  size_t search_events = 0;
  for (const ProgressEvent& e : events) {
    EXPECT_GE(e.iterations, last_iterations) << "iterations must be monotone";
    last_iterations = e.iterations;
    if (e.phase == Phase::kSearch) {
      ++search_events;
      EXPECT_GE(e.coverage, last_coverage) << "coverage must be monotone";
      EXPECT_LE(e.coverage, 1.0);
      EXPECT_GT(e.search_space, 0);
      last_coverage = e.coverage;
    }
  }
  EXPECT_GE(search_events, 2u);
  EXPECT_GT(last_iterations, 0u);
}

TEST(Session, MigrationReportsPhaseEvents) {
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(testing::UnivSchema(),
                                                        testing::AdmissionSchema()));
  Example example = testing::MotivatingExample();
  ASSERT_OK_AND_ASSIGN(SynthesisResult synth, session.Synthesize(example));

  std::vector<ProgressEvent> events;
  RunContext ctx;
  ctx.observer = [&](const ProgressEvent& e) { events.push_back(e); };
  ASSERT_OK_AND_ASSIGN(RecordForest migrated,
                       session.Migrate(synth.program, example.input, nullptr, ctx));
  EXPECT_TRUE(ForestEquals(migrated, example.output));
  ASSERT_EQ(events.size(), 3u);  // facts, eval, build
  for (const ProgressEvent& e : events) EXPECT_EQ(e.phase, Phase::kMigrate);
  EXPECT_EQ(events[0].detail, "facts");
  EXPECT_EQ(events[1].detail, "eval");
  EXPECT_EQ(events[2].detail, "build");
}

// ------------------------------------------------------- budget utilities --

TEST(Deadline, ComposesAndExpires) {
  EXPECT_TRUE(Deadline().infinite());
  EXPECT_FALSE(Deadline().Expired());
  EXPECT_TRUE(Deadline::After(0).Expired());
  EXPECT_TRUE(Deadline::AfterOrInfinite(0).infinite());
  EXPECT_FALSE(Deadline::AfterOrInfinite(60).infinite());
  Deadline tight = Deadline::After(0.0);
  Deadline loose = Deadline::After(3600);
  EXPECT_TRUE(Deadline::Earliest(tight, loose).Expired());
  EXPECT_FALSE(Deadline::Earliest(loose, Deadline()).Expired());
  EXPECT_GT(loose.RemainingSeconds(), 3500.0);
  // Budgets past the clock's range saturate instead of overflowing into
  // the past.
  for (double huge : {1e10, std::numeric_limits<double>::infinity()}) {
    EXPECT_TRUE(Deadline::After(huge).infinite()) << huge;
    EXPECT_FALSE(Deadline::After(huge).Expired()) << huge;
    EXPECT_FALSE(Deadline::AfterOrInfinite(huge).Expired()) << huge;
  }
}

TEST(CancelToken, DefaultNeverCancelsSharedStatePropagates) {
  CancelToken nothing;
  EXPECT_FALSE(nothing.cancelled());
  CancelSource source;
  CancelToken token = source.token();
  CancelToken copy = token;
  EXPECT_FALSE(token.cancelled());
  source.RequestCancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(copy.cancelled());
  EXPECT_TRUE(source.cancel_requested());
}

}  // namespace
}  // namespace dynamite
