// dynamite::Session — the unified pipeline API.
//
// The paper's workflow is one pipeline: infer mapping → sketch → SAT-guided
// search → evaluate → (optionally) interact → migrate. A Session is built
// once from (source schema, target schema, options), validates both schemas
// at that point, and exposes every pipeline stage as composable calls that
// share state:
//
//   * one Migrator and one Synthesizer, built once from the validated
//     schemas and the session's options;
//   * the process-wide interned-string pool (values interned while reading
//     the example are reused when migrating the full instance);
//   * schemas validated once, instead of re-copied and re-trusted by three
//     separate classes.
//
// Every call takes a RunContext carrying the run's deadline, CancelToken,
// and ProgressObserver; errors come back as typed ErrorCodes (see
// src/api/README.md for the full taxonomy):
//
//   kSchemaMismatch     schema invalid / instance inconsistent with schema
//   kSynthesisFailure   no program consistent with the example
//   kTimeout            the RunContext (or default budget) deadline passed
//   kCancelled          the CancelToken was triggered
//   kEvalBudget         an iteration/tuple budget exhausted
//   kResourceExhausted  the memory budget exhausted, or allocation failed
//   kAmbiguous          several programs remain and the options demand one
//
// Every Session call is a crash-free boundary: allocation failure inside the
// pipeline (real bad_alloc or a fault injected via DYNAMITE_FAILPOINTS)
// surfaces as a typed Status, never as a crash, and leaves the Session
// reusable.
//
// The stages a Session composes — Synthesizer, RunInteractive and Migrator —
// take the same RunContext, and its deadline is the only wall-clock budget
// anywhere in the pipeline. The harnesses and examples
// drive the pipeline through a Session; the stages are used directly by the
// baselines, the workload generator, and the tests and micro-benchmarks
// that measure one stage on its own.

#ifndef DYNAMITE_API_SESSION_H_
#define DYNAMITE_API_SESSION_H_

#include <string>

#include "api/run_context.h"
#include "migrate/migrator.h"
#include "schema/schema.h"
#include "synth/interactive.h"
#include "synth/synthesizer.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/trace.h"

namespace dynamite {

/// Knobs for a Session, grouping the per-stage options. The wall-clock
/// budget is the per-call RunContext deadline, defaulted by
/// `default_budget_seconds`.
struct SessionOptions {
  /// Synthesis-stage knobs (analysis/MDP toggles, filtering, iteration and
  /// per-candidate evaluation budgets). The interactive stage runs the same
  /// synthesis; its round, probe-width and query-size limits are fixed
  /// (src/synth/interactive.cc).
  SynthesisOptions synthesis;
  /// Budget applied when a call's RunContext deadline is infinite; <= 0
  /// (or a value past the clock's range, such as +inf) means unbounded.
  double default_budget_seconds = 600;
  /// When true, SynthesizeInteractive fails with kAmbiguous if the
  /// validation pool cannot distinguish the remaining candidates (instead
  /// of silently accepting the first). The cheap Synthesize call is
  /// unaffected.
  bool fail_on_ambiguity = false;
  /// Per-call byte budget covering every pipeline stage (fact conversion,
  /// evaluation — relation growth, join indexes, interned strings — and
  /// forest reconstruction); exceeding it fails the call with
  /// kResourceExhausted instead of OOM-killing the process. 0 (the
  /// default) disables the check. A budget already carried by the call's
  /// RunContext (ctx.memory) wins — one budget per run, never one per
  /// stage. Independent of the engine's tuple-count cap (kEvalBudget) and
  /// the wall-clock budget (kTimeout); see src/api/README.md for the
  /// budget-to-error matrix.
  size_t max_memory_bytes = 0;
};

/// Result of the one-shot SynthesizeAndMigrate pipeline.
struct PipelineResult {
  SynthesisResult synthesis;
  RecordForest migrated;
  MigrationStats migration;
};

/// One synthesis-and-migration session over a fixed (source, target) schema
/// pair. Re-entrant in the sense that calls can be issued repeatedly; not
/// thread-safe (one Session per thread, matching the engine's
/// single-threaded contract).
class Session {
 public:
  /// Validates both schemas (kSchemaMismatch on failure) and builds the
  /// shared pipeline state.
  static Result<Session> Create(Schema source, Schema target,
                                SessionOptions options = SessionOptions());

  /// Synthesizes a migration program from one input-output example.
  /// Errors: kSchemaMismatch (example inconsistent with the schemas),
  /// kSynthesisFailure, kTimeout, kCancelled, kEvalBudget.
  Result<SynthesisResult> Synthesize(const Example& example,
                                     const RunContext& ctx = RunContext()) const;

  /// Interactive synthesis (§5): resolves ambiguity with distinguishing
  /// queries answered by `oracle` over `validation_pool`. An oracle answer
  /// of kCancelled stops the questioning and returns the best program so
  /// far (InteractiveResult::cancelled = true, partial stats); kAmbiguous
  /// when the pool cannot resolve and options().fail_on_ambiguity is set.
  Result<InteractiveResult> SynthesizeInteractive(
      const Example& example, const RecordForest& validation_pool, const Oracle& oracle,
      const RunContext& ctx = RunContext()) const;

  /// Executes `program` on a full source instance with the session's
  /// engine options. Fills `*stats` if non-null.
  Result<RecordForest> Migrate(const Program& program, const RecordForest& source,
                               MigrationStats* stats = nullptr,
                               const RunContext& ctx = RunContext()) const;

  /// The whole paper pipeline in one call: synthesize from `example`, then
  /// migrate `source_instance` with the synthesized program. One budget
  /// covers both stages.
  Result<PipelineResult> SynthesizeAndMigrate(const Example& example,
                                              const RecordForest& source_instance,
                                              const RunContext& ctx = RunContext()) const;

  const Schema& source_schema() const { return source_; }
  const Schema& target_schema() const { return target_; }
  const SessionOptions& options() const { return options_; }

  /// Snapshot of the process-wide metrics registry (util/metrics.h):
  /// counters like "solver.solves" / "ingest.child_index_lookups", plus
  /// gauges.
  /// Process-wide — spans every Session and engine in the process,
  /// cumulative since start; the per-call stats structs (MigrationStats,
  /// SynthesisResult) remain the per-run source of truth.
  metrics::MetricsSnapshot Metrics() const { return metrics::Snapshot(); }

  /// Dumps every trace span recorded since arming (trace::Arm() or
  /// DYNAMITE_TRACE=path) as Chrome trace-event JSON — open in Perfetto.
  /// Call between pipeline calls, not concurrently with one (see
  /// util/trace.h for the concurrency contract).
  Status DumpTrace(const std::string& path) const {
    return trace::WriteChromeTrace(path);
  }

 private:
  Session(Schema source, Schema target, SessionOptions options);

  /// Stage bodies the entry points share: the example's schema checks
  /// (kSchemaMismatch), and a migration whose failures are classified
  /// against the source schema after the fact.
  Status CheckExample(const Example& example) const;
  Result<RecordForest> MigrateStage(const Program& program, const RecordForest& source,
                                    MigrationStats* stats, const RunContext& ctx) const;

  Schema source_;
  Schema target_;
  SessionOptions options_;
  Migrator migrator_;
  Synthesizer synthesizer_;
};

}  // namespace dynamite

#endif  // DYNAMITE_API_SESSION_H_
