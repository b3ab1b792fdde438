#include "api/session.h"

#include <algorithm>
#include <utility>

#include "instance/record_forest.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace dynamite {

namespace {

/// Per-entry-point trace state: stamps the run with a fresh trace id when
/// tracing is armed (unless the caller pinned one on the context), installs
/// it as the calling thread's ambient id, and opens the entry point's root
/// span. Member order matters: the id scope outlives the span, so the span
/// records under the run's id.
class SessionTraceScope {
 public:
  SessionTraceScope(const char* name, RunContext* ctx)
      : id_scope_(StampTraceId(ctx)), span_(name) {}

 private:
  static uint64_t StampTraceId(RunContext* ctx) {
    if (ctx->trace_id == 0 && trace::Enabled()) {
      ctx->trace_id = trace::NextTraceId();
    }
    return ctx->trace_id;
  }

  trace::TraceIdScope id_scope_;
  trace::Span span_;
};

/// The bounded-run protocol every Session entry point runs its body under.
/// The caller's context gets the default deadline when it carries none (an
/// explicit, even longer, deadline wins) and the session's byte budget when
/// it carries none (one budget per run; the budget object is a per-call
/// local that outlives the stages, not the call). The body then runs under
/// the entry point's trace scope and root span `span`, inside the crash-free
/// boundary, and the run's memory high-water lands in the process gauge:
/// budget charges are append-only, so used() at the end IS the high-water.
template <typename Body>
auto RunBounded(const SessionOptions& options, const char* span, const char* what,
                const RunContext& ctx, Body&& body) -> decltype(body(ctx)) {
  MemoryBudget local_budget(options.max_memory_bytes);
  RunContext bounded = ctx;
  if (bounded.deadline.infinite() && options.default_budget_seconds > 0) {
    bounded.deadline = Deadline::After(options.default_budget_seconds);
  }
  if (bounded.memory == nullptr && options.max_memory_bytes != 0) {
    bounded.memory = &local_budget;
  }
  MemoryBudgetScope mem_scope(bounded.memory);
  SessionTraceScope trace_scope(span, &bounded);
  auto result = failpoint::GuardExceptions(what, [&] { return body(bounded); });
  if (bounded.memory != nullptr) {
    metrics::GetGauge("mem.budget_high_water_bytes")
        .UpdateMax(static_cast<int64_t>(bounded.memory->used()));
  }
  return result;
}

Status CheckAgainstSchema(const RecordForest& forest, const Schema& schema, const char* what) {
  Status st = ValidateForest(forest, schema);
  if (!st.ok()) {
    return Status::SchemaMismatch(std::string(what) + ": " + st.message());
  }
  return Status::OK();
}

}  // namespace

Session::Session(Schema source, Schema target, SessionOptions options)
    : source_(std::move(source)),
      target_(std::move(target)),
      options_(options),
      migrator_(source_, target_),
      synthesizer_(source_, target_, options_.synthesis) {}

Result<Session> Session::Create(Schema source, Schema target, SessionOptions options) {
  // Re-validate both schemas here, once for the session's lifetime — also
  // covers schemas hand-built with DefineRecord that never called
  // Validate(). Failures land in the typed kSchemaMismatch bucket.
  Status src_st = source.Validate();
  if (!src_st.ok()) {
    return Status::SchemaMismatch("source schema invalid: " + src_st.message());
  }
  Status tgt_st = target.Validate();
  if (!tgt_st.ok()) {
    return Status::SchemaMismatch("target schema invalid: " + tgt_st.message());
  }
  return Session(std::move(source), std::move(target), std::move(options));
}

Status Session::CheckExample(const Example& example) const {
  DYNAMITE_RETURN_NOT_OK(
      CheckAgainstSchema(example.input, source_, "example input vs source schema"));
  return CheckAgainstSchema(example.output, target_, "example output vs target schema");
}

Result<RecordForest> Session::MigrateStage(const Program& program, const RecordForest& source,
                                           MigrationStats* stats,
                                           const RunContext& ctx) const {
  // No pre-validation on the hot path: ToFacts validates the forest anyway,
  // and validation is about a third of ToFacts (70 of 215 ms on the 28
  // benchmarks' sources at 5,000 entities, 0.64M records, on a 4-vCPU box),
  // so a second walk here would add that again. Instead, classify failures
  // after the fact — if the forest is what's wrong, the caller gets the
  // typed kSchemaMismatch; otherwise the original error.
  auto result = migrator_.Migrate(program, source, stats, ctx);
  if (!result.ok() && (result.status().code() == StatusCode::kInvalidArgument ||
                       result.status().code() == StatusCode::kTypeError)) {
    DYNAMITE_RETURN_NOT_OK(
        CheckAgainstSchema(source, source_, "source instance vs source schema"));
  }
  return result;
}

Result<SynthesisResult> Session::Synthesize(const Example& example,
                                            const RunContext& ctx) const {
  return RunBounded(options_, "session.synthesize", "synthesis", ctx,
                    [&](const RunContext& bounded) -> Result<SynthesisResult> {
                      DYNAMITE_FAILPOINT("session.synthesize");
                      DYNAMITE_RETURN_NOT_OK(CheckExample(example));
                      return synthesizer_.Synthesize(example, bounded);
                    });
}

Result<InteractiveResult> Session::SynthesizeInteractive(const Example& example,
                                                         const RecordForest& validation_pool,
                                                         const Oracle& oracle,
                                                         const RunContext& ctx) const {
  return RunBounded(
      options_, "session.synthesize_interactive", "interactive synthesis", ctx,
      [&](const RunContext& bounded) -> Result<InteractiveResult> {
        DYNAMITE_RETURN_NOT_OK(CheckExample(example));
        DYNAMITE_RETURN_NOT_OK(CheckAgainstSchema(validation_pool, source_,
                                                  "validation pool vs source schema"));
        DYNAMITE_ASSIGN_OR_RETURN(
            InteractiveResult result,
            RunInteractive(synthesizer_, example, validation_pool, oracle, migrator_, bounded));
        if (options_.fail_on_ambiguity && !result.unique && !result.cancelled) {
          return Status::Ambiguous(
              "validation pool cannot distinguish the remaining candidate programs");
        }
        return result;
      });
}

Result<RecordForest> Session::Migrate(const Program& program, const RecordForest& source,
                                      MigrationStats* stats, const RunContext& ctx) const {
  return RunBounded(options_, "session.migrate", "migration", ctx,
                    [&](const RunContext& bounded) -> Result<RecordForest> {
                      DYNAMITE_FAILPOINT("session.migrate");
                      return MigrateStage(program, source, stats, bounded);
                    });
}

Result<PipelineResult> Session::SynthesizeAndMigrate(const Example& example,
                                                     const RecordForest& source_instance,
                                                     const RunContext& ctx) const {
  // One bounded context covers both stages: a single budget (wall-clock AND
  // bytes) for the whole pipeline rather than per-stage budgets.
  return RunBounded(
      options_, "session.synthesize_and_migrate", "pipeline", ctx,
      [&](const RunContext& bounded) -> Result<PipelineResult> {
        PipelineResult out;
        DYNAMITE_RETURN_NOT_OK(CheckExample(example));
        DYNAMITE_ASSIGN_OR_RETURN(out.synthesis, synthesizer_.Synthesize(example, bounded));

        // Migration progress events carry the synthesis totals forward so
        // the run's cumulative counters (iterations, coverage) stay monotone
        // across the phase boundary, as ProgressEvent documents.
        RunContext migrate_ctx = bounded;
        if (bounded.observer) {
          size_t iterations = out.synthesis.iterations;
          double space = out.synthesis.search_space;
          ProgressObserver inner = bounded.observer;
          migrate_ctx.observer = [iterations, space, inner](const ProgressEvent& event) {
            ProgressEvent carried = event;
            carried.iterations = iterations;
            carried.search_space = space;
            carried.coverage =
                space > 0 ? std::min(1.0, static_cast<double>(iterations) / space) : 0;
            inner(carried);
          };
        }
        DYNAMITE_ASSIGN_OR_RETURN(out.migrated,
                                  MigrateStage(out.synthesis.program, source_instance,
                                               &out.migration, migrate_ctx));
        return out;
      });
}

}  // namespace dynamite
