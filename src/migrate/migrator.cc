#include "migrate/migrator.h"

#include "util/failpoint.h"
#include "util/timer.h"
#include "util/trace.h"

namespace dynamite {

Result<RecordForest> Migrator::Migrate(const Program& program, const RecordForest& source,
                                       MigrationStats* stats, const RunContext& ctx) const {
  // Crash-free boundary for the facts/build stages (the engine stage has
  // its own inside Eval): throwing failpoint sites and real allocation
  // failures surface as typed Statuses. The run's MemoryBudget, if any,
  // arrives installed by the caller (Session) or rides in ctx.memory via
  // RunContext::Check.
  MemoryBudgetScope mem_scope(ctx.memory);
  return failpoint::GuardExceptions(
      "migration", [&]() -> Result<RecordForest> {
        return MigrateImpl(program, source, ctx, stats);
      });
}

Result<RecordForest> Migrator::MigrateImpl(const Program& program,
                                           const RecordForest& source,
                                           const RunContext& ctx,
                                           MigrationStats* stats) const {
  DYNAMITE_TRACE_SPAN("migrate.run");
  MigrationStats local;
  local.source_records = source.TotalRecords();

  ProgressEvent event;
  event.phase = Phase::kMigrate;
  Timer total;
  auto report = [&](const char* stage) {
    event.detail = stage;
    event.elapsed_seconds = total.ElapsedSeconds();
    ctx.Report(event);
  };

  // The per-row interruption polls inside the stages are strided (every 256
  // ticks), so a small run can trip its memory budget between polls and
  // still finish the stage. The explicit Check at each stage boundary makes
  // the budget's promise deterministic: if a stage overcharges, the run
  // fails by the end of that stage at the latest.
  Timer timer;
  uint64_t next_id = 1;
  // Stage spans closed explicitly (Span::End) rather than scoped: the
  // stage results must stay live for the rest of the function. An early
  // error return closes the open span via its destructor.
  trace::Span facts_span("migrate.facts");
  DYNAMITE_ASSIGN_OR_RETURN(
      FactDatabase edb, ToFacts(source, source_schema_, &next_id, &ctx));
  DYNAMITE_RETURN_NOT_OK(ctx.Check("facts conversion"));
  local.source_facts = edb.TotalFacts();
  local.to_facts_seconds = timer.ElapsedSeconds();
  facts_span.End();
  report("facts");

  timer.Reset();
  trace::Span eval_span("migrate.eval");
  DYNAMITE_ASSIGN_OR_RETURN(
      FactDatabase idb,
      DatalogEngine().Eval(program, edb, FactSignatures(target_schema_), &ctx));
  DYNAMITE_RETURN_NOT_OK(ctx.Check("evaluation"));
  local.target_facts = idb.TotalFacts();
  local.eval_seconds = timer.ElapsedSeconds();
  eval_span.End();
  report("eval");

  timer.Reset();
  trace::Span build_span("migrate.build");
  DYNAMITE_ASSIGN_OR_RETURN(RecordForest target,
                            BuildForest(idb, target_schema_, &ctx, &local.ingest));
  DYNAMITE_RETURN_NOT_OK(ctx.Check("forest reconstruction"));
  local.target_records = target.TotalRecords();
  local.build_seconds = timer.ElapsedSeconds();
  build_span.End();
  report("build");

  if (stats != nullptr) *stats = local;
  return target;
}

}  // namespace dynamite
