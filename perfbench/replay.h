// Outside-in replay of the Session pipeline for the benchmark's traced run.
//
// Session::Synthesize and Session::Migrate are single calls; the traced run
// needs to know where their time goes. The replay re-runs the same work by
// calling each layer's public functions in the order the sequential
// synthesizer and the migrator call them, and times every call from
// outside. It is only useful if it does exactly what Session did, so the
// driver compares its iterations, simplified program and migrated output
// with Session's on every scenario (see driver.cc).
//
// Each timed call is also recorded as a span in the program's own trace
// rings (util/trace.h) while tracing is armed, so a dumped trace nests the
// program's internal spans (solver.solve, engine.eval, migrate.*) under the
// benchmark's layer spans.

#ifndef DYNAMITE_PERFBENCH_REPLAY_H_
#define DYNAMITE_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/run_context.h"
#include "datalog/ast.h"
#include "instance/record_forest.h"
#include "schema/schema.h"
#include "synth/example.h"
#include "synth/synthesizer.h"
#include "util/result.h"

namespace dynamite {
namespace perfbench {

/// The layer calls the replay times. Each bucket is named after the layer
/// that owns the called functions (the repository's modules).
enum class Bucket {
  kSynthPrepare,     ///< InferAttrMapping + SketchGen + example ToFacts
  kSynthEncode,      ///< EncodeSketch + the rule's expected-output views
  kSolverSolve,      ///< FdSolver::Solve
  kSolverLower,      ///< FdSolver::AddConstraint (lowering + clause insertion)
  kSynthInstantiate, ///< ExtractModel + Instantiate into a candidate program
  kCandidateEval,    ///< DatalogEngine::Eval of one candidate on the example
  kCandidateCheck,   ///< BuildForest + CanonicalForest of one candidate
  kSynthAnalyze,     ///< FlattenForestView + MDPSet + AnalyzeBlocking
  kSimplify,         ///< SimplifyProgram
  kToFacts,          ///< ToFacts of a migration source
  kMigrateEval,      ///< DatalogEngine::Eval of a migration
  kBuild,            ///< BuildForest of a migration's output
  kCount
};

/// Span name of a bucket ("perfbench.solver.solve", ...): the layer that
/// owns the call, prefixed so it is not confused with the program's own spans.
const char* BucketName(Bucket b);

/// Accumulated outside-in timings and the counters measured at the same
/// call sites.
struct LayerProfile {
  double seconds[static_cast<int>(Bucket::kCount)] = {};
  /// Wall time of the replayed Session-level calls (the denominator of the
  /// coverage and overhead ratios).
  double replay_wall_seconds = 0;

  uint64_t solves = 0;
  uint64_t iterations = 0;
  uint64_t rules_found = 0;
  uint64_t candidate_evals = 0;
  uint64_t sketch_holes = 0;
  uint64_t fd_vars = 0;
  uint64_t conflicts = 0;
  uint64_t peak_clauses = 0;
  /// Solve-time sums over the first and last tenth of the solves of every
  /// rule with at least kGrowthMinSolves solves.
  double first_decile_solve_seconds = 0;
  double last_decile_solve_seconds = 0;

  uint64_t source_records = 0;
  uint64_t source_facts = 0;
  uint64_t target_facts = 0;
  uint64_t target_records = 0;

  double Seconds(Bucket b) const { return seconds[static_cast<int>(b)]; }
  double CoveredSeconds() const;
};

/// Rules with fewer solves do not enter solve_growth_ratio: their tenths
/// hold too few solves to time.
constexpr uint64_t kGrowthMinSolves = 100;

struct SynthesisReplay {
  Program program;  ///< simplified, as SynthesisResult::program
  size_t iterations = 0;
};

/// Replays Synthesizer::Synthesize on the sequential path (synth_threads
/// resolved to 1) with `options` as the Session passes them.
Result<SynthesisReplay> ReplaySynthesize(const Schema& source, const Schema& target,
                                         const Example& example,
                                         const SynthesisOptions& options,
                                         const RunContext& ctx, LayerProfile* profile);

/// Replays Migrator::Migrate: ToFacts, DatalogEngine::Eval, BuildForest on
/// a fresh engine with default options, as a fresh Session's migrator has.
Result<RecordForest> ReplayMigrate(const Schema& source, const Schema& target,
                                   const Program& program, const RecordForest& instance,
                                   const RunContext& ctx, LayerProfile* profile);

}  // namespace perfbench
}  // namespace dynamite

#endif  // DYNAMITE_PERFBENCH_REPLAY_H_
