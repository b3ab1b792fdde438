#include "synth/synthesizer.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "datalog/simplify.h"
#include "migrate/facts.h"
#include "solver/fd.h"
#include "synth/analyze.h"
#include "synth/encode.h"
#include "synth/sketch_gen.h"
#include "util/debug_log.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/timer.h"
#include "util/trace.h"

namespace dynamite {

namespace {

/// Cumulative progress state for one Synthesize call: rule enumerators
/// report through this so `iterations` and `coverage` are monotone across
/// the whole run, not per rule. Reports are clamped to a monotone floor: the
/// ProgressEvent contract promises `iterations` never decreases, and the
/// baseline reset in SynthesizeDistinct would otherwise let a raw
/// (done + rule) sum go backwards.
struct ProgressTracker {
  const RunContext* ctx = nullptr;
  Timer timer;
  size_t done_iterations = 0;  ///< iterations of completed rules
  double space_known = 0;      ///< product of spaces of started rules
  /// Largest iteration total ever reported; later reports never go below.
  size_t reported_floor = 0;

  /// Folds the sketch space of a rule that is starting enumeration.
  void StartRule(double rule_space) {
    space_known = space_known == 0 ? rule_space : space_known * rule_space;
  }

  void Report(Phase phase, const std::string& detail, size_t rule_iterations) {
    if (ctx == nullptr || !ctx->observer) return;
    reported_floor = std::max(reported_floor, done_iterations + rule_iterations);
    ProgressEvent event;
    event.phase = phase;
    event.detail = detail;
    event.iterations = reported_floor;
    event.search_space = space_known;
    if (space_known > 0) {
      event.coverage =
          std::min(1.0, static_cast<double>(event.iterations) / space_known);
    }
    event.elapsed_seconds = timer.ElapsedSeconds();
    ctx->Report(event);
  }
};

/// Candidate batch size between progress reports inside the enumeration
/// loop. Each iteration is a SAT solve plus a program evaluation, so even a
/// single batch is coarse-grained work.
constexpr size_t kProgressStride = 64;

/// Per-target-record synthesis context: enumerates consistent rules. The
/// loop in Next() is sequential by design: each blocking clause depends on
/// how the previous candidate was judged.
class RuleSynthesizer {
 public:
  RuleSynthesizer(const Schema& source, const Schema& target, RuleSketch sketch,
                  const FactDatabase& edb, const Example& example,
                  const SynthesisOptions& options)
      : source_(source),
        target_(target),
        sketch_(std::move(sketch)),
        edb_(edb),
        options_(options),
        engine_(MakeEngine(options)) {
    // Expected output restricted to this rule's record tree.
    for (const RecordNode& root : example.output.roots) {
      if (root.type == sketch_.target_record) expected_.roots.push_back(root);
    }
    expected_canon_ = CanonicalForest(expected_);
    // IDB signatures for this tree only.
    idb_sigs_[sketch_.target_record] = FactSignature(target_, sketch_.target_record);
    for (const std::string& nested : target_.NestedRecordsOf(sketch_.target_record)) {
      idb_sigs_[nested] = FactSignature(target_, nested);
    }
  }

  Status Init() {
    DYNAMITE_ASSIGN_OR_RETURN(SketchEncoding enc, EncodeSketch(sketch_, &solver_));
    encoding_ = std::move(enc);
    DYNAMITE_ASSIGN_OR_RETURN(Relation expected_flat,
                              FlattenForestView(expected_, target_, sketch_.target_record));
    expected_flat_ = std::move(expected_flat);
    return Status::OK();
  }

  /// Returns the next rule consistent with the example; kSynthesisFailure
  /// when the search space is exhausted; kTimeout / kCancelled when `ctx`
  /// interrupts the run; kEvalBudget when max_iterations is spent.
  Result<Rule> Next(const RunContext& ctx, ProgressTracker* progress) {
    if (have_last_success_) {
      // Continue the enumeration past the last success.
      DYNAMITE_RETURN_NOT_OK(
          solver_.AddConstraint(FdExpr::Not(ModelEquality(encoding_, last_success_))));
      have_last_success_ = false;
    }
    for (;;) {
      // One shared poll per candidate: the same Deadline/CancelToken every
      // other stage uses, so budgets cannot drift between loops.
      DYNAMITE_RETURN_NOT_OK(ctx.Check("candidate search"));
      DYNAMITE_FAILPOINT("synth.candidate");
      if (iterations_ >= options_.max_iterations) {
        return Status::EvalBudget("iteration budget exhausted");
      }
      DYNAMITE_ASSIGN_OR_RETURN(bool sat, solver_.Solve());
      if (!sat) {
        return Status::SynthesisFailure("no Datalog program consistent with the example for " +
                                        sketch_.target_record);
      }
      ++iterations_;
      if (progress != nullptr && iterations_ % kProgressStride == 0) {
        progress->Report(Phase::kSearch, sketch_.target_record, iterations_);
      }
      if (debug_log::Enabled() && iterations_ % 200 == 0) {
        debug_log::Logf("[synth %s] iters=%zu clauses=%zu conflicts=%lld\n",
                        sketch_.target_record.c_str(), iterations_, solver_.num_clauses(),
                        static_cast<long long>(solver_.num_conflicts()));
      }
      SketchModel model = ExtractModel(encoding_, solver_);
      DYNAMITE_ASSIGN_OR_RETURN(Rule rule, Instantiate(sketch_, model));

      Program candidate;
      candidate.rules.push_back(rule);
      auto eval = engine_.Eval(candidate, edb_, idb_sigs_, &ctx);
      if (!eval.ok()) {
        StatusCode code = eval.status().code();
        if (code == StatusCode::kTimeout || code == StatusCode::kEvalBudget) {
          // The run itself may have been interrupted mid-eval (the engine
          // folds the context deadline into its own): propagate that.
          // Otherwise the candidate alone was too expensive (per-candidate
          // eval budget): block exactly this model and move on.
          DYNAMITE_RETURN_NOT_OK(ctx.Check("candidate evaluation"));
          DYNAMITE_RETURN_NOT_OK(
              solver_.AddConstraint(FdExpr::Not(ModelEquality(encoding_, model))));
          continue;
        }
        return eval.status();
      }
      DYNAMITE_ASSIGN_OR_RETURN(RecordForest actual, BuildForest(*eval, target_));
      if (CanonicalForest(actual) == expected_canon_) {
        last_success_ = model;
        have_last_success_ = true;
        return rule;
      }

      // Failed: add blocking clause(s).
      if (!options_.use_analysis) {
        DYNAMITE_RETURN_NOT_OK(
            solver_.AddConstraint(FdExpr::Not(ModelEquality(encoding_, model))));
        continue;
      }
      std::vector<std::vector<std::string>> mdps;
      if (options_.use_mdp) {
        auto actual_flat = FlattenForestView(actual, target_, sketch_.target_record);
        if (actual_flat.ok()) {
          mdps = MDPSet(actual_flat.ValueOrDie(), expected_flat_, options_.mdp, &ctx);
        }
      }
      DYNAMITE_RETURN_NOT_OK(
          solver_.AddConstraint(AnalyzeBlocking(sketch_, encoding_, model, mdps)));
    }
  }

  size_t iterations() const { return iterations_; }
  double search_space() const { return sketch_.SearchSpaceSize(); }
  const std::string& target_record() const { return sketch_.target_record; }

 private:
  static DatalogEngine MakeEngine(const SynthesisOptions& options) {
    DatalogEngine::Options eval_opts;
    eval_opts.timeout_seconds = options.eval_timeout_seconds;
    eval_opts.max_derived_tuples = options.eval_max_tuples;
    eval_opts.num_threads = options.eval_num_threads;
    return DatalogEngine(eval_opts);
  }

  const Schema& source_;
  const Schema& target_;
  RuleSketch sketch_;
  const FactDatabase& edb_;
  const SynthesisOptions& options_;
  /// One engine for the whole enumeration: EDB join indexes and compiled
  /// candidate rules persist across the thousands of Eval calls below.
  DatalogEngine engine_;

  RecordForest expected_;
  std::vector<std::string> expected_canon_;
  Relation expected_flat_;
  std::map<std::string, std::vector<std::string>> idb_sigs_;

  FdSolver solver_;
  SketchEncoding encoding_;
  size_t iterations_ = 0;
  SketchModel last_success_;
  bool have_last_success_ = false;
};

/// Shared setup: Ψ, sketches, EDB facts.
struct Setup {
  AttributeMapping psi;
  std::vector<RuleSketch> sketches;
  FactDatabase edb;
};

Result<Setup> Prepare(const Schema& source, const Schema& target, const Example& example,
                      const SynthesisOptions& options, const RunContext& ctx,
                      ProgressTracker* progress) {
  Setup setup;
  DYNAMITE_FAILPOINT("synth.prepare");
  DYNAMITE_TRACE_SPAN("synth.prepare");
  progress->Report(Phase::kInferMapping, "", 0);
  DYNAMITE_RETURN_NOT_OK(ctx.Check("attribute-mapping inference"));
  DYNAMITE_ASSIGN_OR_RETURN(AttributeMapping psi, InferAttrMapping(source, target, example));
  setup.psi = std::move(psi);
  progress->Report(Phase::kSketch, "", 0);
  DYNAMITE_RETURN_NOT_OK(ctx.Check("sketch generation"));
  SketchGenOptions gen_options;
  gen_options.enable_filtering = options.enable_filtering;
  gen_options.max_constants_per_hole = options.max_constants_per_hole;
  DYNAMITE_ASSIGN_OR_RETURN(
      std::vector<RuleSketch> sketches,
      SketchGen(setup.psi, source, target, AttributeValueSets(example.output, target),
                gen_options));
  setup.sketches = std::move(sketches);
  uint64_t next_id = 1;
  DYNAMITE_ASSIGN_OR_RETURN(FactDatabase edb, ToFacts(example.input, source, &next_id, &ctx));
  setup.edb = std::move(edb);
  return setup;
}

}  // namespace

Synthesizer::Synthesizer(Schema source, Schema target, SynthesisOptions options)
    : source_(std::move(source)), target_(std::move(target)), options_(options) {}

Result<SynthesisResult> Synthesizer::Synthesize(const Example& example,
                                                const RunContext& ctx) const {
  // Crash-free boundary: the SAT search and per-candidate evaluations below
  // may throw (real bad_alloc under memory pressure, or an injected fault);
  // both surface here as typed Statuses, never as a crash.
  MemoryBudgetScope mem_scope(ctx.memory);
  return failpoint::GuardExceptions("synthesis", [&]() -> Result<SynthesisResult> {
    return SynthesizeImpl(example, ctx);
  });
}

Result<SynthesisResult> Synthesizer::SynthesizeImpl(const Example& example,
                                                    const RunContext& ctx) const {
  DYNAMITE_TRACE_SPAN("synth.synthesize");
  Timer total;
  ProgressTracker progress;
  progress.ctx = &ctx;
  DYNAMITE_ASSIGN_OR_RETURN(Setup setup,
                            Prepare(source_, target_, example, options_, ctx, &progress));

  SynthesisResult result;
  result.psi = setup.psi;
  for (RuleSketch& sketch : setup.sketches) {
    Timer rule_timer;
    DYNAMITE_TRACE_SPAN("synth.rule");
    RuleSynthesizer rs(source_, target_, std::move(sketch), setup.edb, example, options_);
    DYNAMITE_RETURN_NOT_OK(rs.Init());
    DYNAMITE_RETURN_NOT_OK(ctx.Check("synthesis"));
    progress.StartRule(rs.search_space());
    DYNAMITE_ASSIGN_OR_RETURN(Rule rule, rs.Next(ctx, &progress));
    result.raw_program.rules.push_back(rule);
    RuleStats stats;
    stats.target_record = rs.target_record();
    stats.search_space = rs.search_space();
    stats.iterations = rs.iterations();
    stats.seconds = rule_timer.ElapsedSeconds();
    result.rule_stats.push_back(std::move(stats));
    result.search_space *= rs.search_space();
    result.iterations += rs.iterations();
    progress.done_iterations += rs.iterations();
    progress.Report(Phase::kSearch, rs.target_record(), 0);
  }
  result.program = SimplifyProgram(result.raw_program);
  for (size_t i = 0; i < result.program.rules.size(); ++i) {
    result.rule_stats[i].body_predicates = result.program.rules[i].body.size();
  }
  result.seconds = total.ElapsedSeconds();
  return result;
}

Result<std::vector<Program>> Synthesizer::SynthesizeDistinct(const Example& example,
                                                             size_t limit,
                                                             const RunContext& ctx) const {
  MemoryBudgetScope mem_scope(ctx.memory);
  return failpoint::GuardExceptions("synthesis", [&]() -> Result<std::vector<Program>> {
    return SynthesizeDistinctImpl(example, limit, ctx);
  });
}

Result<std::vector<Program>> Synthesizer::SynthesizeDistinctImpl(
    const Example& example, size_t limit, const RunContext& ctx) const {
  ProgressTracker progress;
  progress.ctx = &ctx;
  DYNAMITE_ASSIGN_OR_RETURN(Setup setup,
                            Prepare(source_, target_, example, options_, ctx, &progress));

  // First program, keeping each rule's enumerator alive.
  std::vector<std::unique_ptr<RuleSynthesizer>> enumerators;
  Program first;
  for (RuleSketch& sketch : setup.sketches) {
    auto rs = std::make_unique<RuleSynthesizer>(source_, target_, std::move(sketch),
                                                setup.edb, example, options_);
    DYNAMITE_RETURN_NOT_OK(rs->Init());
    DYNAMITE_RETURN_NOT_OK(ctx.Check("synthesis"));
    progress.StartRule(rs->search_space());
    DYNAMITE_ASSIGN_OR_RETURN(Rule rule, rs->Next(ctx, &progress));
    first.rules.push_back(rule);
    progress.done_iterations += rs->iterations();
    enumerators.push_back(std::move(rs));
  }
  std::vector<Program> programs = {first};

  // Alternative programs: vary one rule at a time. Budget exhaustion here
  // returns what was found (ambiguity probing is best-effort); cancellation
  // still aborts the whole call.
  for (size_t i = 0; i < enumerators.size() && programs.size() < limit; ++i) {
    // Progress reports from enumerator i add its own cumulative count, so
    // the baseline is every *other* enumerator's total (keeps `iterations`
    // exact while one enumerator is re-entered; the tracker's monotone
    // floor keeps observed events non-decreasing across the reset).
    size_t baseline = 0;
    for (size_t j = 0; j < enumerators.size(); ++j) {
      if (j != i) baseline += enumerators[j]->iterations();
    }
    progress.done_iterations = baseline;
    for (;;) {
      if (programs.size() >= limit) break;
      auto alt = enumerators[i]->Next(ctx, &progress);
      if (!alt.ok()) {
        if (alt.status().code() == StatusCode::kCancelled) return alt.status();
        break;  // exhausted or timed out: move to next rule
      }
      // Keep only semantically new variants.
      if (RuleEquivalent(*alt, first.rules[i])) continue;
      bool duplicate = false;
      for (const Program& p : programs) {
        if (RuleEquivalent(p.rules[i], *alt)) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      Program variant = first;
      variant.rules[i] = *alt;
      programs.push_back(std::move(variant));
    }
  }
  return programs;
}

}  // namespace dynamite
