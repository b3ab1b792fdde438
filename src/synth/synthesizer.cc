#include "synth/synthesizer.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
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
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace dynamite {

namespace {

/// Cumulative progress state for one Synthesize call: rule enumerators
/// report through this so `iterations` and `coverage` are monotone across
/// the whole run, not per rule. `done_iterations` counts every enumerator
/// except the reporting one, so each report is the exact running total,
/// also while the alternatives re-enter an earlier rule's enumerator.
struct ProgressTracker {
  const RunContext* ctx = nullptr;
  Timer timer;
  size_t done_iterations = 0;  ///< iterations of the other enumerators
  double space_known = 0;      ///< product of spaces of started rules

  /// Folds the sketch space of a rule that is starting enumeration.
  void StartRule(double rule_space) {
    space_known = space_known == 0 ? rule_space : space_known * rule_space;
  }

  void Report(Phase phase, const std::string& detail, size_t rule_iterations) {
    if (ctx == nullptr || !ctx->observer) return;
    ProgressEvent event;
    event.phase = phase;
    event.detail = detail;
    event.iterations = done_iterations + rule_iterations;
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

/// Shared setup: Ψ, the inputs of sketch generation, each top-level target
/// record's shapes, and the example's EDB facts.
struct Setup {
  AttributeMapping psi;
  std::map<std::string, std::set<Value>> output_values;
  SketchGenOptions gen_options;
  std::vector<SketchShapes> shapes;  ///< one per top-level target record
  FactDatabase edb;
};

/// Per-target-record synthesis context: enumerates consistent rules, shape
/// by shape (copy-count deepening, see sketch_gen.h). Within a shape the
/// loop in Next() is sequential by design: each blocking clause depends on
/// how the previous candidate was judged. When a shape's search space is
/// exhausted, the next shape's sketch is built and encoded from scratch.
class RuleSynthesizer {
 public:
  RuleSynthesizer(const Schema& source, const Schema& target, const Setup& setup,
                  std::string target_record, SketchShapes shapes, const Example& example,
                  const SynthesisOptions& options)
      : source_(source),
        target_(target),
        setup_(setup),
        target_record_(std::move(target_record)),
        shapes_(std::move(shapes)),
        options_(options),
        engine_(MakeEngine(options)) {
    // Expected output restricted to this rule's record tree.
    for (const RecordNode& root : example.output.roots) {
      if (root.type == target_record_) expected_.roots.push_back(root);
    }
    expected_canon_ = CanonicalForest(expected_);
    // IDB signatures for this tree only.
    idb_sigs_[target_record_] = FactSignature(target_, target_record_);
    for (const std::string& nested : target_.NestedRecordsOf(target_record_)) {
      idb_sigs_[nested] = FactSignature(target_, nested);
    }
  }

  Status Init() {
    // The reported search space is the full sketch's (the paper's metric),
    // whichever shape the rule is found in.
    DYNAMITE_ASSIGN_OR_RETURN(RuleSketch full, SketchFor(nullptr));
    search_space_ = full.SearchSpaceSize();
    DYNAMITE_ASSIGN_OR_RETURN(Relation expected_flat,
                              FlattenForestView(expected_, target_, target_record_));
    expected_flat_ = std::move(expected_flat);
    return Status::OK();
  }

  /// Returns the next rule consistent with the example; kSynthesisFailure
  /// when every shape's search space is exhausted; kTimeout / kCancelled
  /// when `ctx` interrupts the run; kEvalBudget when max_iterations is spent
  /// (counted over all shapes).
  Result<Rule> Next(const RunContext& ctx, ProgressTracker* progress) {
    for (;;) {
      DYNAMITE_TRACE_SPAN("synth.shape");
      Status opened = open_ ? Status::OK() : OpenShape();
      Result<Rule> found = opened.ok() ? SearchShape(ctx, progress) : Result<Rule>(opened);
      if (found.ok() || found.status().code() != StatusCode::kSynthesisFailure ||
          !shapes_.Advance()) {
        return found;
      }
      open_ = false;
    }
  }

  size_t iterations() const { return iterations_; }
  double search_space() const { return search_space_; }
  const std::string& target_record() const { return target_record_; }

 private:
  static DatalogEngine MakeEngine(const SynthesisOptions& options) {
    DatalogEngine::Options eval_opts;
    eval_opts.timeout_seconds = options.eval_timeout_seconds;
    eval_opts.max_derived_tuples = options.eval_max_tuples;
    return DatalogEngine(eval_opts);
  }

  /// The sketch capped at `shape`; null gives the full sketch.
  Result<RuleSketch> SketchFor(const SketchShape* shape) const {
    return GenRuleSketch(setup_.psi, source_, target_, target_record_, setup_.output_values,
                         setup_.gen_options, shape);
  }

  /// Builds and encodes the current shape's sketch in a fresh solver.
  Status OpenShape() {
    DYNAMITE_METRIC_INC("synth.shapes_tried");
    const SketchShape shape = shapes_.Current();
    DYNAMITE_ASSIGN_OR_RETURN(sketch_, SketchFor(&shape));
    solver_ = FdSolver();
    have_last_success_ = false;
    DYNAMITE_TRACE_SPAN("synth.encode");
    DYNAMITE_ASSIGN_OR_RETURN(encoding_, EncodeSketch(sketch_, &solver_));
    open_ = true;
    return Status::OK();
  }

  /// The enumeration inside the current shape: the next consistent rule, or
  /// kSynthesisFailure once the shape's formula is unsatisfiable.
  Result<Rule> SearchShape(const RunContext& ctx, ProgressTracker* progress) {
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
                                        target_record_);
      }
      ++iterations_;
      if (progress != nullptr && iterations_ % kProgressStride == 0) {
        progress->Report(Phase::kSearch, target_record_, iterations_);
      }
      if (debug_log::Enabled() && iterations_ % 200 == 0) {
        debug_log::Logf("[synth %s] iters=%zu clauses=%zu conflicts=%lld\n",
                        target_record_.c_str(), iterations_, solver_.num_clauses(),
                        static_cast<long long>(solver_.num_conflicts()));
      }
      SketchModel model = ExtractModel(encoding_, solver_);
      DYNAMITE_ASSIGN_OR_RETURN(Rule rule, Instantiate(sketch_, model));

      Program candidate;
      candidate.rules.push_back(rule);
      auto eval = engine_.Eval(candidate, setup_.edb, idb_sigs_, &ctx);
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
        auto actual_flat = FlattenForestView(actual, target_, target_record_);
        if (actual_flat.ok()) {
          mdps = MDPSet(actual_flat.ValueOrDie(), expected_flat_, options_.mdp, &ctx);
        }
      }
      DYNAMITE_RETURN_NOT_OK(
          solver_.AddConstraint(AnalyzeBlocking(sketch_, encoding_, model, mdps)));
    }
  }

  const Schema& source_;
  const Schema& target_;
  const Setup& setup_;
  const std::string target_record_;
  SketchShapes shapes_;
  const SynthesisOptions& options_;
  /// Evaluates every candidate under the synthesis limits; each Eval builds
  /// its own join indexes over the example.
  DatalogEngine engine_;

  RecordForest expected_;
  std::vector<std::string> expected_canon_;
  Relation expected_flat_;
  std::map<std::string, std::vector<std::string>> idb_sigs_;
  double search_space_ = 1;
  size_t iterations_ = 0;  ///< over every shape tried

  // The current shape's search.
  bool open_ = false;
  RuleSketch sketch_;
  FdSolver solver_;
  SketchEncoding encoding_;
  SketchModel last_success_;
  bool have_last_success_ = false;
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
  setup.gen_options.enable_filtering = options.enable_filtering;
  setup.gen_options.max_constants_per_hole = options.max_constants_per_hole;
  setup.output_values = AttributeValueSets(example.output, target);
  for (const std::string& rec : target.TopLevelRecords()) {
    DYNAMITE_ASSIGN_OR_RETURN(SketchShapes shapes,
                              SketchShapes::Create(setup.psi, source, target, rec,
                                                   setup.output_values, setup.gen_options));
    setup.shapes.push_back(std::move(shapes));
  }
  uint64_t next_id = 1;
  DYNAMITE_ASSIGN_OR_RETURN(FactDatabase edb, ToFacts(example.input, source, &next_id, &ctx));
  setup.edb = std::move(edb);
  return setup;
}

/// Interactive mode's ambiguity probe: re-enters each rule's enumerator past
/// its first success and appends `first` with that one rule replaced by each
/// semantically new consistent rule, until `programs` holds `limit`.
/// A rule's search space running out (kSynthesisFailure) or its iteration
/// budget (kEvalBudget) moves on to the next rule, so the probe returns what
/// it found; any other status, an interruption of the run (kCancelled,
/// kTimeout, kResourceExhausted) included, fails the call: a probe cut short
/// must not read as an unambiguous example.
Status AddAlternatives(const std::vector<std::unique_ptr<RuleSynthesizer>>& enumerators,
                       const Program& first, size_t limit, const RunContext& ctx,
                       ProgressTracker* progress, std::vector<Program>* programs) {
  for (size_t i = 0; i < enumerators.size() && programs->size() < limit; ++i) {
    size_t others = 0;
    for (size_t j = 0; j < enumerators.size(); ++j) {
      if (j != i) others += enumerators[j]->iterations();
    }
    progress->done_iterations = others;
    while (programs->size() < limit) {
      auto alt = enumerators[i]->Next(ctx, progress);
      if (!alt.ok()) {
        const StatusCode code = alt.status().code();
        if (code != StatusCode::kSynthesisFailure && code != StatusCode::kEvalBudget) {
          return alt.status();
        }
        break;
      }
      // Keep only semantically new variants; programs[0] is `first`.
      const bool seen = std::any_of(programs->begin(), programs->end(), [&](const Program& p) {
        return RuleEquivalent(p.rules[i], *alt);
      });
      if (seen) continue;
      Program variant = first;
      variant.rules[i] = *alt;
      programs->push_back(std::move(variant));
    }
  }
  return Status::OK();
}

}  // namespace

Synthesizer::Synthesizer(Schema source, Schema target, SynthesisOptions options)
    : source_(std::move(source)), target_(std::move(target)), options_(options) {}

Result<SynthesisResult> Synthesizer::Synthesize(const Example& example,
                                                const RunContext& ctx) const {
  return Run(example, 0, nullptr, ctx);
}

Result<std::pair<SynthesisResult, std::vector<Program>>> Synthesizer::SynthesizeDistinct(
    const Example& example, size_t limit, const RunContext& ctx) const {
  std::vector<Program> programs;
  DYNAMITE_ASSIGN_OR_RETURN(SynthesisResult result, Run(example, limit, &programs, ctx));
  return std::make_pair(std::move(result), std::move(programs));
}

Result<SynthesisResult> Synthesizer::Run(const Example& example, size_t limit,
                                         std::vector<Program>* distinct,
                                         const RunContext& ctx) const {
  // Crash-free boundary: the SAT search and per-candidate evaluations below
  // may throw (real bad_alloc under memory pressure, or an injected fault);
  // both surface here as typed Statuses, never as a crash.
  MemoryBudgetScope mem_scope(ctx.memory);
  return failpoint::GuardExceptions("synthesis", [&]() -> Result<SynthesisResult> {
    DYNAMITE_TRACE_SPAN("synth.synthesize");
    Timer total;
    ProgressTracker progress;
    progress.ctx = &ctx;
    DYNAMITE_ASSIGN_OR_RETURN(Setup setup,
                              Prepare(source_, target_, example, options_, ctx, &progress));

    SynthesisResult result;
    result.psi = setup.psi;
    // Each enumerator dies with its rule unless the alternatives re-enter it.
    std::vector<std::unique_ptr<RuleSynthesizer>> enumerators;
    const std::vector<std::string>& records = target_.TopLevelRecords();
    for (size_t r = 0; r < records.size(); ++r) {
      Timer rule_timer;
      DYNAMITE_TRACE_SPAN("synth.rule");
      auto rs = std::make_unique<RuleSynthesizer>(source_, target_, setup, records[r],
                                                  std::move(setup.shapes[r]), example,
                                                  options_);
      DYNAMITE_RETURN_NOT_OK(rs->Init());
      DYNAMITE_RETURN_NOT_OK(ctx.Check("synthesis"));
      progress.StartRule(rs->search_space());
      DYNAMITE_ASSIGN_OR_RETURN(Rule rule, rs->Next(ctx, &progress));
      result.raw_program.rules.push_back(std::move(rule));
      RuleStats stats;
      stats.target_record = rs->target_record();
      stats.search_space = rs->search_space();
      stats.iterations = rs->iterations();
      stats.seconds = rule_timer.ElapsedSeconds();
      result.rule_stats.push_back(std::move(stats));
      result.search_space *= rs->search_space();
      result.iterations += rs->iterations();
      progress.done_iterations += rs->iterations();
      progress.Report(Phase::kSearch, rs->target_record(), 0);
      if (distinct != nullptr) enumerators.push_back(std::move(rs));
    }
    result.program = SimplifyProgram(result.raw_program);
    for (size_t i = 0; i < result.program.rules.size(); ++i) {
      result.rule_stats[i].body_predicates = result.program.rules[i].body.size();
    }
    result.seconds = total.ElapsedSeconds();
    if (distinct != nullptr) {
      *distinct = {result.raw_program};
      DYNAMITE_RETURN_NOT_OK(AddAlternatives(enumerators, result.raw_program, limit, ctx,
                                             &progress, distinct));
    }
    return result;
  });
}

}  // namespace dynamite
