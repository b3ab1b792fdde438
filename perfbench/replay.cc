#include "replay.h"

#include <algorithm>
#include <map>
#include <utility>

#include "datalog/engine.h"
#include "datalog/simplify.h"
#include "migrate/facts.h"
#include "solver/fd.h"
#include "synth/analyze.h"
#include "synth/attr_map.h"
#include "synth/encode.h"
#include "synth/mdp.h"
#include "synth/sketch_gen.h"
#include "util/trace.h"

namespace dynamite {
namespace perfbench {

namespace {

/// Runs `fn`, adds its wall time to `bucket`, and records it as a span
/// while tracing is armed.
template <typename F>
auto Timed(Bucket bucket, LayerProfile* profile, F&& fn) -> decltype(fn()) {
  struct Stop {
    Bucket bucket;
    LayerProfile* profile;
    uint64_t start = trace::NowNs();
    ~Stop() {
      uint64_t dur = trace::NowNs() - start;
      profile->seconds[static_cast<int>(bucket)] += static_cast<double>(dur) * 1e-9;
      if (trace::Enabled()) trace::RecordComplete(BucketName(bucket), start, dur);
    }
  } stop{bucket, profile};
  return fn();
}

/// Adds the wall time of its scope to LayerProfile::replay_wall_seconds.
struct ReplayWall {
  LayerProfile* profile;
  uint64_t start = trace::NowNs();
  ~ReplayWall() {
    profile->replay_wall_seconds += static_cast<double>(trace::NowNs() - start) * 1e-9;
  }
};

/// One rule's enumeration, mirroring RuleSynthesizer::Init and Next on the
/// sequential path.
class RuleReplay {
 public:
  RuleReplay(const Schema& target, RuleSketch sketch, const FactDatabase& edb,
             const SynthesisOptions& options, LayerProfile* profile)
      : target_(target), sketch_(std::move(sketch)), edb_(edb), options_(options),
        profile_(profile), engine_(EngineOptions(options)) {}

  Status Init(const Example& example) {
    return Timed(Bucket::kSynthEncode, profile_, [&]() -> Status {
      for (const RecordNode& root : example.output.roots) {
        if (root.type == sketch_.target_record) expected_.roots.push_back(root);
      }
      expected_canon_ = CanonicalForest(expected_);
      idb_sigs_[sketch_.target_record] = FactSignature(target_, sketch_.target_record);
      for (const std::string& nested : target_.NestedRecordsOf(sketch_.target_record)) {
        idb_sigs_[nested] = FactSignature(target_, nested);
      }
      DYNAMITE_ASSIGN_OR_RETURN(encoding_, EncodeSketch(sketch_, &solver_));
      DYNAMITE_ASSIGN_OR_RETURN(
          expected_flat_, FlattenForestView(expected_, target_, sketch_.target_record));
      return Status::OK();
    });
  }

  Result<Rule> Next(const RunContext& ctx) {
    for (;;) {
      DYNAMITE_RETURN_NOT_OK(ctx.Check("candidate search"));
      if (iterations_ >= options_.max_iterations) {
        return Status::EvalBudget("iteration budget exhausted");
      }
      const double solved_before = profile_->Seconds(Bucket::kSolverSolve);
      DYNAMITE_ASSIGN_OR_RETURN(
          bool sat, Timed(Bucket::kSolverSolve, profile_, [&] { return solver_.Solve(); }));
      solve_seconds_.push_back(profile_->Seconds(Bucket::kSolverSolve) - solved_before);
      if (!sat) {
        return Status::SynthesisFailure("no Datalog program consistent with the example for " +
                                        sketch_.target_record);
      }
      ++iterations_;
      SketchModel model;
      Program candidate;
      DYNAMITE_RETURN_NOT_OK(Timed(Bucket::kSynthInstantiate, profile_, [&]() -> Status {
        model = ExtractModel(encoding_, solver_);
        DYNAMITE_ASSIGN_OR_RETURN(Rule rule, Instantiate(sketch_, model));
        candidate.rules.push_back(std::move(rule));
        return Status::OK();
      }));
      ++profile_->candidate_evals;
      auto eval = Timed(Bucket::kCandidateEval, profile_,
                        [&] { return engine_.Eval(candidate, edb_, idb_sigs_, &ctx); });
      if (!eval.ok()) {
        StatusCode code = eval.status().code();
        if (code == StatusCode::kTimeout || code == StatusCode::kEvalBudget) {
          DYNAMITE_RETURN_NOT_OK(ctx.Check("candidate evaluation"));
          DYNAMITE_RETURN_NOT_OK(Lower(FdExpr::Not(ModelEquality(encoding_, model))));
          continue;
        }
        return eval.status();
      }
      RecordForest actual;
      bool match = false;
      DYNAMITE_RETURN_NOT_OK(Timed(Bucket::kCandidateCheck, profile_, [&]() -> Status {
        DYNAMITE_ASSIGN_OR_RETURN(actual, BuildForest(*eval, target_));
        match = CanonicalForest(actual) == expected_canon_;
        return Status::OK();
      }));
      if (match) return candidate.rules[0];

      if (!options_.use_analysis) {
        DYNAMITE_RETURN_NOT_OK(Lower(FdExpr::Not(ModelEquality(encoding_, model))));
        continue;
      }
      FdExpr blocking = Timed(Bucket::kSynthAnalyze, profile_, [&] {
        std::vector<std::vector<std::string>> mdps;
        if (options_.use_mdp) {
          auto actual_flat = FlattenForestView(actual, target_, sketch_.target_record);
          if (actual_flat.ok()) {
            mdps = MDPSet(actual_flat.ValueOrDie(), expected_flat_, options_.mdp, &ctx);
          }
        }
        return AnalyzeBlocking(sketch_, encoding_, model, mdps);
      });
      DYNAMITE_RETURN_NOT_OK(Lower(blocking));
    }
  }

  size_t iterations() const { return iterations_; }

  /// Folds this rule's solver counters into the profile.
  void Finish() {
    profile_->solves += solve_seconds_.size();
    profile_->iterations += iterations_;
    profile_->sketch_holes += sketch_.holes.size();
    profile_->fd_vars += solver_.NumVars();
    profile_->conflicts += static_cast<uint64_t>(solver_.num_conflicts());
    profile_->peak_clauses =
        std::max<uint64_t>(profile_->peak_clauses, solver_.num_clauses());
    const size_t n = solve_seconds_.size();
    if (n >= kGrowthMinSolves) {
      const size_t tenth = n / 10;
      for (size_t i = 0; i < tenth; ++i) {
        profile_->first_decile_solve_seconds += solve_seconds_[i];
        profile_->last_decile_solve_seconds += solve_seconds_[n - tenth + i];
      }
    }
  }

 private:
  static DatalogEngine::Options EngineOptions(const SynthesisOptions& options) {
    DatalogEngine::Options eval_opts;
    eval_opts.timeout_seconds = options.eval_timeout_seconds;
    eval_opts.max_derived_tuples = options.eval_max_tuples;
    eval_opts.num_threads = options.eval_num_threads;
    return eval_opts;
  }

  Status Lower(const FdExpr& e) {
    return Timed(Bucket::kSolverLower, profile_, [&] { return solver_.AddConstraint(e); });
  }

  const Schema& target_;
  RuleSketch sketch_;
  const FactDatabase& edb_;
  const SynthesisOptions& options_;
  LayerProfile* profile_;
  DatalogEngine engine_;

  RecordForest expected_;
  std::vector<std::string> expected_canon_;
  Relation expected_flat_;
  std::map<std::string, std::vector<std::string>> idb_sigs_;
  FdSolver solver_;
  SketchEncoding encoding_;
  size_t iterations_ = 0;
  std::vector<double> solve_seconds_;
};

}  // namespace

const char* BucketName(Bucket b) {
  switch (b) {
    case Bucket::kSynthPrepare:
      return "perfbench.synth.prepare";
    case Bucket::kSynthEncode:
      return "perfbench.synth.encode";
    case Bucket::kSolverSolve:
      return "perfbench.solver.solve";
    case Bucket::kSolverLower:
      return "perfbench.solver.lower";
    case Bucket::kSynthInstantiate:
      return "perfbench.synth.instantiate";
    case Bucket::kCandidateEval:
      return "perfbench.datalog.candidate_eval";
    case Bucket::kCandidateCheck:
      return "perfbench.migrate.candidate_check";
    case Bucket::kSynthAnalyze:
      return "perfbench.synth.analyze";
    case Bucket::kSimplify:
      return "perfbench.datalog.simplify";
    case Bucket::kToFacts:
      return "perfbench.migrate.to_facts";
    case Bucket::kMigrateEval:
      return "perfbench.datalog.migrate_eval";
    case Bucket::kBuild:
      return "perfbench.migrate.build";
    case Bucket::kCount:
      break;
  }
  return "?";
}

double LayerProfile::CoveredSeconds() const {
  double sum = 0;
  for (double s : seconds) sum += s;
  return sum;
}

Result<SynthesisReplay> ReplaySynthesize(const Schema& source, const Schema& target,
                                         const Example& example,
                                         const SynthesisOptions& options,
                                         const RunContext& ctx, LayerProfile* profile) {
  ReplayWall wall{profile};

  std::vector<RuleSketch> sketches;
  FactDatabase edb;
  DYNAMITE_RETURN_NOT_OK(Timed(Bucket::kSynthPrepare, profile, [&]() -> Status {
    DYNAMITE_RETURN_NOT_OK(ctx.Check("attribute-mapping inference"));
    DYNAMITE_ASSIGN_OR_RETURN(AttributeMapping psi, InferAttrMapping(source, target, example));
    DYNAMITE_RETURN_NOT_OK(ctx.Check("sketch generation"));
    SketchGenOptions gen_options;
    gen_options.enable_filtering = options.enable_filtering;
    gen_options.max_constants_per_hole = options.max_constants_per_hole;
    DYNAMITE_ASSIGN_OR_RETURN(
        sketches, SketchGen(psi, source, target, AttributeValueSets(example.output, target),
                            gen_options));
    uint64_t next_id = 1;
    DYNAMITE_ASSIGN_OR_RETURN(edb, ToFacts(example.input, source, &next_id, &ctx));
    return Status::OK();
  }));

  SynthesisReplay out;
  Program raw;
  for (RuleSketch& sketch : sketches) {
    RuleReplay rule(target, std::move(sketch), edb, options, profile);
    Status init = rule.Init(example);
    if (init.ok()) init = ctx.Check("synthesis");
    Result<Rule> found = init.ok() ? rule.Next(ctx) : Result<Rule>(init);
    rule.Finish();
    out.iterations += rule.iterations();
    DYNAMITE_RETURN_NOT_OK(found.status());
    ++profile->rules_found;
    raw.rules.push_back(std::move(found).ValueOrDie());
  }
  out.program = Timed(Bucket::kSimplify, profile, [&] { return SimplifyProgram(raw); });
  return out;
}

Result<RecordForest> ReplayMigrate(const Schema& source, const Schema& target,
                                   const Program& program, const RecordForest& instance,
                                   const RunContext& ctx, LayerProfile* profile) {
  ReplayWall wall{profile};

  DatalogEngine engine{DatalogEngine::Options()};
  uint64_t next_id = 1;
  DYNAMITE_ASSIGN_OR_RETURN(FactDatabase edb, Timed(Bucket::kToFacts, profile, [&] {
                              return ToFacts(instance, source, &next_id, &ctx);
                            }));
  profile->source_records += instance.TotalRecords();
  profile->source_facts += edb.TotalFacts();
  DYNAMITE_ASSIGN_OR_RETURN(FactDatabase idb, Timed(Bucket::kMigrateEval, profile, [&] {
                              return engine.Eval(program, edb, FactSignatures(target), &ctx);
                            }));
  profile->target_facts += idb.TotalFacts();
  DYNAMITE_ASSIGN_OR_RETURN(RecordForest out, Timed(Bucket::kBuild, profile, [&] {
                              return BuildForest(idb, target, &ctx);
                            }));
  profile->target_records += out.TotalRecords();
  return out;
}

}  // namespace perfbench
}  // namespace dynamite
