// Top-level Datalog program synthesis (§4.1, Algorithm 1).
//
//   Synthesize(S, S', E):
//     Ψ ← InferAttrMapping;  Ω ← SketchGen(Ψ);  Φ ← Encode(Ω)
//     while SAT(Φ): σ ← model; P ← Instantiate(Ω, σ)
//       if ⟦P⟧I = O: return P
//       Φ ← Φ ∧ Analyze(σ, ⟦P⟧I, O)
//
// Synthesis proceeds per top-level target record (one rule each; the full
// program is their union, cf. Lemma 7/Theorem 3). Each rule is searched in
// sketches of growing size, from the fewest chain copies that can cover its
// head up to the paper's full sketch (copy-count deepening, see
// sketch_gen.h), so the rule found comes from the first sketch in that
// order that holds a consistent one. Candidate programs are executed with
// the in-repo Datalog engine and compared to the expected output
// instance-structurally (record identifiers are existential).

#ifndef DYNAMITE_SYNTH_SYNTHESIZER_H_
#define DYNAMITE_SYNTH_SYNTHESIZER_H_

#include <string>
#include <utility>
#include <vector>

#include "api/run_context.h"
#include "datalog/ast.h"
#include "datalog/engine.h"
#include "schema/schema.h"
#include "synth/attr_map.h"
#include "synth/example.h"
#include "synth/mdp.h"
#include "synth/sketch.h"
#include "util/result.h"

namespace dynamite {

/// Knobs for the synthesis loop.
struct SynthesisOptions {
  /// false = Dynamite-Enum: block only the failed model (§6.4 baseline).
  bool use_analysis = true;
  /// false = ablation: use Generalize without MDPs (all head vars pinned).
  bool use_mdp = true;
  /// Filtering extension (§5): constants in hole domains.
  bool enable_filtering = false;
  size_t max_constants_per_hole = 4;
  /// Cap on sampled models across all rules (kEvalBudget when exhausted).
  size_t max_iterations = 5'000'000;
  /// MDP search limits.
  MdpOptions mdp;
  /// Budget for evaluating one candidate program on the example.
  double eval_timeout_seconds = 5.0;
  size_t eval_max_tuples = 500'000;
  /// Ignored: candidate evaluation is always sequential. Kept only because
  /// perfbench/replay.cc still reads it; it goes together with replay.cc
  /// (ROADMAP item 3).
  size_t eval_num_threads = 0;
};

/// Per-rule synthesis statistics.
struct RuleStats {
  std::string target_record;
  double search_space = 1;  ///< possible completions of this rule's full sketch
  size_t iterations = 0;    ///< models sampled, over every shape tried
  double seconds = 0;
  size_t body_predicates = 0;  ///< after simplification
};

/// Result of a successful synthesis.
struct SynthesisResult {
  Program program;      ///< simplified program
  Program raw_program;  ///< as instantiated from the sketches
  double search_space = 1;
  size_t iterations = 0;
  double seconds = 0;
  std::vector<RuleStats> rule_stats;
  AttributeMapping psi;
};

/// Programming-by-example synthesizer for schema-mapping Datalog programs:
/// the synthesis stage of the pipeline. Applications call it through
/// dynamite::Session (src/api/session.h), which validates schemas once and
/// supplies the run's budget; the wall-clock budget is the RunContext
/// deadline and nothing else.
class Synthesizer {
 public:
  Synthesizer(Schema source, Schema target,
              SynthesisOptions options = SynthesisOptions());

  /// Synthesizes a program P with ⟦P⟧(E.input) = E.output, bounded and
  /// observed by `ctx`: kSynthesisFailure when no program is consistent,
  /// kTimeout on deadline, kCancelled on cancellation, kEvalBudget on
  /// max_iterations; progress events fire per phase and per candidate batch.
  Result<SynthesisResult> Synthesize(const Example& example,
                                     const RunContext& ctx = RunContext()) const;

  /// Finds up to `limit` pairwise *semantically distinct* consistent
  /// programs (used by interactive mode to detect ambiguity). `first` is
  /// Synthesize()'s result for `example` (every field but the wall-clock
  /// `seconds`); `second` starts with that result's raw_program (as
  /// instantiated, not simplified), and each later program replaces one of
  /// its rules with another consistent rule. A rule whose search space or
  /// iteration budget runs out yields the alternatives found so far; an
  /// interruption (kCancelled, kTimeout, kResourceExhausted) fails the call.
  Result<std::pair<SynthesisResult, std::vector<Program>>> SynthesizeDistinct(
      const Example& example, size_t limit, const RunContext& ctx = RunContext()) const;

 private:
  /// The synthesis loop both entry points run, inside the crash-free
  /// boundary (installs the run's MemoryBudget and maps thrown bad_alloc /
  /// injected faults to typed Statuses): Prepare, then per rule the first
  /// consistent rule, then simplification. With `distinct` null each rule's
  /// enumerator dies with its rule; otherwise the enumerators are kept and
  /// re-entered to fill `*distinct` with up to `limit` programs.
  Result<SynthesisResult> Run(const Example& example, size_t limit,
                              std::vector<Program>* distinct, const RunContext& ctx) const;

  Schema source_;
  Schema target_;
  SynthesisOptions options_;
};

}  // namespace dynamite

#endif  // DYNAMITE_SYNTH_SYNTHESIZER_H_
