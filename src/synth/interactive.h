// Interactive mode (§5 and Appendix B).
//
// When several programs are consistent with the example, Dynamite searches
// for a small *distinguishing input* — the example's input plus a subset of
// validation records, on which two candidate programs disagree — asks the
// user (an Oracle callback here) for the output of that whole input, makes
// it the new example, and re-synthesizes until the ambiguity is resolved.

#ifndef DYNAMITE_SYNTH_INTERACTIVE_H_
#define DYNAMITE_SYNTH_INTERACTIVE_H_

#include <functional>

#include "synth/synthesizer.h"

namespace dynamite {

class Migrator;

/// Answers a distinguishing query: given a source input, returns the target
/// output the user expects. In tests and benchmarks this is the golden
/// program run by a Migrator.
using Oracle = std::function<Result<RecordForest>(const RecordForest& input)>;

struct InteractiveOptions {
  size_t max_rounds = 8;           ///< maximum user interactions
  size_t max_programs = 4;         ///< ambiguity probe width per round
  size_t max_query_records = 3;    ///< distinguishing input size cap
  size_t max_candidate_inputs = 2000;  ///< enumeration budget per round
};

struct InteractiveResult {
  SynthesisResult result;
  size_t rounds = 0;   ///< rounds executed (>= 1)
  size_t queries = 0;  ///< oracle questions asked
  bool unique = false;  ///< true if ambiguity was fully resolved
  /// True when the oracle answered kCancelled: the loop stopped asking and
  /// `result` holds the program synthesized from the answers gathered so
  /// far (partial stats in `rounds`/`queries`). Distinct from cancelling
  /// the whole run via RunContext, which fails with kCancelled instead.
  bool cancelled = false;
};

/// Runs interactive synthesis: `initial` is the starting example,
/// `validation_pool` a forest of source records distinguishing inputs are
/// drawn from (Appendix B samples it from the source database). This is the
/// interactive stage of the pipeline, reached through
/// dynamite::Session::SynthesizeInteractive (src/api/session.h).
class InteractiveSynthesizer {
 public:
  /// `synthesizer` runs every round's synthesis; it must outlive this object.
  explicit InteractiveSynthesizer(const Synthesizer& synthesizer,
                                  InteractiveOptions options = InteractiveOptions());

  /// The deadline/cancellation of `ctx` applies across rounds (synthesis,
  /// distinguishing-input search, migrations), and a kInteract progress
  /// event fires per round and per oracle query. `migrator` runs the
  /// distinguishing-input probes; a Session passes its own, so the probes'
  /// join indexes persist across rounds and calls.
  Result<InteractiveResult> Run(Example initial, const RecordForest& validation_pool,
                                const Oracle& oracle, const Migrator& migrator,
                                const RunContext& ctx = RunContext()) const;

 private:
  const Synthesizer& synthesizer_;
  InteractiveOptions options_;
};

}  // namespace dynamite

#endif  // DYNAMITE_SYNTH_INTERACTIVE_H_
