#include "baselines/eirene.h"

#include "synth/synthesizer.h"
#include "util/timer.h"

namespace dynamite {

EireneSynthesizer::EireneSynthesizer(Schema source, Schema target, EireneOptions options)
    : source_(std::move(source)), target_(std::move(target)), options_(options) {}

Result<EireneResult> EireneSynthesizer::Synthesize(const Example& example) const {
  Timer timer;
  // Canonical GLAV fitting: search the same mapping space, but (a) eliminate
  // one candidate per counterexample (no conflict generalization) and
  // (b) keep the fitted tgds unminimized — both properties of the original
  // system that Figure 10 measures.
  SynthesisOptions options;
  options.use_analysis = false;
  Synthesizer fitter(source_, target_, options);
  RunContext ctx(Deadline::AfterOrInfinite(options_.timeout_seconds), CancelToken());
  DYNAMITE_ASSIGN_OR_RETURN(SynthesisResult fitted, fitter.Synthesize(example, ctx));

  EireneResult out;
  out.glav = fitted.raw_program;  // unsimplified: redundant atoms survive
  out.iterations = fitted.iterations;
  out.seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace dynamite
