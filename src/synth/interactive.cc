#include "synth/interactive.h"

#include "migrate/facts.h"
#include "migrate/migrator.h"
#include "util/timer.h"

namespace dynamite {

InteractiveSynthesizer::InteractiveSynthesizer(const Synthesizer& synthesizer,
                                               InteractiveOptions options)
    : synthesizer_(synthesizer), options_(options) {}

namespace {

/// Enumerates subsets of pool roots in increasing size order, invoking `fn`
/// on `base` plus each subset until it returns true or the budget is
/// exhausted.
void ForEachSubset(const RecordForest& base, const RecordForest& pool, size_t max_size,
                   size_t budget, const std::function<bool(const RecordForest&)>& fn) {
  size_t n = pool.roots.size();
  size_t used = 0;
  // Standard lexicographic combination enumeration, size 1 upward (the
  // paper enumerates test inputs in increasing order of size).
  for (size_t k = 1; k <= max_size && k <= n; ++k) {
    std::vector<size_t> pick(k);
    for (size_t i = 0; i < k; ++i) pick[i] = i;
    bool exhausted = false;
    while (!exhausted) {
      if (++used > budget) return;
      RecordForest input = base;
      for (size_t i : pick) input.roots.push_back(pool.roots[i]);
      if (fn(input)) return;
      // Advance to the next combination.
      size_t i = k;
      for (;;) {
        if (i == 0) {
          exhausted = true;
          break;
        }
        --i;
        if (pick[i] != i + n - k) {
          ++pick[i];
          for (size_t j = i + 1; j < k; ++j) pick[j] = pick[j - 1] + 1;
          break;
        }
      }
    }
  }
}

}  // namespace

Result<InteractiveResult> InteractiveSynthesizer::Run(Example example,
                                                      const RecordForest& validation_pool,
                                                      const Oracle& oracle,
                                                      const Migrator& migrator,
                                                      const RunContext& ctx) const {
  InteractiveResult out;
  Timer total;

  auto report = [&](const std::string& detail) {
    if (!ctx.observer) return;
    ProgressEvent event;
    event.phase = Phase::kInteract;
    event.detail = detail;
    event.rounds = out.rounds;
    event.queries = out.queries;
    event.elapsed_seconds = total.ElapsedSeconds();
    ctx.Report(event);
  };

  // Synthesizes the final result from the accumulated example (shared by
  // every exit path: resolved, pool-exhausted, oracle-cancelled, or round
  // budget spent).
  auto finish = [&]() -> Result<InteractiveResult> {
    DYNAMITE_ASSIGN_OR_RETURN(SynthesisResult result, synthesizer_.Synthesize(example, ctx));
    out.result = std::move(result);
    return out;
  };

  for (size_t round = 0; round < options_.max_rounds; ++round) {
    DYNAMITE_RETURN_NOT_OK(ctx.Check("interactive round"));
    ++out.rounds;
    report("round");
    DYNAMITE_ASSIGN_OR_RETURN(
        std::vector<Program> programs,
        synthesizer_.SynthesizeDistinct(example, options_.max_programs, ctx));
    if (programs.empty()) {
      return Status::SynthesisFailure("no consistent program");
    }
    if (programs.size() == 1) {
      out.unique = true;
      return finish();
    }

    // Search a distinguishing input between the first program and any
    // alternative. Each probe is the example's input plus a few pool
    // records, and the oracle answers for that whole input, which then
    // replaces the example. Appending the pool records and their answer to
    // the example instead would break it whenever they join with the
    // example's records: the program's output on the union is not the union
    // of its outputs, and no program would fit the merged example. Probe
    // migrations run under a context without the observer: they are
    // internal (hundreds per round), and their kMigrate events would be
    // indistinguishable from a user-requested migration.
    RunContext probe_ctx = ctx;
    probe_ctx.observer = nullptr;
    const Program& p1 = programs[0];
    bool resolved_this_round = false;
    for (size_t alt = 1; alt < programs.size() && !resolved_this_round; ++alt) {
      const Program& p2 = programs[alt];
      RecordForest distinguishing;
      bool found = false;
      ForEachSubset(example.input, validation_pool, options_.max_query_records,
                    options_.max_candidate_inputs,
                    [&](const RecordForest& candidate) {
                      if (ctx.Interrupted()) return true;  // stop enumerating
                      auto o1 = migrator.Migrate(p1, candidate, nullptr, probe_ctx);
                      auto o2 = migrator.Migrate(p2, candidate, nullptr, probe_ctx);
                      if (!o1.ok() || !o2.ok()) return false;
                      if (!ForestEquals(*o1, *o2)) {
                        distinguishing = candidate;
                        found = true;
                        return true;
                      }
                      return false;
                    });
      DYNAMITE_RETURN_NOT_OK(ctx.Check("distinguishing-input search"));
      if (found) {
        ++out.queries;
        report("query");
        auto answer = oracle(distinguishing);
        if (!answer.ok()) {
          if (answer.status().code() == StatusCode::kCancelled) {
            // The user declined to keep answering: not a synthesis failure.
            // Stop querying and return the best program for the answers
            // accumulated so far, with partial interaction stats.
            out.cancelled = true;
            out.unique = false;
            return finish();
          }
          return answer.status();
        }
        example.input = std::move(distinguishing);
        example.output = std::move(answer).ValueOrDie();
        resolved_this_round = true;
      }
    }
    if (!resolved_this_round) {
      // Candidates are observationally equivalent on the validation pool:
      // accept the first program.
      out.unique = false;
      return finish();
    }
  }
  // Round budget exhausted: synthesize from the accumulated example.
  return finish();
}

}  // namespace dynamite
