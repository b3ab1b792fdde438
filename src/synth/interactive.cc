#include "synth/interactive.h"

#include "migrate/facts.h"
#include "migrate/migrator.h"
#include "util/timer.h"
#include "util/trace.h"

namespace dynamite {

namespace {

/// Maximum user interactions.
constexpr size_t kMaxRounds = 8;
/// Ambiguity probe width per round: the first program and up to three
/// alternatives.
constexpr size_t kMaxPrograms = 4;
/// Pool records added to the example's input per distinguishing query.
constexpr size_t kMaxQueryRecords = 3;
/// Candidate inputs tried per alternative before giving up on it.
constexpr size_t kMaxCandidateInputs = 2000;

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

Result<InteractiveResult> RunInteractive(const Synthesizer& synthesizer, Example example,
                                         const RecordForest& validation_pool,
                                         const Oracle& oracle, const Migrator& migrator,
                                         const RunContext& ctx) {
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

  for (size_t round = 0; round < kMaxRounds; ++round) {
    DYNAMITE_RETURN_NOT_OK(ctx.Check("interactive round"));
    ++out.rounds;
    report("round");
    // The round's synthesis is the run's result unless an answer changes
    // the example below.
    DYNAMITE_ASSIGN_OR_RETURN(auto distinct,
                              synthesizer.SynthesizeDistinct(example, kMaxPrograms, ctx));
    out.result = std::move(distinct.first);
    const std::vector<Program>& programs = distinct.second;
    if (programs.size() == 1) {
      out.unique = true;
      return out;
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
      {
        DYNAMITE_TRACE_SPAN("interactive.distinguish");
        ForEachSubset(example.input, validation_pool, kMaxQueryRecords, kMaxCandidateInputs,
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
      }
      DYNAMITE_RETURN_NOT_OK(ctx.Check("distinguishing-input search"));
      if (found) {
        ++out.queries;
        report("query");
        auto answer = oracle(distinguishing);
        if (!answer.ok()) {
          if (answer.status().code() == StatusCode::kCancelled) {
            // The user declined to keep answering: not a synthesis failure.
            // Stop querying and return this round's program, synthesized
            // from the answers accumulated so far, with partial stats.
            out.cancelled = true;
            return out;
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
      return out;
    }
  }
  // Round budget spent: the last answer changed the example, so synthesize
  // from the accumulated example once more.
  DYNAMITE_ASSIGN_OR_RETURN(out.result, synthesizer.Synthesize(example, ctx));
  return out;
}

}  // namespace dynamite
