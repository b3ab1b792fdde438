// RunContext: the cross-cutting state of one pipeline run — deadline,
// cancellation token, progress observer — threaded through every stage
// (synthesis, analysis, MDP search, interactive loop, engine evaluation,
// facts conversion). It replaces the scattered per-class timeout knobs with
// one budget: a stage that also has a local cap (e.g. the per-candidate
// evaluation budget) composes it with Deadline::Earliest.
//
// A default-constructed RunContext is unbounded, non-cancellable, and
// silent, so threading it through a call chain costs nothing when unused.
// The include graph is intentionally shallow (util/ only): every layer of
// the repo may depend on this header.

#ifndef DYNAMITE_API_RUN_CONTEXT_H_
#define DYNAMITE_API_RUN_CONTEXT_H_

#include <cstddef>
#include <functional>
#include <string>

#include "util/cancel.h"
#include "util/deadline.h"
#include "util/mem_budget.h"
#include "util/status.h"
#include "util/trace.h"

namespace dynamite {

/// Pipeline stage a ProgressEvent refers to (the paper's workflow order).
enum class Phase {
  kInferMapping,  ///< attribute mapping Ψ (§4.2)
  kSketch,        ///< sketch generation Ω (§4.1)
  kSearch,        ///< SAT-guided candidate enumeration (§4.1/§4.3)
  kInteract,      ///< distinguishing-query rounds (§5)
  kMigrate,       ///< full-instance migration (§3.3)
};

/// Human-readable phase name ("search", "migrate", ...).
const char* PhaseToString(Phase phase);

/// One progress report. Counters are cumulative for the run, so consumers
/// can rely on `iterations`, `rounds` and `queries` never decreasing across
/// the events of a single run.
struct ProgressEvent {
  Phase phase = Phase::kSearch;
  /// What the phase is working on (target record name, relation, ...).
  std::string detail;
  /// Candidate models sampled so far, across all rules.
  size_t iterations = 0;
  /// Size of the search space known so far (product of per-rule sketch
  /// spaces that have started enumeration); 0 until the first rule starts.
  double search_space = 0;
  /// iterations / search_space, clamped to [0, 1]; an *upper bound* on the
  /// fraction of the space explored (analysis prunes whole regions).
  double coverage = 0;
  /// Interactive rounds / oracle queries completed (kInteract only).
  size_t rounds = 0;
  size_t queries = 0;
  /// Seconds since the stage driving this run started.
  double elapsed_seconds = 0;
};

/// Receives ProgressEvents. Called synchronously from the pipeline's own
/// thread between candidate batches — implementations must be fast and must
/// not re-enter the Session.
using ProgressObserver = std::function<void(const ProgressEvent&)>;

/// The per-run control block. Copyable; copies share the cancel state.
struct RunContext {
  /// Run-wide wall-clock budget (infinite by default).
  Deadline deadline;
  /// Cooperative cancellation (never-cancelled by default).
  CancelToken cancel;
  /// Progress callback (none by default).
  ProgressObserver observer;
  /// Run-wide byte budget (none by default). Not owned: the caller — for
  /// Session runs, the Session entry point — keeps it alive for the run.
  /// Copies share it, like the cancel state.
  MemoryBudget* memory = nullptr;
  /// Trace id of this run (0 = untraced). Session entry points stamp a
  /// fresh id when tracing is armed (see util/trace.h); copies keep it, so
  /// every stage of one run dumps under one id.
  uint64_t trace_id = 0;

  RunContext() = default;
  RunContext(Deadline d, CancelToken c, ProgressObserver o = nullptr)
      : deadline(d), cancel(std::move(c)), observer(std::move(o)) {}

  /// Shorthand for "just a timeout".
  static RunContext WithTimeout(double seconds) {
    return RunContext(Deadline::After(seconds), CancelToken());
  }

  /// The single interruption poll every budgeted loop uses: kCancelled wins
  /// over kTimeout (an explicit user action beats a clock), which wins over
  /// kResourceExhausted; OK otherwise. `what` names the interrupted work for
  /// the error message.
  Status Check(const char* what) const {
    if (cancel.cancelled()) {
      return Status::Cancelled(std::string("cancelled during ") + what);
    }
    if (deadline.Expired()) {
      return Status::Timeout(std::string("deadline exceeded during ") + what);
    }
    if (memory != nullptr && memory->exhausted()) {
      return memory->ToStatus(what);
    }
    return Status::OK();
  }

  /// True when any interruption condition holds (cheap form of Check for
  /// inner loops that construct the Status elsewhere).
  bool Interrupted() const {
    return cancel.cancelled() || deadline.Expired() ||
           (memory != nullptr && memory->exhausted());
  }

  /// Forwards an event to the observer, if any, and — when tracing is
  /// armed — records it as an instant event on the active span, so
  /// progress ticks land on the timeline of the run that produced them.
  void Report(const ProgressEvent& event) const {
    if (observer) observer(event);
    DYNAMITE_TRACE_INSTANT(PhaseToString(event.phase), event.detail.c_str());
  }
};

}  // namespace dynamite

#endif  // DYNAMITE_API_RUN_CONTEXT_H_
