// Bottom-up Datalog evaluation engine (the Souffle substrate).
//
// Evaluates a Datalog program over a FactDatabase of extensional facts and
// returns the intensional relations of the least Herbrand model (§3.2).
// Non-recursive programs (all that synthesis needs) complete in one pass;
// recursive programs are handled with semi-naive fixpoint iteration, so the
// engine is a complete substrate rather than a special case.
//
// Performance architecture (see src/datalog/README.md for the full picture):
//
//   * Rules compile to join plans whose body atoms are reordered by
//     estimated selectivity (bound-position count, then relation
//     cardinality); each plan step is a hash-index lookup on the positions
//     bound by constants or earlier atoms.
//   * One matcher evaluates every plan: a left-to-right recursion over the
//     plan's atoms, one candidate row at a time, inserting head rows
//     straight into the output relations. An atom none of whose variables
//     is read by a later atom or a head only tests existence, so the
//     matcher stops scanning it at its first row that passes its checks
//     (the existential cut). Every later row would replay the same
//     continuation and derive only duplicates, so outputs, row order,
//     stats and error codes are unchanged; the cut only ends the
//     cross-product blow-up of padded synthesized programs.
//   * Join indexes are persistent and incremental (src/datalog/index.h).
//     EDB indexes survive across Eval calls on the same engine — the
//     synthesizer evaluates thousands of candidate programs against one
//     example instance, paying each index build once. IDB indexes are
//     extended, never rebuilt, as the fixpoint derives tuples; semi-naive
//     deltas are suffix ranges of the append-only tuple vectors.
//   * Compiled rules are cached across Eval calls (keyed by rule text and
//     IDB signature), so repeated candidate checks skip recompilation. Join
//     orders are chosen with the cardinalities seen at first compile; stale
//     statistics trigger a re-plan (EDB drift at cache-hit time, IDB drift
//     after round 0 of the fixpoint) but never cost correctness.
//
// Evaluation is sequential: one engine per thread. It owns the caches above,
// so the public API is move-only and not safe for concurrent use.

#ifndef DYNAMITE_DATALOG_ENGINE_H_
#define DYNAMITE_DATALOG_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/run_context.h"
#include "datalog/ast.h"
#include "util/result.h"
#include "value/database.h"

namespace dynamite {

/// Bottom-up Datalog evaluator: compiles rules to join plans, matches each
/// plan with one row-at-a-time recursive matcher, and iterates recursive
/// programs to a semi-naive fixpoint.
class DatalogEngine {
 public:
  struct Options {
    /// Fixpoint iteration cap (cycles in the rule dependency graph);
    /// exceeding it aborts with kEvalBudget.
    size_t max_iterations = 1'000'000;
    /// Hard cap on total derived tuples; evaluation aborts with kEvalBudget
    /// when exceeded (guards against pathological joins, cf. §6.2 of the
    /// paper where random examples cause very large intermediate outputs).
    size_t max_derived_tuples = 20'000'000;
    /// Per-Eval wall-clock budget in seconds; <= 0 disables the check.
    /// Composed (Deadline::Earliest) with the RunContext deadline when one
    /// is passed; either expiring aborts with kTimeout. Polled every 1024
    /// join-candidate inspections (a fixed stride independent of how many
    /// tuples happen to be derived).
    double timeout_seconds = 0;
    /// Reorder body atoms by estimated selectivity at compile time.
    bool reorder_joins = true;
    /// Cache compiled rules across Eval calls on this engine. Cached plans
    /// are re-planned automatically when any EDB body relation's
    /// cardinality drifts ≥4x from the size seen at planning time, or —
    /// for recursive rules — when an IDB body relation's round-0 size
    /// drifts ≥4x from the size recorded on the first Eval (the
    /// statistics-refresh checks; see stats().plan_refreshes).
    bool cache_compiled_rules = true;
    /// Ignored: evaluation is always sequential. Kept only because
    /// perfbench/replay.cc still assigns it; it goes together with
    /// replay.cc (ROADMAP item 4).
    size_t num_threads = 0;
    /// Per-Eval byte budget covering relation growth, join-index posting
    /// lists and interned strings; exceeding it aborts with
    /// kResourceExhausted instead of OOM-killing the process. 0 disables
    /// the check. When the caller's RunContext already carries a
    /// MemoryBudget (a Session run), that budget is charged instead and
    /// this knob is ignored — one budget per run, not per stage.
    size_t max_memory_bytes = 0;
  };

  /// Counters accumulated across Eval calls on this engine. Deterministic:
  /// identical for the same Eval sequence.
  struct Stats {
    /// Cached rules recompiled because their join-order statistics went
    /// stale: ≥4x cardinality drift on an EDB body relation (checked at
    /// cache-hit time) or on a recursive rule's IDB body relation's
    /// round-0 size (checked after pass 0 of each fixpoint, against the
    /// sizes recorded on the rule's first Eval).
    size_t plan_refreshes = 0;
  };

  DatalogEngine();
  explicit DatalogEngine(Options options);
  ~DatalogEngine();
  DatalogEngine(DatalogEngine&&) noexcept;
  DatalogEngine& operator=(DatalogEngine&&) noexcept;

  /// Evaluates `program` on `edb`. `idb_signatures` names the attributes of
  /// every intensional relation (relation -> attribute names); arities must
  /// match the head atoms. The result contains exactly the intensional
  /// relations.
  ///
  /// `ctx` (optional) bounds the evaluation: its deadline is composed with
  /// Options::timeout_seconds (kTimeout on expiry) and its CancelToken is
  /// polled at the same fixed stride (kCancelled on request).
  Result<FactDatabase> Eval(
      const Program& program, const FactDatabase& edb,
      const std::map<std::string, std::vector<std::string>>& idb_signatures,
      const RunContext* ctx = nullptr) const;

  /// Like Eval, but derives signatures automatically (attributes named
  /// "c0", "c1", ...).
  Result<FactDatabase> EvalAutoSignatures(const Program& program,
                                          const FactDatabase& edb,
                                          const RunContext* ctx = nullptr) const;

  /// Snapshot of the engine's cumulative counters (see Stats).
  Stats stats() const;

 private:
  /// Eval minus the crash-free boundary: Eval resolves the run's
  /// MemoryBudget, installs it, and wraps this in an exception guard that
  /// maps bad_alloc / injected faults to typed Statuses.
  Result<FactDatabase> EvalImpl(
      const Program& program, const FactDatabase& edb,
      const std::map<std::string, std::vector<std::string>>& idb_signatures,
      const RunContext* ctx, MemoryBudget* budget) const;

  Options options_;
  /// Persistent EDB join indexes + compiled-rule cache; logically part of
  /// evaluation state, hence mutable behind const Eval.
  struct Caches;
  mutable std::unique_ptr<Caches> caches_;
};

}  // namespace dynamite

#endif  // DYNAMITE_DATALOG_ENGINE_H_
