// Bottom-up Datalog evaluation engine (the Souffle substrate).
//
// Evaluates a Datalog program over a FactDatabase of extensional facts and
// returns the intensional relations of its least Herbrand model (§3.2). A
// migration program maps source records to target records: its heads are
// intensional and its bodies extensional (§3.3, §4.2), the source-to-target
// shape of schema mappings. The engine keeps the two namespaces apart: a
// body atom always reads the EDB and a head always writes the IDB, even
// when a source and a target relation share a name. So every Eval is one
// pass over a fixed EDB, and a body atom that names no EDB relation (the
// `tc` of a recursive program, say) fails with kInvalidArgument.
//
// Performance architecture (see src/datalog/README.md for the full picture):
//
//   * Each rule compiles to one join plan over its whole body, its atoms
//     ordered greedily: the one with the most bound positions goes next,
//     then the one over the smaller relation, then the earlier one in the
//     body. Each plan step is a hash-index lookup on the positions bound
//     by constants or earlier atoms.
//   * One matcher evaluates every plan: a left-to-right recursion over the
//     plan's atoms, one candidate row at a time, inserting head rows
//     straight into the output relations. An atom none of whose variables
//     is read by a later atom or a head only tests existence, so the
//     matcher stops scanning it at its first row that passes its checks
//     (the existential cut). Every later row would replay the same
//     continuation and derive only duplicates, so outputs, row order,
//     stats and error codes are unchanged; the cut only ends the
//     cross-product blow-up of padded synthesized programs.
//   * Join indexes (src/datalog/index.h) are built once per Eval over the
//     EDB relations they index, which stay unchanged for the whole call.
//   * Every Eval compiles the rules of the program it is given, with the
//     cardinalities of that call's EDB. Synthesis evaluates each candidate
//     program once (a blocked model never comes back), so neither compiled
//     plans nor indexes are kept across calls.
//
// Each Eval is sequential, and all of its state (compiled plans, join
// indexes, derived relations) belongs to that call. An engine
// holds only its Options: it is an ordinary copyable value, and several
// threads may call Eval on one const engine at once.

#ifndef DYNAMITE_DATALOG_ENGINE_H_
#define DYNAMITE_DATALOG_ENGINE_H_

#include <map>
#include <string>
#include <vector>

#include "api/run_context.h"
#include "datalog/ast.h"
#include "util/result.h"
#include "value/database.h"

namespace dynamite {

/// Bottom-up Datalog evaluator: compiles rules to join plans over the EDB
/// and matches each plan once with one row-at-a-time recursive matcher.
class DatalogEngine {
 public:
  struct Options {
    /// Hard cap on total derived tuples; evaluation aborts with kEvalBudget
    /// when exceeded (protects against pathological joins, cf. §6.2 of the
    /// paper where random examples cause very large intermediate outputs).
    size_t max_derived_tuples = 20'000'000;
    /// Per-Eval wall-clock budget in seconds; <= 0 disables the check.
    /// Composed (Deadline::Earliest) with the RunContext deadline when one
    /// is passed; either expiring aborts with kTimeout. Polled every 1024
    /// join-candidate inspections (a fixed stride independent of how many
    /// tuples happen to be derived).
    double timeout_seconds = 0;
    /// Order each rule's body atoms greedily at compile time: most bound
    /// positions first, then the smaller relation, then body order. When
    /// false, every plan joins the atoms in the order written.
    bool reorder_joins = true;
    /// Ignored: evaluation is always sequential. Kept only because
    /// perfbench/replay.cc still assigns it; it goes together with
    /// replay.cc (ROADMAP item 3).
    size_t num_threads = 0;
  };

  DatalogEngine() = default;
  explicit DatalogEngine(Options options) : options_(options) {}

  /// Evaluates `program` on `edb`. `idb_signatures` names the attributes of
  /// every intensional relation (relation -> attribute names); arities must
  /// match the head atoms. Every body atom reads the `edb` relation of its
  /// name, with its arity (kInvalidArgument otherwise). The result contains
  /// exactly the intensional relations.
  ///
  /// `ctx` (optional) bounds the evaluation: its deadline is composed with
  /// Options::timeout_seconds (kTimeout on expiry), and its CancelToken and
  /// MemoryBudget are polled at the same fixed stride (kCancelled on
  /// request, kResourceExhausted once the budget's bytes are spent). The
  /// budget covers relation growth, join-index posting lists and interned
  /// strings; it is the only byte bound an Eval has.
  Result<FactDatabase> Eval(
      const Program& program, const FactDatabase& edb,
      const std::map<std::string, std::vector<std::string>>& idb_signatures,
      const RunContext* ctx = nullptr) const;

  /// Like Eval, but derives signatures automatically (attributes named
  /// "c0", "c1", ...).
  Result<FactDatabase> EvalAutoSignatures(const Program& program,
                                          const FactDatabase& edb,
                                          const RunContext* ctx = nullptr) const;

 private:
  /// Eval minus the crash-free boundary: Eval installs the caller's
  /// MemoryBudget and wraps this in an exception guard that maps bad_alloc /
  /// injected faults to typed Statuses.
  Result<FactDatabase> EvalImpl(
      const Program& program, const FactDatabase& edb,
      const std::map<std::string, std::vector<std::string>>& idb_signatures,
      const RunContext* ctx) const;

  Options options_;
};

}  // namespace dynamite

#endif  // DYNAMITE_DATALOG_ENGINE_H_
