// Correctness references for the benchmark, independent of the code under
// test where that matters.
//
// EvaluateConjunctive is a deliberately simple evaluator for non-recursive
// conjunctive Datalog (the shape of every golden program): one hash join
// per body atom, in body order with connected atoms first, and set-semantics
// head projection. It shares no code with DatalogEngine, so the bulk
// workload's migrations are checked against a second implementation rather
// than against themselves.
//
// ForestDigest is a 64-bit digest of a record forest with the equality of
// CanonicalForest: records and child groups are sets, field order and
// record identifiers do not matter. Two forests have the same digest when
// ForestEquals holds (and otherwise differ, up to a negligible collision
// chance). It stands in for CanonicalForest where the forests are too large
// to fingerprint as strings.

#ifndef DYNAMITE_PERFBENCH_REFERENCE_H_
#define DYNAMITE_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "instance/record_forest.h"
#include "value/database.h"

namespace dynamite {
namespace perfbench {

/// Evaluates a non-recursive program without negation over `edb`.
/// `idb_signatures` declares every head relation (as FactSignatures gives
/// them). kInvalidArgument when a body atom names a head relation or a
/// relation missing from `edb`.
Result<FactDatabase> EvaluateConjunctive(
    const Program& program, const FactDatabase& edb,
    const std::map<std::string, std::vector<std::string>>& idb_signatures);

uint64_t ForestDigest(const RecordForest& forest);

}  // namespace perfbench
}  // namespace dynamite

#endif  // DYNAMITE_PERFBENCH_REFERENCE_H_
