// Instance <-> Datalog-facts conversion (§3.3 of the paper).
//
// From instances to facts: every record instance r gets a unique identifier
// Id(r); a record of type N with attributes a1..an produces a fact
// R_N(c0, c1, ..., cn) where c0 = Id(parent(r)) when N is nested, ci = vi
// for primitive attributes, and ci = Id(r) for record-typed attributes
// (children of r carry Id(r) as their parent column, which is what makes
// the nesting join work).
//
// From facts to instances: BuildForest inverts the encoding by chasing
// parent identifiers through a hash index (the paper builds this index in
// MongoDB; we keep it in memory, same asymptotics).

#ifndef DYNAMITE_MIGRATE_FACTS_H_
#define DYNAMITE_MIGRATE_FACTS_H_

#include <map>
#include <string>
#include <vector>

#include "api/run_context.h"
#include "instance/record_forest.h"
#include "schema/schema.h"
#include "util/result.h"
#include "value/database.h"

namespace dynamite {

/// Observability counters for forest reconstruction (BuildForest).
/// Accumulated, never reset by the conversion functions.
struct IngestStats {
  /// Child posting-list indexes built (once per child relation, on first
  /// use).
  size_t child_index_builds = 0;
  /// Child-index lookups (one per record-typed cell chased).
  size_t child_index_lookups = 0;
};

/// Name of the parent-identifier column of a nested record's relation.
std::string ParentColumn(const std::string& record);

/// Attribute names of the fact relation for `record` under `schema`
/// (parent column first when nested, then schema attribute order).
std::vector<std::string> FactSignature(const Schema& schema, const std::string& record);

/// IDB signatures for every record type in `schema` (relation name ->
/// attribute names), as needed by DatalogEngine::Eval.
std::map<std::string, std::vector<std::string>> FactSignatures(const Schema& schema);

/// Converts a record forest into Datalog facts. Fresh identifiers are drawn
/// from `*next_id` (incremented); relations are declared for every record
/// type of the schema (even if empty). `ctx` (optional) is polled between
/// top-level records: cancellation/deadline aborts the conversion.
Result<FactDatabase> ToFacts(const RecordForest& forest, const Schema& schema,
                             uint64_t* next_id, const RunContext* ctx = nullptr);

/// Inverse of ToFacts: reconstructs a record forest from fact relations
/// (the paper's BuildRecord procedure, applied to every top-level record).
/// Ignores relations not present in `db` (treated as empty). `ctx` as in
/// ToFacts. `stats` (optional) accumulates child-index build/lookup counts.
Result<RecordForest> BuildForest(const FactDatabase& db, const Schema& schema,
                                 const RunContext* ctx = nullptr,
                                 IngestStats* stats = nullptr);

/// Canonical, order-insensitive fingerprints of the forest's root records
/// (sorted). Two forests represent the same database instance iff their
/// fingerprints are equal; record identifiers never appear in fingerprints.
std::vector<std::string> CanonicalForest(const RecordForest& forest);

/// Instance equality via canonical fingerprints.
bool ForestEquals(const RecordForest& a, const RecordForest& b);

/// The "universal relation" view of one target record tree: the record's
/// primitive attributes joined (left-outer) with all transitively nested
/// records' primitive attributes; missing children pad with nulls. MDP
/// analysis (§4.3) runs on this view so that differences in nesting
/// structure are visible to projections.
Result<Relation> FlattenView(const FactDatabase& db, const Schema& schema,
                             const std::string& top_record,
                             const RunContext* ctx = nullptr);

/// FlattenView starting from a record forest (used for expected outputs).
Result<Relation> FlattenForestView(const RecordForest& forest, const Schema& schema,
                                   const std::string& top_record,
                                   const RunContext* ctx = nullptr);

}  // namespace dynamite

#endif  // DYNAMITE_MIGRATE_FACTS_H_
