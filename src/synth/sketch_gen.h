// Sketch generation (§4.2, Algorithm 2, Figures 5 and 6).
//
// For each top-level record type N of the target schema we build one rule
// sketch: GenIntensionalPreds produces the fixed head (one predicate for N
// and one per transitively nested record, linked by connector variables);
// the body holds chain copies of extensional predicates; hole domains
// combine head variables and body attribute variables per the aliasing
// rules, plus (optionally) constants for the filtering extension.
//
// Copy-count deepening. The paper's full sketch holds one copy of the chain
// of RecName(a) for every (source attribute a, target alias) pair in Ψ.
// Holes choose variables but never remove atoms, so every rule found in a
// sketch carries all of its atoms. The search therefore visits *shapes* --
// chain copies per leaf record, each at most the full sketch's count -- in
// this order:
//   1. fewest total copies first;
//   2. ties in ascending lexicographic order of the per-leaf-record count
//      vector, records sorted by name.
// A shape is visited only if its holes can be matched one-to-one onto every
// head attribute that no filtering head binding may pin: each hole takes one
// value, so a shape without that matching is UNSAT under EncodeSketch's
// coverage constraint and skipping it, unbuilt, is exact. Matching only
// gains holes as copies are added, so the full sketch is the last shape
// visited and the search stays complete. SketchGen returns each record's
// first visited shape; Synthesizer moves to the next shape when a shape's
// search is exhausted, and its alternatives search (SynthesizeDistinct)
// continues past the shape where the first rule was found.

#ifndef DYNAMITE_SYNTH_SKETCH_GEN_H_
#define DYNAMITE_SYNTH_SKETCH_GEN_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "schema/schema.h"
#include "synth/attr_map.h"
#include "synth/sketch.h"
#include "util/result.h"

namespace dynamite {

/// Options controlling sketch generation.
struct SketchGenOptions {
  /// Filtering extension (§5): include constants from the output example in
  /// hole domains.
  bool enable_filtering = false;
  /// Cap on constants added per hole.
  size_t max_constants_per_hole = 4;
};

/// Chain copies per leaf source record: the record a chain copy is generated
/// for (its ancestors come with the chain). A record with no copy is absent.
using SketchShape = std::map<std::string, int>;

/// The shapes of one top-level target record's sketch, in search order (see
/// the file comment). Starts at the first shape that passes the matching
/// check; when no shape does, the full shape is the only one, so the sketch
/// fails where the full sketch always has.
class SketchShapes {
 public:
  /// kInvalidArgument for a record that is not top-level; kSynthesisFailure
  /// when Ψ relates no source attribute to the record's tree.
  static Result<SketchShapes> Create(
      const AttributeMapping& psi, const Schema& source, const Schema& target,
      const std::string& target_record,
      const std::map<std::string, std::set<Value>>& output_value_sets,
      const SketchGenOptions& options = SketchGenOptions());

  /// The shape to search now.
  SketchShape Current() const;

  /// Moves to the next shape that passes the matching; false (and no move)
  /// when the current shape is the last.
  bool Advance();

 private:
  /// Next count vector in search order, matching or not; false past the end.
  bool Step();
  /// True if the current shape's holes can cover every required head
  /// attribute with distinct holes.
  bool Matches() const;

  std::vector<std::string> records_;  ///< leaf records, sorted by name
  std::vector<int> max_;              ///< the full sketch's copies per record
  std::vector<int> counts_;           ///< the current shape
  /// Per source attribute with a required alias: the records (indices into
  /// records_) whose chain holds a hole for it.
  std::vector<std::vector<size_t>> attr_records_;
  /// Per required head attribute: the source attributes (indices into
  /// attr_records_) whose holes may carry it.
  std::vector<std::vector<size_t>> required_;
};

/// Generates the rule sketch for top-level target record `target_record`
/// (the paper's GenRuleSketch). `output_value_sets` supplies candidate
/// constants per target attribute for the filtering extension (pass the
/// result of AttributeValueSets on the example output; ignored unless
/// filtering is enabled). `shape` caps the chain copies per leaf record;
/// null builds the full sketch.
Result<RuleSketch> GenRuleSketch(
    const AttributeMapping& psi, const Schema& source, const Schema& target,
    const std::string& target_record,
    const std::map<std::string, std::set<Value>>& output_value_sets,
    const SketchGenOptions& options = SketchGenOptions(),
    const SketchShape* shape = nullptr);

/// Generates one sketch per top-level target record (SketchGen), each at
/// the record's first shape in search order.
Result<std::vector<RuleSketch>> SketchGen(
    const AttributeMapping& psi, const Schema& source, const Schema& target,
    const std::map<std::string, std::set<Value>>& output_value_sets,
    const SketchGenOptions& options = SketchGenOptions());

}  // namespace dynamite

#endif  // DYNAMITE_SYNTH_SKETCH_GEN_H_
