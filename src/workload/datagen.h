// Helpers for deterministic synthetic data generation (the Table 1 dataset
// substitutes). The repository ships no copy of the paper's datasets; what
// synthesis and migration depend on is the schema shape and the value
// containment between attributes, which the generators reproduce.

#ifndef DYNAMITE_WORKLOAD_DATAGEN_H_
#define DYNAMITE_WORKLOAD_DATAGEN_H_

#include <string>
#include <vector>

#include "instance/record_forest.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "value/value.h"

namespace dynamite {
namespace workload {

/// Builds a flat record.
RecordNode Rec(std::string type, std::vector<std::pair<std::string, Value>> prims);

/// Shorthand value constructors. S routes through TryIntern and carries an
/// id-space overflow (kOutOfRange) out as an exception rather than aborting:
/// the generators build records in plain value-returning code, and the
/// GuardExceptions boundary in GenerateSource converts it back into the
/// typed Status its Result channel promises.
inline Value S(std::string s) {
  Result<Value> v = Value::TryString(s);
  if (!v.ok()) throw failpoint::InjectedError(v.status());
  return std::move(v).ValueOrDie();
}
inline Value I(int64_t v) { return Value::Int(v); }
inline Value F(double v) { return Value::Float(v); }

/// Deterministic distinct string from a named pool ("city_3", "name_17").
/// Using per-attribute pools keeps unrelated attributes' value sets disjoint
/// so attribute-mapping inference sees realistic (sparse) aliasing.
std::string Pooled(const std::string& pool, size_t index);

/// Appends a child record to the first matching children group of `parent`
/// (creating the group if absent).
void AddChild(RecordNode* parent, const std::string& attr, RecordNode child);

/// Zipf(s) distribution over ranks {0..n-1}: P(k) proportional to
/// 1/(k+1)^s. The CDF is precomputed at construction and sampled by binary
/// search, so samples are deterministic functions of the Rng stream — the
/// fuzzer's reproduce-from-seed contract extends to skewed cases. s = 0
/// degenerates to uniform; s around 1 gives the classic heavy head (rank 0
/// drawn for a large constant fraction of samples).
class ZipfDist {
 public:
  ZipfDist(size_t n, double s);
  size_t Sample(Rng* rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  ///< cdf_[k] = P(rank <= k), cdf_.back() == 1
};

/// Column spec for the flat-instance generators below.
struct FlatColumn {
  std::string attr;
  bool is_string = true;
  size_t pool_size = 16;  ///< distinct values the column draws from
};

/// Column specs for an n-column wide table: attributes "w0".."w{n-1}",
/// every third column int, the rest strings, all drawing from pools of
/// `pool_size` values. Wide rows are adversarial for columnar code: every
/// row touches many column vectors, so gather/filter layout bugs that a
/// 3-column table hides surface here.
std::vector<FlatColumn> WideColumns(size_t n, size_t pool_size);

/// Flat instance of `rows` records of `type` whose cell values are drawn
/// rank-wise from per-column Zipf(pool_size, s) distributions: string
/// columns take Pooled(attr, rank), int columns take Int(rank). Skewed
/// pools concentrate most cells on a handful of values — duplicate-heavy
/// rows (dedup stress) and giant hash groups (join-probe posting lists far
/// from uniform), the distributions on which parallel evaluation must stay
/// bit-identical to sequential.
RecordForest ZipfFlatInstance(const std::string& type, const std::vector<FlatColumn>& cols,
                              size_t rows, double s, Rng* rng);

}  // namespace workload
}  // namespace dynamite

#endif  // DYNAMITE_WORKLOAD_DATAGEN_H_
