#ifndef ALEX_CORE_FEATURE_H_
#define ALEX_CORE_FEATURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/blocking.h"
#include "rdf/dataset.h"
#include "similarity/similarity.h"

namespace alex::core {

/// Identifies one feature: a (left predicate, right predicate) pair, packed
/// as left TermId in the high 32 bits and right TermId in the low 32 bits.
/// In the paper (Section 4.1) a feature is an attribute pair whose value is
/// the similarity score of the two attributes' objects.
using FeatureKey = uint64_t;

inline FeatureKey MakeFeatureKey(rdf::TermId left_pred, rdf::TermId right_pred) {
  return (static_cast<uint64_t>(left_pred) << 32) |
         static_cast<uint64_t>(right_pred);
}
inline rdf::TermId FeatureLeftPred(FeatureKey key) {
  return static_cast<rdf::TermId>(key >> 32);
}
inline rdf::TermId FeatureRightPred(FeatureKey key) {
  return static_cast<rdf::TermId>(key & 0xffffffffULL);
}

/// One feature of a state feature set: the attribute pair and its score.
struct FeatureValue {
  FeatureKey key = 0;
  double score = 0.0;
};

/// The state feature set `sf` of a link (Section 4.1): the θ-filtered
/// similarity matrix between the two entities' attributes, reduced to the
/// per-row maxima if the left entity has more attributes (or per-column
/// maxima otherwise). Sorted by key; one entry per distinct attribute pair.
using FeatureSet = std::vector<FeatureValue>;

/// Reusable buffer for AppendFeatureSet. A link-space build scores
/// hundreds of thousands of candidate pairs; without a scratch every call
/// allocates its raw-feature vector anew. One scratch per (single-threaded)
/// build loop; `raw` is overwritten per call, `cells` accumulates the
/// similarity-matrix cells of every call.
struct FeatureScratch {
  FeatureSet raw;
  sim::CellCounts cells;
};

/// Computes the state feature set for the entity pair (left_e, right_e).
///
/// Scores below `theta` are discarded (Section 6.1). An empty result means
/// the pair does not belong to the search space.
FeatureSet ComputeFeatureSet(const rdf::Dataset& left, rdf::EntityId left_e,
                             const rdf::Dataset& right, rdf::EntityId right_e,
                             double theta);

/// The link-space build's form of ComputeFeatureSet: appends the same
/// feature set to `out` and returns the number of entries appended (0 when
/// the pair is θ-filtered). Attribute values come from the per-dataset
/// ValueCaches instead of being re-parsed per candidate pair, and every
/// similarity-matrix cell runs the table-based sim::ValueSimilarity with
/// `theta`, counted in `scratch->cells`. That skips string cells whose
/// sketch bound is below θ; the result is still exact, because a cell below
/// θ never changes a kept row's maximum or its first argmax, and a row whose
/// maximum is below θ is dropped either way.
size_t AppendFeatureSet(const rdf::Dataset& left, rdf::EntityId left_e,
                        const rdf::Dataset& right, rdf::EntityId right_e,
                        double theta, const ValueCache& left_values,
                        const ValueCache& right_values,
                        FeatureScratch* scratch, FeatureSet* out);

/// Human-readable feature name, e.g. "(name, label)".
std::string FeatureName(const rdf::Dataset& left, const rdf::Dataset& right,
                        FeatureKey key);

}  // namespace alex::core

#endif  // ALEX_CORE_FEATURE_H_
