#include "core/feature.h"

#include <algorithm>

#include "similarity/similarity.h"
#include "similarity/value.h"

namespace alex::core {

namespace {

/// Reduces the similarity matrix between `la` and `ra` to a feature set
/// (Section 4.1): per left attribute if the left entity has more
/// attributes, else per right attribute, keeping the best-matching
/// opposite attribute and dropping maxima below `theta`. `score_cell(li,
/// rj)` scores one cell; `raw` is scratch, overwritten. Appends the feature
/// set to `out` and returns its size.
template <typename ScoreCell>
size_t ReduceSimilarityMatrix(const std::vector<rdf::Attribute>& la,
                              const std::vector<rdf::Attribute>& ra,
                              double theta, ScoreCell score_cell,
                              FeatureSet* raw, FeatureSet* out) {
  raw->clear();
  const bool reduce_rows = la.size() >= ra.size();
  const size_t outer = reduce_rows ? la.size() : ra.size();
  const size_t inner = reduce_rows ? ra.size() : la.size();
  for (size_t i = 0; i < outer; ++i) {
    double best = 0.0;
    size_t best_j = 0;
    for (size_t j = 0; j < inner; ++j) {
      const size_t li = reduce_rows ? i : j;
      const size_t rj = reduce_rows ? j : i;
      const double cell = score_cell(li, rj);
      if (cell > best) {
        best = cell;
        best_j = j;
      }
    }
    if (best < theta) continue;
    const size_t li = reduce_rows ? i : best_j;
    const size_t rj = reduce_rows ? best_j : i;
    raw->push_back(FeatureValue{
        MakeFeatureKey(la[li].predicate, ra[rj].predicate), best});
  }

  // Deduplicate by feature key, keeping the maximum score (an entity can
  // carry several values for the same predicate).
  std::sort(raw->begin(), raw->end(), [](const FeatureValue& a,
                                         const FeatureValue& b) {
    return a.key != b.key ? a.key < b.key : a.score > b.score;
  });
  const size_t before = out->size();
  for (const FeatureValue& f : *raw) {
    if (out->size() == before || out->back().key != f.key) out->push_back(f);
  }
  return out->size() - before;
}

std::vector<sim::TypedValue> ParseValues(
    const rdf::Dataset& ds, const std::vector<rdf::Attribute>& as) {
  std::vector<sim::TypedValue> values;
  values.reserve(as.size());
  for (const rdf::Attribute& a : as) {
    values.push_back(sim::ParseValue(ds.dict().term(a.object)));
  }
  return values;
}

}  // namespace

FeatureSet ComputeFeatureSet(const rdf::Dataset& left, rdf::EntityId left_e,
                             const rdf::Dataset& right, rdf::EntityId right_e,
                             double theta) {
  const auto& la = left.attributes(left_e);
  const auto& ra = right.attributes(right_e);
  if (la.empty() || ra.empty()) return {};
  const std::vector<sim::TypedValue> lv = ParseValues(left, la);
  const std::vector<sim::TypedValue> rv = ParseValues(right, ra);
  FeatureSet raw, out;
  ReduceSimilarityMatrix(
      la, ra, theta,
      [&](size_t li, size_t rj) { return sim::ValueSimilarity(lv[li], rv[rj]); },
      &raw, &out);
  return out;
}

size_t AppendFeatureSet(const rdf::Dataset& left, rdf::EntityId left_e,
                        const rdf::Dataset& right, rdf::EntityId right_e,
                        double theta, const ValueCache& left_values,
                        const ValueCache& right_values,
                        FeatureScratch* scratch, FeatureSet* out) {
  const auto& la = left.attributes(left_e);
  const auto& ra = right.attributes(right_e);
  if (la.empty() || ra.empty()) return 0;
  return ReduceSimilarityMatrix(
      la, ra, theta,
      [&](size_t li, size_t rj) {
        return sim::ValueSimilarity(
            left_values.table(), left_values.row(la[li].object),
            right_values.table(), right_values.row(ra[rj].object), theta,
            &scratch->cells);
      },
      &scratch->raw, out);
}

std::string FeatureName(const rdf::Dataset& left, const rdf::Dataset& right,
                        FeatureKey key) {
  const std::string_view lp =
      sim::IriLocalName(left.dict().term(FeatureLeftPred(key)).value);
  const std::string_view rp =
      sim::IriLocalName(right.dict().term(FeatureRightPred(key)).value);
  return "(" + std::string(lp) + ", " + std::string(rp) + ")";
}

}  // namespace alex::core
