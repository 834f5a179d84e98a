#include "similarity/similarity.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/string_util.h"
#include "similarity/string_metrics.h"

namespace alex::sim {

double NumericSimilarity(double a, double b) {
  if (a == b) return 1.0;
  const double denom = std::max({std::fabs(a), std::fabs(b), 1.0});
  const double rel = std::fabs(a - b) / denom;
  return std::max(0.0, 1.0 - 20.0 * rel);
}

double DateSimilarity(int32_t days_a, int32_t days_b) {
  constexpr double kHorizonDays = 547.0;  // Eighteen months.
  const double diff = std::fabs(static_cast<double>(days_a) -
                                static_cast<double>(days_b));
  return std::max(0.0, 1.0 - diff / kHorizonDays);
}

double StringSimilarity(std::string_view a, std::string_view b) {
  const std::string la = ToLowerAscii(a);
  const std::string lb = ToLowerAscii(b);
  if (la == lb) return 1.0;
  return std::max(TrigramDiceSimilarity(la, lb),
                  TokenJaccardSimilarity(la, lb));
}

double ValueSimilarity(const TypedValue& a, const TypedValue& b) {
  if (a.is_numeric() && b.is_numeric()) {
    return NumericSimilarity(a.real, b.real);
  }
  if (a.kind == ValueKind::kDate && b.kind == ValueKind::kDate) {
    return DateSimilarity(a.date_days, b.date_days);
  }
  return StringSimilarity(a.text, b.text);
}

double ValueSimilarity(const TypedValue& a, const TypedValue& b,
                       const StringProfile& pa, const StringProfile& pb,
                       CellCounts* cells) {
  if (a.is_numeric() && b.is_numeric()) {
    ++cells->scored;
    return NumericSimilarity(a.real, b.real);
  }
  if (a.kind == ValueKind::kDate && b.kind == ValueKind::kDate) {
    ++cells->scored;
    return DateSimilarity(a.date_days, b.date_days);
  }
  // Exact: equal strings of 3+ characters share every trigram, so the 1.0
  // case below is never skipped, and max(0/n, 0/u) is +0.0.
  if (ProfilesDisjoint(pa, pb)) {
    ++cells->skipped;
    return 0.0;
  }
  ++cells->scored;
  // StringSimilarity on the precomputed lowercase forms.
  if (pa.lower == pb.lower) return 1.0;
  return std::max(TrigramDiceSimilarity(pa, pb),
                  TokenJaccardSimilarity(pa, pb));
}

double TermSimilarity(const rdf::Term& a, const rdf::Term& b) {
  return ValueSimilarity(ParseValue(a), ParseValue(b));
}

}  // namespace alex::sim
