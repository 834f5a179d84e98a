#ifndef ALEX_SIMILARITY_SIMILARITY_H_
#define ALEX_SIMILARITY_SIMILARITY_H_

#include "rdf/term.h"
#include "similarity/string_metrics.h"
#include "similarity/value.h"

namespace alex::sim {

/// The generic similarity function of paper Section 4.1: returns a score in
/// [0, 1] between two attribute values, dispatching on their detected types.
///
/// - numeric vs numeric: relative-difference proximity;
/// - date vs date: day-distance proximity with a ten-year horizon;
/// - anything else (or mixed types): string similarity over the lowercase
///   lexical forms, taking the max of Jaro-Winkler and token-Jaccard so both
///   typo-level noise ("Jon" / "John") and token reordering
///   ("LeBron James" / "James, LeBron") score high.
///
/// Symmetric and deterministic.
double ValueSimilarity(const TypedValue& a, const TypedValue& b);

/// Work done by the profiled ValueSimilarity: cells whose score it
/// computed, and string cells that ProfilesDisjoint settled at 0.0 without
/// running the metrics.
struct CellCounts {
  uint64_t scored = 0;
  uint64_t skipped = 0;
};

/// Profile-accelerated variant: `pa`/`pb` must be the StringProfiles of
/// `a.text`/`b.text`. The string branch runs on the precomputed profiles
/// (no lowercasing/tokenization/trigram extraction per call) and returns
/// 0.0 without merging them when ProfilesDisjoint(pa, pb). Adds the cell to
/// `*cells`. Returns bit-identical doubles to the two-argument overload.
double ValueSimilarity(const TypedValue& a, const TypedValue& b,
                       const StringProfile& pa, const StringProfile& pb,
                       CellCounts* cells);

/// Parses both terms and delegates to ValueSimilarity.
double TermSimilarity(const rdf::Term& a, const rdf::Term& b);

/// String-only similarity used for value comparison and by the PARIS
/// substrate: max(token Jaccard, trigram Dice) over lowercased inputs.
///
/// Deliberately *sharp*: unrelated strings score near 0 (unlike
/// Jaro-Winkler, which floors around 0.4-0.5 for random strings), so the
/// paper's θ = 0.3 search-space filter (Section 6.1) removes ~95% of random
/// pairs as reported in Figure 5, while typo-level noise (high trigram
/// overlap) and token reordering (full Jaccard) still score high.
double StringSimilarity(std::string_view a, std::string_view b);

/// Numeric proximity: 1 when equal, decaying steeply (slope 20 on relative
/// difference) so only near-equal numbers pass the θ filter.
double NumericSimilarity(double a, double b);

/// Date proximity: 1 when equal, linearly decaying to 0 at eighteen months apart.
double DateSimilarity(int32_t days_a, int32_t days_b);

}  // namespace alex::sim

#endif  // ALEX_SIMILARITY_SIMILARITY_H_
