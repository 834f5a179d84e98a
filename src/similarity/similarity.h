#ifndef ALEX_SIMILARITY_SIMILARITY_H_
#define ALEX_SIMILARITY_SIMILARITY_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

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

/// Parsed attribute values in columns, as the link-space build scores
/// them: per row the value's kind and number, its lowercase text, its
/// sorted trigram multiset, its sorted distinct word tokens and its
/// TermSketch. Texts, trigrams and tokens are pooled across rows. Rows are
/// appended by Add and read-only afterwards, so a finished table is safe to
/// share across threads.
class ValueTable {
 public:
  /// Row count and character and trigram pool sizes for a run of Add
  /// calls, summed by Count over the text of each value to be added.
  struct Capacity {
    size_t rows = 0;
    size_t chars = 0;
    size_t grams = 0;

    /// Counts one row whose value has TypedValue::text `text`.
    void Count(std::string_view text);
  };

  /// Sizes the per-row columns and the character and trigram pools for
  /// `capacity`, so each is allocated once. The token pools still grow as
  /// rows are added: their sizes are known only after tokenizing and
  /// deduplicating, and reserving an upper bound raised peak RSS on
  /// `serve_nytimes`.
  void Reserve(const Capacity& capacity);

  /// Appends `v` and returns its row. Views from earlier calls (lower,
  /// trigrams, token) stay valid only until the next Add.
  uint32_t Add(const TypedValue& v);

  size_t size() const { return kinds_.size(); }
  ValueKind kind(uint32_t row) const { return kinds_[row]; }
  /// The number of a kInteger or kDouble row.
  double real(uint32_t row) const { return reals_[row]; }
  /// The days of a kDate row.
  int32_t date_days(uint32_t row) const { return dates_[row]; }
  /// ToLowerAscii of the row's text.
  std::string_view lower(uint32_t row) const {
    return std::string_view(chars_).substr(
        char_begin_[row], char_begin_[row + 1] - char_begin_[row]);
  }
  std::span<const uint32_t> trigrams(uint32_t row) const {
    return {grams_.data() + gram_begin_[row],
            grams_.data() + gram_begin_[row + 1]};
  }
  size_t num_tokens(uint32_t row) const {
    return token_begin_[row + 1] - token_begin_[row];
  }
  /// The row's `k`th token in sorted order (WordTokens of `lower(row)`).
  std::string_view token(uint32_t row, size_t k) const {
    const Substr t = tokens_[token_begin_[row] + k];
    return std::string_view(token_chars_).substr(t.begin, t.size);
  }
  const TermSketch& sketch(uint32_t row) const { return sketches_[row]; }

 private:
  /// A token's bytes in token_chars_.
  struct Substr {
    uint32_t begin = 0;
    uint32_t size = 0;
  };

  std::vector<ValueKind> kinds_;
  std::vector<double> reals_;
  std::vector<int32_t> dates_;
  std::string chars_;
  std::vector<uint32_t> char_begin_ = {0};  ///< One per row, plus one.
  std::vector<uint32_t> grams_;
  std::vector<uint32_t> gram_begin_ = {0};  ///< One per row, plus one.
  std::string token_chars_;
  std::vector<Substr> tokens_;
  std::vector<uint32_t> token_begin_ = {0};  ///< One per row, plus one.
  std::vector<TermSketch> sketches_;
};

/// Work done by the table-based ValueSimilarity: cells whose score it
/// computed, and string cells whose sketch bound fell below θ, settled
/// without running the metrics.
struct CellCounts {
  uint64_t scored = 0;
  uint64_t skipped = 0;
};

/// ValueSimilarity of row `i` of `a` and row `j` of `b`, for a similarity
/// matrix that keeps only scores of at least `theta`. The string branch
/// merges the rows' pooled trigrams and tokens (no lowercasing,
/// tokenization or trigram extraction per call), and returns 0.0 without
/// merging when SketchUpperBound of the rows' sketches is below `theta`.
/// Adds the cell to `*cells`. Every cell it scores is bit-identical to the
/// two-argument overload on the rows' values; a skipped cell's exact score
/// is below `theta` too.
double ValueSimilarity(const ValueTable& a, uint32_t i, const ValueTable& b,
                       uint32_t j, double theta, CellCounts* cells);

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
