#ifndef ALEX_SIMILARITY_STRING_METRICS_H_
#define ALEX_SIMILARITY_STRING_METRICS_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace alex::sim {

/// Edit distance (insert/delete/substitute, unit costs).
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// 1 - distance / max(len); 1.0 for two empty strings.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// Jaro similarity in [0, 1].
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler with standard prefix scale 0.1 and max prefix 4.
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// Jaccard overlap of lowercase word-token sets.
double TokenJaccardSimilarity(std::string_view a, std::string_view b);

/// Dice coefficient over character trigram multisets (strings are padded
/// conceptually by using all contiguous 3-grams; shorter strings fall back
/// to whole-string equality).
double TrigramDiceSimilarity(std::string_view a, std::string_view b);

/// Packs each contiguous character trigram of `s` into 24 bits, in order
/// (empty for strings under 3 characters).
std::vector<uint32_t> Trigrams(std::string_view s);

/// Count sketch of one lowercase string: its trigram multiset hashed into
/// 128 buckets and its distinct-token set hashed into 32, one byte per
/// bucket. For two sketches, the sum over buckets of the smaller count is
/// at least the size of the trigram multiset intersection (and likewise of
/// the distinct-token intersection): grams or tokens the strings share fall
/// in the same bucket on both sides. The hashes are fixed, so a sketch is
/// the same on every platform.
struct TermSketch {
  std::array<uint8_t, 128> grams = {};
  std::array<uint8_t, 32> tokens = {};
  uint32_t num_grams = 0;   // Trigram multiset size.
  uint32_t num_tokens = 0;  // Distinct tokens.
  /// False for strings under 3 characters (trigram Dice falls back to
  /// equality), token-less strings (token Jaccard of two empty sets is 1)
  /// and strings with a bucket past 31; SketchUpperBound is then 1.0.
  bool prunable = false;
};

/// Sketch of a lowercase string from its trigram multiset (Trigrams) and
/// its distinct word tokens.
TermSketch MakeTermSketch(std::span<const uint32_t> trigrams,
                          std::span<const std::string> tokens);

/// Upper bound on max(TrigramDiceSimilarity, TokenJaccardSimilarity) of the
/// two sketched strings: the metrics' own double formulas applied to the
/// bucket-wise min-sums, which are at least the exact intersections, so
/// rounding cannot put the bound below either metric. 1.0 unless both
/// sketches are prunable.
double SketchUpperBound(const TermSketch& a, const TermSketch& b);

}  // namespace alex::sim

#endif  // ALEX_SIMILARITY_STRING_METRICS_H_
