#ifndef ALEX_SIMILARITY_STRING_METRICS_H_
#define ALEX_SIMILARITY_STRING_METRICS_H_

#include <array>
#include <cstdint>
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

/// Precomputed derived forms of one string, so repeated comparisons stop
/// re-lowercasing, re-tokenizing, and re-extracting trigrams per call —
/// those allocations dominate the cost of TokenJaccardSimilarity /
/// TrigramDiceSimilarity when the same value is compared many times (as in
/// link-space construction, where each attribute value meets every blocked
/// counterpart).
struct StringProfile {
  std::string lower;                // ToLowerAscii of the original string.
  std::vector<std::string> tokens;  // Sorted, deduplicated WordTokens(lower).
  std::vector<uint32_t> trigrams;   // Sorted trigram multiset of `lower`.
  /// One bit per trigram (a fixed hash to 0..127) and one bit per token (a
  /// fixed hash to 0..63): two profiles whose masks do not intersect share
  /// no trigram and no token. The hashes are platform-independent.
  std::array<uint64_t, 2> gram_mask = {0, 0};
  uint64_t token_mask = 0;
};

/// Builds the profile of `s` (lowercasing it first, matching the
/// StringSimilarity(string_view, string_view) pipeline).
StringProfile MakeStringProfile(std::string_view s);

/// Profile-based variants. Each returns bit-identical doubles to its
/// string_view counterpart applied to the profiles' `lower` strings: the
/// set/multiset intersection sizes are computed by two-pointer merges over
/// the sorted profile arrays, which yield the same integer counts as the
/// hash-based originals, and the final arithmetic is unchanged.
double TokenJaccardSimilarity(const StringProfile& a, const StringProfile& b);
double TrigramDiceSimilarity(const StringProfile& a, const StringProfile& b);

/// True when the masks prove that `a` and `b` share no trigram and no
/// token, and both strings have at least 3 characters and at least one
/// token. Both profile metrics then score exactly 0.0: trigram Dice is
/// 0 / (|a| + |b|) and token Jaccard is 0 / |a ∪ b|. Never true for a pair
/// that shares a trigram or a token; a mask collision only makes it false
/// for a pair that shares neither.
inline bool ProfilesDisjoint(const StringProfile& a, const StringProfile& b) {
  return a.lower.size() >= 3 && b.lower.size() >= 3 && !a.tokens.empty() &&
         !b.tokens.empty() && (a.token_mask & b.token_mask) == 0 &&
         (a.gram_mask[0] & b.gram_mask[0]) == 0 &&
         (a.gram_mask[1] & b.gram_mask[1]) == 0;
}

}  // namespace alex::sim

#endif  // ALEX_SIMILARITY_STRING_METRICS_H_
