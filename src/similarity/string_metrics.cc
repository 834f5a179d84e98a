#include "similarity/string_metrics.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/string_util.h"

namespace alex::sim {

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  std::vector<size_t> prev(n + 1);
  std::vector<size_t> cur(n + 1);
  for (size_t i = 0; i <= n; ++i) prev[i] = i;
  for (size_t j = 1; j <= m; ++j) {
    cur[0] = j;
    for (size_t i = 1; i <= n; ++i) {
      size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[n];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(longest);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t window =
      std::max<size_t>(1, std::max(n, m) / 2) - (std::max(n, m) >= 2 ? 1 : 0);
  std::vector<bool> a_matched(n, false);
  std::vector<bool> b_matched(m, false);
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(m, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (b_matched[j] || a[i] != b[j]) continue;
      a_matched[i] = true;
      b_matched[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  size_t transpositions = 0;
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[k]) ++k;
    if (a[i] != b[k]) ++transpositions;
    ++k;
  }
  const double mf = static_cast<double>(matches);
  return (mf / n + mf / m + (mf - transpositions / 2.0) / mf) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  const size_t max_prefix = std::min<size_t>({4, a.size(), b.size()});
  while (prefix < max_prefix && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
}

double TokenJaccardSimilarity(std::string_view a, std::string_view b) {
  std::vector<std::string> ta = WordTokens(a);
  std::vector<std::string> tb = WordTokens(b);
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;
  std::unordered_set<std::string> sa(ta.begin(), ta.end());
  std::unordered_set<std::string> sb(tb.begin(), tb.end());
  size_t inter = 0;
  for (const auto& t : sa) {
    if (sb.count(t)) ++inter;
  }
  const size_t uni = sa.size() + sb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

std::vector<uint32_t> Trigrams(std::string_view s) {
  std::vector<uint32_t> grams;
  if (s.size() < 3) return grams;
  grams.reserve(s.size() - 2);
  for (size_t i = 0; i + 3 <= s.size(); ++i) {
    grams.push_back(static_cast<uint32_t>(static_cast<unsigned char>(s[i]))
                        << 16 |
                    static_cast<uint32_t>(static_cast<unsigned char>(s[i + 1]))
                        << 8 |
                    static_cast<uint32_t>(static_cast<unsigned char>(s[i + 2])));
  }
  return grams;
}

double TrigramDiceSimilarity(std::string_view a, std::string_view b) {
  if (a.size() < 3 || b.size() < 3) return a == b ? 1.0 : 0.0;
  std::vector<uint32_t> ga = Trigrams(a);
  std::vector<uint32_t> gb = Trigrams(b);
  std::unordered_map<uint32_t, size_t> counts;
  for (uint32_t g : ga) ++counts[g];
  size_t inter = 0;
  for (uint32_t g : gb) {
    auto it = counts.find(g);
    if (it != counts.end() && it->second > 0) {
      --it->second;
      ++inter;
    }
  }
  return 2.0 * static_cast<double>(inter) /
         static_cast<double>(ga.size() + gb.size());
}

namespace {

/// Adds one to a sketch bucket; false once it passes 31.
bool Bump(uint8_t* bucket) {
  return ++*bucket <= 31;
}

/// Sum over buckets of the smaller count. A plain loop the compiler
/// vectorizes: byte lane k adds the N / 16 buckets k, k + 16, ..., which
/// stays within a byte for buckets of at most 31.
template <size_t N>
uint32_t MinSum(const std::array<uint8_t, N>& a,
                const std::array<uint8_t, N>& b) {
  static_assert(N % 16 == 0 && N / 16 * 31 <= 255);
  std::array<uint8_t, 16> lanes = {};
  for (size_t i = 0; i < N; i += 16) {
    for (size_t k = 0; k < 16; ++k) {
      lanes[k] =
          static_cast<uint8_t>(lanes[k] + std::min(a[i + k], b[i + k]));
    }
  }
  uint32_t sum = 0;
  for (uint8_t lane : lanes) sum += lane;
  return sum;
}

}  // namespace

TermSketch MakeTermSketch(std::span<const uint32_t> trigrams,
                          std::span<const std::string> tokens) {
  TermSketch s;
  s.num_grams = static_cast<uint32_t>(trigrams.size());
  s.num_tokens = static_cast<uint32_t>(tokens.size());
  bool fits = true;
  // Fibonacci hashing: the top 7 bits of the 24-bit gram times 2^32/phi.
  for (uint32_t g : trigrams) {
    fits &= Bump(&s.grams[(g * 0x9E3779B1u) >> 25]);
  }
  // FNV-1a, then the top 5 bits of its product with 2^64/phi.
  for (const std::string& token : tokens) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : token) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    fits &= Bump(&s.tokens[(h * 0x9E3779B97F4A7C15ULL) >> 59]);
  }
  s.prunable = fits && !trigrams.empty() && !tokens.empty();
  return s;
}

double SketchUpperBound(const TermSketch& a, const TermSketch& b) {
  if (!a.prunable || !b.prunable) return 1.0;
  // gi >= |grams(a) ∩ grams(b)| and min(ta, tb) >= ti >= |tokens(a) ∩
  // tokens(b)|: larger numerators over the metrics' denominators (Jaccard's
  // shrinks as ti grows), so each quotient bounds its metric.
  const size_t gi = MinSum(a.grams, b.grams);
  const size_t ti = MinSum(a.tokens, b.tokens);
  const double dice =
      2.0 * static_cast<double>(gi) /
      static_cast<double>(size_t{a.num_grams} + size_t{b.num_grams});
  const double jaccard =
      static_cast<double>(ti) /
      static_cast<double>(size_t{a.num_tokens} + size_t{b.num_tokens} - ti);
  return std::max(dice, jaccard);
}

}  // namespace alex::sim
