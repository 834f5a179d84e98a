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

void ValueTable::Capacity::Count(std::string_view text) {
  ++rows;
  // Add pools ToLowerAscii(text), which keeps the length, and its trigrams.
  chars += text.size();
  if (text.size() >= 3) grams += text.size() - 2;
}

void ValueTable::Reserve(const Capacity& capacity) {
  const size_t rows = capacity.rows;
  kinds_.reserve(rows);
  reals_.reserve(rows);
  dates_.reserve(rows);
  chars_.reserve(capacity.chars);
  char_begin_.reserve(rows + 1);
  grams_.reserve(capacity.grams);
  gram_begin_.reserve(rows + 1);
  token_begin_.reserve(rows + 1);
  sketches_.reserve(rows);
}

uint32_t ValueTable::Add(const TypedValue& v) {
  const uint32_t row = static_cast<uint32_t>(size());
  kinds_.push_back(v.kind);
  reals_.push_back(v.real);
  dates_.push_back(v.date_days);
  const std::string lower = ToLowerAscii(v.text);
  chars_ += lower;
  char_begin_.push_back(static_cast<uint32_t>(chars_.size()));

  std::vector<uint32_t> grams = Trigrams(lower);
  std::sort(grams.begin(), grams.end());
  grams_.insert(grams_.end(), grams.begin(), grams.end());
  gram_begin_.push_back(static_cast<uint32_t>(grams_.size()));

  std::vector<std::string> tokens = WordTokens(lower);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  for (const std::string& t : tokens) {
    tokens_.push_back(Substr{static_cast<uint32_t>(token_chars_.size()),
                             static_cast<uint32_t>(t.size())});
    token_chars_ += t;
  }
  token_begin_.push_back(static_cast<uint32_t>(tokens_.size()));

  sketches_.push_back(MakeTermSketch(grams, tokens));
  return row;
}

namespace {

/// Multiset intersection size of two sorted trigram arrays.
size_t GramIntersection(std::span<const uint32_t> a,
                        std::span<const uint32_t> b) {
  size_t inter = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++inter;
      ++ia;
      ++ib;
    }
  }
  return inter;
}

/// Intersection size of two rows' sorted distinct tokens.
size_t TokenIntersection(const ValueTable& a, uint32_t i, const ValueTable& b,
                         uint32_t j) {
  const size_t na = a.num_tokens(i);
  const size_t nb = b.num_tokens(j);
  size_t inter = 0;
  size_t ka = 0;
  size_t kb = 0;
  while (ka < na && kb < nb) {
    const int cmp = a.token(i, ka).compare(b.token(j, kb));
    if (cmp < 0) {
      ++ka;
    } else if (cmp > 0) {
      ++kb;
    } else {
      ++inter;
      ++ka;
      ++kb;
    }
  }
  return inter;
}

}  // namespace

double ValueSimilarity(const ValueTable& a, uint32_t i, const ValueTable& b,
                       uint32_t j, double theta, CellCounts* cells) {
  const ValueKind ka = a.kind(i);
  const ValueKind kb = b.kind(j);
  if (IsNumeric(ka) && IsNumeric(kb)) {
    ++cells->scored;
    return NumericSimilarity(a.real(i), b.real(j));
  }
  if (ka == ValueKind::kDate && kb == ValueKind::kDate) {
    ++cells->scored;
    return DateSimilarity(a.date_days(i), b.date_days(j));
  }
  if (SketchUpperBound(a.sketch(i), b.sketch(j)) < theta) {
    ++cells->skipped;
    return 0.0;
  }
  ++cells->scored;
  // StringSimilarity on the pooled lowercase forms: the merges count the
  // same intersections as the hash-based metrics, and the final arithmetic
  // is theirs.
  const std::string_view la = a.lower(i);
  const std::string_view lb = b.lower(j);
  if (la == lb) return 1.0;
  double dice = 0.0;  // TrigramDiceSimilarity: unequal short strings score 0.
  if (la.size() >= 3 && lb.size() >= 3) {
    const std::span<const uint32_t> ga = a.trigrams(i);
    const std::span<const uint32_t> gb = b.trigrams(j);
    dice = 2.0 * static_cast<double>(GramIntersection(ga, gb)) /
           static_cast<double>(ga.size() + gb.size());
  }
  const size_t ta = a.num_tokens(i);
  const size_t tb = b.num_tokens(j);
  double jaccard = 0.0;  // TokenJaccardSimilarity.
  if (ta == 0 && tb == 0) {
    jaccard = 1.0;
  } else if (ta != 0 && tb != 0) {
    const size_t inter = TokenIntersection(a, i, b, j);
    jaccard = static_cast<double>(inter) / static_cast<double>(ta + tb - inter);
  }
  return std::max(dice, jaccard);
}

double TermSimilarity(const rdf::Term& a, const rdf::Term& b) {
  return ValueSimilarity(ParseValue(a), ParseValue(b));
}

}  // namespace alex::sim
