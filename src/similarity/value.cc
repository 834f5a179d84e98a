#include "similarity/value.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace alex::sim {
namespace {

bool AllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool LooksLikeInteger(std::string_view s) {
  if (!s.empty() && (s[0] == '-' || s[0] == '+')) s.remove_prefix(1);
  return AllDigits(s) && s.size() <= 18;
}

bool LooksLikeDouble(std::string_view s) {
  if (s.empty()) return false;
  size_t i = 0;
  if (s[i] == '-' || s[i] == '+') ++i;
  bool digits = false;
  bool dot = false;
  for (; i < s.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(s[i]))) {
      digits = true;
    } else if (s[i] == '.' && !dot) {
      dot = true;
    } else {
      return false;
    }
  }
  return digits && dot;
}

bool ParseInt(std::string_view s, int64_t* out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool ParseDouble(std::string_view s, double* out) {
  // std::from_chars for double is not universally available; use strtod.
  std::string buf(s);
  char* end = nullptr;
  *out = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size() && !buf.empty();
}

}  // namespace

std::string_view IriLocalName(std::string_view iri) {
  size_t hash = iri.rfind('#');
  if (hash != std::string_view::npos && hash + 1 < iri.size()) {
    return iri.substr(hash + 1);
  }
  size_t slash = iri.rfind('/');
  if (slash != std::string_view::npos && slash + 1 < iri.size()) {
    return iri.substr(slash + 1);
  }
  return iri;
}

int32_t DaysFromCivil(int year, int month, int day) {
  // Howard Hinnant's civil-days algorithm.
  year -= month <= 2;
  const int era = (year >= 0 ? year : year - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(year - era * 400);
  const unsigned doy =
      (153u * static_cast<unsigned>(month + (month > 2 ? -3 : 9)) + 2) / 5 +
      static_cast<unsigned>(day) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int32_t>(doe) - 719468;
}

bool ParseIsoDate(std::string_view s, int32_t* days_out) {
  // Strict YYYY-MM-DD.
  if (s.size() != 10 || s[4] != '-' || s[7] != '-') return false;
  int64_t y = 0, m = 0, d = 0;
  if (!ParseInt(s.substr(0, 4), &y) || !ParseInt(s.substr(5, 2), &m) ||
      !ParseInt(s.substr(8, 2), &d)) {
    return false;
  }
  if (m < 1 || m > 12 || d < 1 || d > 31) return false;
  *days_out = DaysFromCivil(static_cast<int>(y), static_cast<int>(m),
                            static_cast<int>(d));
  return true;
}

std::string_view ValueText(const rdf::Term& term) {
  return term.is_iri() ? IriLocalName(term.value) : term.value;
}

TypedValue ParseValue(const rdf::Term& term) {
  TypedValue v;
  v.text = std::string(ValueText(term));
  if (term.is_iri() || term.is_blank()) {
    v.kind = ValueKind::kString;
    return v;
  }
  const std::string& dt = term.datatype;
  if (dt == rdf::kXsdInteger || (dt.empty() && LooksLikeInteger(v.text))) {
    if (ParseInt(v.text, &v.integer)) {
      v.kind = ValueKind::kInteger;
      v.real = static_cast<double>(v.integer);
      return v;
    }
  }
  if (dt == rdf::kXsdDouble || (dt.empty() && LooksLikeDouble(v.text))) {
    if (ParseDouble(v.text, &v.real)) {
      v.kind = ValueKind::kDouble;
      return v;
    }
  }
  if (dt == rdf::kXsdDate || dt.empty()) {
    int32_t days = 0;
    if (ParseIsoDate(v.text, &days)) {
      v.kind = ValueKind::kDate;
      v.date_days = days;
      return v;
    }
  }
  v.kind = ValueKind::kString;
  return v;
}

}  // namespace alex::sim
