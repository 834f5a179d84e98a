#ifndef ALEX_SIMILARITY_VALUE_H_
#define ALEX_SIMILARITY_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "rdf/term.h"

namespace alex::sim {

/// Value categories recognized by the generic similarity function
/// (paper Section 4.1: "string, integer, float, date, etc.").
enum class ValueKind : uint8_t { kString = 0, kInteger, kDouble, kDate };

inline bool IsNumeric(ValueKind kind) {
  return kind == ValueKind::kInteger || kind == ValueKind::kDouble;
}

/// A parsed, typed attribute value.
///
/// Parsing prefers the literal's XSD datatype when present and falls back to
/// sniffing the lexical form (all-digits -> integer, decimal -> double,
/// YYYY-MM-DD -> date). IRI objects are valued by their local name so that
/// resource-valued attributes still contribute string evidence.
struct TypedValue {
  ValueKind kind = ValueKind::kString;
  std::string text;      // Original (or derived) lexical form.
  int64_t integer = 0;   // Valid when kind == kInteger.
  double real = 0.0;     // Valid when kind == kDouble or kInteger.
  int32_t date_days = 0; // Days since 1970-01-01 when kind == kDate.

  bool is_numeric() const { return IsNumeric(kind); }
};

/// Parses an RDF term into a typed value (never fails; worst case kString).
TypedValue ParseValue(const rdf::Term& term);

/// The `text` ParseValue gives `term`: an IRI's local name, otherwise the
/// term's lexical form.
std::string_view ValueText(const rdf::Term& term);

/// Returns the fragment / last path segment of an IRI
/// ("http://x/Lebron_James" -> "Lebron_James").
std::string_view IriLocalName(std::string_view iri);

/// Days since 1970-01-01 for a proleptic Gregorian date (civil calendar).
int32_t DaysFromCivil(int year, int month, int day);

/// Attempts to parse "YYYY-MM-DD"; returns false if malformed.
bool ParseIsoDate(std::string_view s, int32_t* days_out);

}  // namespace alex::sim

#endif  // ALEX_SIMILARITY_VALUE_H_
