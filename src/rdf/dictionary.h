#ifndef ALEX_RDF_DICTIONARY_H_
#define ALEX_RDF_DICTIONARY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "rdf/term.h"

namespace alex::rdf {

/// Dense identifier assigned to each distinct Term in a Dictionary.
using TermId = uint32_t;

inline constexpr TermId kInvalidTermId = UINT32_MAX;

/// Bidirectional Term <-> TermId mapping (dictionary encoding).
///
/// TermIds are dense and start at 0, so they index directly into arrays.
/// Each term is stored once: the lookup index holds TermIds hashed/compared
/// through the term vector (heterogeneous lookup), not a second copy of
/// every term. Not thread-safe for concurrent mutation; concurrent lookups
/// are safe once loading is complete.
class Dictionary {
 public:
  Dictionary();
  Dictionary(const Dictionary& other);
  Dictionary& operator=(const Dictionary& other);
  // Moving the unique_ptr keeps the term vector's address stable, so the
  // index functors' pointer stays valid.
  Dictionary(Dictionary&&) noexcept = default;
  Dictionary& operator=(Dictionary&&) noexcept = default;

  /// Returns the id for `term`, interning it if new.
  TermId Intern(const Term& term);

  /// Returns the id for `term` if already interned.
  std::optional<TermId> Lookup(const Term& term) const;

  /// Convenience: intern an IRI / plain literal by string.
  TermId InternIri(std::string iri) { return Intern(Term::Iri(std::move(iri))); }
  TermId InternLiteral(std::string lex) {
    return Intern(Term::Literal(std::move(lex)));
  }

  /// Returns the term for a valid id. Id must be < size().
  const Term& term(TermId id) const { return (*terms_)[id]; }

  size_t size() const { return terms_->size(); }

  /// Approximate resident bytes (terms, their strings, and the id index).
  size_t ApproxMemoryBytes() const;

 private:
  struct IdHash {
    using is_transparent = void;
    const std::vector<Term>* terms = nullptr;
    size_t operator()(TermId id) const { return TermHash{}((*terms)[id]); }
    size_t operator()(const Term& t) const { return TermHash{}(t); }
  };
  struct IdEq {
    using is_transparent = void;
    const std::vector<Term>* terms = nullptr;
    bool operator()(TermId a, TermId b) const {
      return a == b || (*terms)[a] == (*terms)[b];
    }
    bool operator()(TermId a, const Term& t) const { return (*terms)[a] == t; }
    bool operator()(const Term& t, TermId a) const { return (*terms)[a] == t; }
  };

  /// Behind a unique_ptr so the functors' pointer survives moves.
  std::unique_ptr<std::vector<Term>> terms_;
  std::unordered_set<TermId, IdHash, IdEq> index_;
};

}  // namespace alex::rdf

#endif  // ALEX_RDF_DICTIONARY_H_
