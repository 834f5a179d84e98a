#include "rdf/dictionary.h"

namespace alex::rdf {

Dictionary::Dictionary()
    : terms_(std::make_unique<std::vector<Term>>()),
      index_(0, IdHash{terms_.get()}, IdEq{terms_.get()}) {}

Dictionary::Dictionary(const Dictionary& other)
    : terms_(std::make_unique<std::vector<Term>>(*other.terms_)),
      index_(other.index_.begin(), other.index_.end(),
             other.index_.bucket_count(), IdHash{terms_.get()},
             IdEq{terms_.get()}) {}

Dictionary& Dictionary::operator=(const Dictionary& other) {
  if (this == &other) return *this;
  Dictionary copy(other);
  *this = std::move(copy);
  return *this;
}

TermId Dictionary::Intern(const Term& term) {
  auto it = index_.find(term);
  if (it != index_.end()) return *it;
  TermId id = static_cast<TermId>(terms_->size());
  terms_->push_back(term);
  index_.insert(id);
  return id;
}

std::optional<TermId> Dictionary::Lookup(const Term& term) const {
  auto it = index_.find(term);
  if (it == index_.end()) return std::nullopt;
  return *it;
}

size_t Dictionary::ApproxMemoryBytes() const {
  size_t total = sizeof(Dictionary);
  total += terms_->capacity() * sizeof(Term);
  for (const Term& t : *terms_) {
    total += t.value.capacity() + t.datatype.capacity() + t.language.capacity();
  }
  // The id index: its bucket array, and one node per term holding a next
  // pointer, the id and the cached hash.
  total += index_.bucket_count() * sizeof(void*);
  total += index_.size() * (sizeof(void*) + sizeof(TermId) + sizeof(size_t));
  return total;
}

}  // namespace alex::rdf
