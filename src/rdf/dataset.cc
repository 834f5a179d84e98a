#include "rdf/dataset.h"

#include <cassert>

namespace alex::rdf {

void Dataset::AddLiteralTriple(const std::string& subject_iri,
                               const std::string& predicate_iri,
                               const Term& object) {
  store_.Add(dict_.InternIri(subject_iri), dict_.InternIri(predicate_iri),
             dict_.Intern(object));
  entity_index_built_ = false;
}

void Dataset::AddIriTriple(const std::string& subject_iri,
                           const std::string& predicate_iri,
                           const std::string& object_iri) {
  store_.Add(dict_.InternIri(subject_iri), dict_.InternIri(predicate_iri),
             dict_.InternIri(object_iri));
  entity_index_built_ = false;
}

void Dataset::BuildEntityIndex() {
  entity_index_built_ = false;
  EnsureEntityIndex();
}

void Dataset::EnsureEntityIndex() const {
  if (entity_index_built_) return;
  entity_terms_.clear();
  entity_attributes_.clear();
  term_to_entity_.clear();

  for (TermId subject : store_.DistinctSubjects()) {
    if (!dict_.term(subject).is_iri()) continue;
    EntityId e = static_cast<EntityId>(entity_terms_.size());
    entity_terms_.push_back(subject);
    term_to_entity_.emplace(subject, e);
    std::vector<Attribute> attrs;
    store_.ForEachMatch(
        TriplePattern{subject, kInvalidTermId, kInvalidTermId},
        [&attrs](const Triple& t) {
          attrs.push_back(Attribute{t.predicate, t.object});
          return true;
        });
    entity_attributes_.push_back(std::move(attrs));
  }
  entity_index_built_ = true;
}

size_t Dataset::num_entities() const {
  EnsureEntityIndex();
  return entity_terms_.size();
}

TermId Dataset::entity_term(EntityId e) const {
  EnsureEntityIndex();
  assert(e < entity_terms_.size());
  return entity_terms_[e];
}

const std::string& Dataset::entity_iri(EntityId e) const {
  return dict_.term(entity_term(e)).value;
}

std::optional<EntityId> Dataset::FindEntity(TermId subject) const {
  EnsureEntityIndex();
  auto it = term_to_entity_.find(subject);
  if (it == term_to_entity_.end()) return std::nullopt;
  return it->second;
}

std::optional<EntityId> Dataset::FindEntityByIri(const std::string& iri) const {
  auto id = dict_.Lookup(Term::Iri(iri));
  if (!id) return std::nullopt;
  return FindEntity(*id);
}

const std::vector<Attribute>& Dataset::attributes(EntityId e) const {
  EnsureEntityIndex();
  assert(e < entity_attributes_.size());
  return entity_attributes_[e];
}

}  // namespace alex::rdf
