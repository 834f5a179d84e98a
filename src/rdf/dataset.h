#ifndef ALEX_RDF_DATASET_H_
#define ALEX_RDF_DATASET_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple_store.h"

namespace alex::rdf {

/// Dense entity identifier, local to one Dataset.
using EntityId = uint32_t;

inline constexpr EntityId kInvalidEntityId = UINT32_MAX;

/// One attribute of an entity: an RDF (predicate, object) pair.
/// In the paper's terminology (Section 4.1), the predicate label is the
/// attribute name and the object is the attribute value.
struct Attribute {
  TermId predicate = kInvalidTermId;
  TermId object = kInvalidTermId;

  friend bool operator==(const Attribute& a, const Attribute& b) {
    return a.predicate == b.predicate && a.object == b.object;
  }
};

/// A named RDF knowledge base: a dictionary, a triple store, and an
/// entity-centric view over it.
///
/// Entities are the distinct IRI subjects of the store. After loading
/// triples, call `BuildEntityIndex()` (or any entity accessor, which builds
/// lazily) to assign dense EntityIds and materialize per-entity attribute
/// lists — the representation ALEX's feature construction consumes.
class Dataset {
 public:
  explicit Dataset(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  Dictionary& dict() { return dict_; }
  const Dictionary& dict() const { return dict_; }

  /// The triples. SPARQL evaluation, federation probes and the entity index
  /// all read through it. Adding through it does not invalidate an entity
  /// index already built; call BuildEntityIndex() afterwards.
  TripleStore& store() { return store_; }
  const TripleStore& store() const { return store_; }

  /// Convenience: intern and add one triple with a literal object.
  void AddLiteralTriple(const std::string& subject_iri,
                        const std::string& predicate_iri, const Term& object);

  /// Convenience: intern and add one triple with an IRI object.
  void AddIriTriple(const std::string& subject_iri,
                    const std::string& predicate_iri,
                    const std::string& object_iri);

  /// Rebuilds the entity index from the current store contents.
  void BuildEntityIndex();

  /// Number of entities (IRI subjects).
  size_t num_entities() const;

  /// Term id of an entity's IRI.
  TermId entity_term(EntityId e) const;

  /// IRI string of an entity.
  const std::string& entity_iri(EntityId e) const;

  /// Finds the entity whose IRI has the given term id.
  std::optional<EntityId> FindEntity(TermId subject) const;

  /// Finds the entity with the given IRI string.
  std::optional<EntityId> FindEntityByIri(const std::string& iri) const;

  /// Attributes (predicate, object) of an entity.
  const std::vector<Attribute>& attributes(EntityId e) const;

  /// Total triple count.
  size_t num_triples() const { return store_.size(); }

 private:
  void EnsureEntityIndex() const;

  std::string name_;
  Dictionary dict_;
  TripleStore store_;

  mutable bool entity_index_built_ = false;
  mutable std::vector<TermId> entity_terms_;
  mutable std::vector<std::vector<Attribute>> entity_attributes_;
  mutable std::unordered_map<TermId, EntityId> term_to_entity_;
};

}  // namespace alex::rdf

#endif  // ALEX_RDF_DATASET_H_
