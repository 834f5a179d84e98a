#ifndef ALEX_DATAGEN_GENERATOR_H_
#define ALEX_DATAGEN_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "feedback/ground_truth.h"
#include "rdf/dataset.h"

namespace alex::datagen {

/// Tunable profile of one synthetic knowledge-base pair. Each paper dataset
/// pair (Table 1) is reproduced by a preset of these knobs — see
/// scenarios.h. The knobs steer the *initial candidate-link quality* that a
/// PARIS run over the pair produces, which is what the paper's episode
/// curves start from.
struct ScenarioConfig {
  std::string name = "scenario";
  std::string left_name = "left";
  std::string right_name = "right";
  uint64_t seed = 42;

  /// Entities present in both KBs (the ground-truth link count).
  size_t num_shared = 500;
  /// Unlinked filler entities per side.
  size_t num_left_only = 500;
  size_t num_right_only = 200;

  /// Domain templates to draw entities from (see DomainNames()); entities
  /// round-robin across them. More domains = more predicate heterogeneity
  /// (the DBpedia-OpenCyc stress case).
  std::vector<std::string> domains = {"person"};

  /// Probability that the right KB renames a predicate to a synonym
  /// (schema heterogeneity; lowers PARIS's relation alignment).
  double predicate_rename_prob = 0.3;

  /// Per-attribute probability that the right copy's value is perturbed
  /// (typos, token reorder, numeric jitter, date skew). High values break
  /// PARIS's exact-value blocking -> low initial recall, while similarity
  /// stays high enough for ALEX's band exploration to rediscover the pair.
  double value_noise = 0.3;

  /// Per-attribute probability that the right copy omits the attribute.
  double drop_attr_prob = 0.1;

  /// Expected number of *decoys* per shared entity on the right side: each
  /// decoy is an unrelated entity with the identical name. Values above 1
  /// create several decoys per entity (the integer part always, the
  /// fractional part with that probability). Decoys make PARIS emit wrong
  /// links -> low initial precision.
  double ambiguity = 0.0;

  /// Number of secondary attribute values each decoy copies exactly from
  /// the entity it impersonates (in addition to the name), giving PARIS
  /// enough (false) evidence to cross its 0.95 threshold.
  size_t decoy_shared_attrs = 2;

  /// Expected "relatedTo" entity-entity edges per shared entity (0 = none,
  /// the historical default). The edge layer connects shared entities on
  /// both sides (the right KB keeps ~90% of it), giving graph-propagating
  /// linkers (SiGMa) a neighborhood signal. Drawn from an RNG stream
  /// separate from the attribute draws and referencing only entities that
  /// already exist, so scenarios with the knob at 0 are bit-identical to
  /// pre-knob output and enabling it shifts no EntityIds.
  double relation_density = 0.0;
};

/// A generated KB pair plus its exact ground truth.
struct GeneratedPair {
  rdf::Dataset left{"left"};
  rdf::Dataset right{"right"};
  feedback::GroundTruth truth;
};

/// Names of the built-in domain templates: "person", "organization",
/// "place", "drug", "language", "publication".
std::vector<std::string> DomainNames();

/// Generates a KB pair deterministically from the config (same seed, same
/// bytes). Entity indexes of both datasets are built before returning, and
/// the ground truth refers to their EntityIds.
GeneratedPair GenerateScenario(const ScenarioConfig& config);

}  // namespace alex::datagen

#endif  // ALEX_DATAGEN_GENERATOR_H_
