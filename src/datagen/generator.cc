#include "datagen/generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

#include "common/rng.h"
#include "common/string_util.h"
#include "similarity/value.h"

namespace alex::datagen {
namespace {

using rdf::Dataset;
using rdf::Term;

// ---------------------------------------------------------------------------
// Domain templates.
// ---------------------------------------------------------------------------

enum class ValueKind { kPersonName, kProperName, kCity, kInt, kDouble, kDate };

struct PredicateSpec {
  const char* name;     // Canonical local name (left KB).
  const char* synonym;  // Divergent local name the right KB may use.
  ValueKind kind;
  double lo = 0;  // Numeric range / date year range.
  double hi = 0;
};

struct DomainSpec {
  const char* type_name;
  /// Divergent class name the right KB uses (real KB pairs rarely share a
  /// type vocabulary; DBpedia says Person where OpenCyc says Human). With
  /// identical class names the (type, type) feature would score 1.0 for
  /// every entity pair and defeat the θ filter entirely.
  const char* type_synonym;
  std::vector<PredicateSpec> preds;
};

const std::vector<DomainSpec>& Domains() {
  static const auto* kDomains = new std::vector<DomainSpec>{
      {"Person", "Human",
       {{"name", "label", ValueKind::kPersonName},
        {"birthDate", "dateOfBirth", ValueKind::kDate, 1940, 2000},
        {"height", "heightCm", ValueKind::kDouble, 150.0, 220.0},
        {"birthPlace", "placeOfBirth", ValueKind::kCity},
        {"weight", "weightGrams", ValueKind::kInt, 50000, 120000}}},
      {"Organization", "Institution",
       {{"name", "label", ValueKind::kProperName},
        {"founded", "foundingDate", ValueKind::kDate, 1850, 2010},
        {"city", "headquarters", ValueKind::kCity},
        {"employees", "staffCount", ValueKind::kInt, 100, 2000000}}},
      {"Place", "GeoLocation",
       {{"name", "label", ValueKind::kProperName},
        {"population", "populationTotal", ValueKind::kInt, 10000, 10000000},
        {"elevation", "altitude", ValueKind::kDouble, 1.0, 4000.0},
        {"country", "locatedIn", ValueKind::kCity}}},
      {"Drug", "ChemCompound",
       {{"name", "label", ValueKind::kProperName},
        {"molecularWeight", "molWeight", ValueKind::kDouble, 50.0, 1500.0},
        {"approved", "approvalDate", ValueKind::kDate, 1950, 2014},
        {"casNumber", "casRegistry", ValueKind::kInt, 100000, 99999999}}},
      {"Language", "HumanTongue",
       {{"name", "label", ValueKind::kProperName},
        {"speakers", "numSpeakers", ValueKind::kInt, 10000, 1000000000},
        {"region", "spokenIn", ValueKind::kCity},
        {"established", "attestedFrom", ValueKind::kDate, 1500, 1995}}},
      {"Publication", "WrittenWork",
       {{"name", "title", ValueKind::kProperName},
        // A narrow all-integer "year" range would make every year pair
        // similar under relative numeric proximity; a full date is both
        // more realistic and properly discriminative.
        {"published", "publicationDate", ValueKind::kDate, 1990, 2014},
        {"venue", "publishedAt", ValueKind::kCity},
        {"pages", "pageCount", ValueKind::kInt, 4, 4000}}},
  };
  return *kDomains;
}

const DomainSpec* FindDomain(const std::string& lower_name) {
  for (const DomainSpec& d : Domains()) {
    if (ToLowerAscii(d.type_name) == lower_name) return &d;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Value synthesis.
// ---------------------------------------------------------------------------

const char* const kSyllables[] = {"ba", "ren", "ko", "mi", "ta",  "vel",
                                  "so", "dur", "an", "le", "pra", "chi",
                                  "no", "gar", "su", "el", "mon", "ri",
                                  "fa", "zen", "qu", "or", "lis", "ham"};
constexpr size_t kNumSyllables = sizeof(kSyllables) / sizeof(kSyllables[0]);

std::string RandomWord(Rng* rng, int min_syll, int max_syll) {
  const int n =
      min_syll + static_cast<int>(rng->UniformInt(
                     static_cast<uint64_t>(max_syll - min_syll + 1)));
  std::string w;
  for (int i = 0; i < n; ++i) {
    w += kSyllables[rng->UniformInt(kNumSyllables)];
  }
  w[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(w[0])));
  return w;
}

std::string RandomPersonName(Rng* rng) {
  return RandomWord(rng, 2, 3) + " " + RandomWord(rng, 2, 4);
}

std::string RandomProperName(Rng* rng) {
  std::string name = RandomWord(rng, 2, 4);
  if (rng->Bernoulli(0.6)) name += " " + RandomWord(rng, 2, 3);
  return name;
}

const char* const kCities[] = {
    "Arvenholm",  "Belcaster", "Corvania", "Drestin",  "Elmora",
    "Fontaine",   "Gildern",   "Harvick",  "Istelle",  "Joremont",
    "Kalvista",   "Lorwick",   "Mardale",  "Norvek",   "Ostermoor",
    "Pelagos",    "Quillian",  "Rostova",  "Selmore",  "Tervane",
};
constexpr size_t kNumCities = sizeof(kCities) / sizeof(kCities[0]);

std::string IsoDate(int32_t days_since_epoch) {
  // Inverse of sim::DaysFromCivil (Howard Hinnant's civil_from_days).
  int32_t z = days_since_epoch + 719468;
  const int32_t era = (z >= 0 ? z : z - 146096) / 146097;
  const uint32_t doe = static_cast<uint32_t>(z - era * 146097);
  const uint32_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int32_t y = static_cast<int32_t>(yoe) + era * 400;
  const uint32_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const uint32_t mp = (5 * doy + 2) / 153;
  const uint32_t d = doy - (153 * mp + 2) / 5 + 1;
  const uint32_t m = mp < 10 ? mp + 3 : mp - 9;
  const int32_t year = y + (m <= 2);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, m, d);
  return buf;
}

Term MakeValue(const PredicateSpec& spec, Rng* rng) {
  switch (spec.kind) {
    case ValueKind::kPersonName:
      return Term::Literal(RandomPersonName(rng));
    case ValueKind::kProperName:
      return Term::Literal(RandomProperName(rng));
    case ValueKind::kCity:
      return Term::Literal(kCities[rng->UniformInt(kNumCities)]);
    case ValueKind::kInt: {
      const int64_t v = static_cast<int64_t>(
          rng->UniformDouble(spec.lo, spec.hi + 1));
      return Term::TypedLiteral(std::to_string(v),
                                std::string(rdf::kXsdInteger));
    }
    case ValueKind::kDouble: {
      const double v = rng->UniformDouble(spec.lo, spec.hi);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", v);
      return Term::TypedLiteral(buf, std::string(rdf::kXsdDouble));
    }
    case ValueKind::kDate: {
      const int year = static_cast<int>(rng->UniformDouble(spec.lo, spec.hi));
      const int32_t base = sim::DaysFromCivil(year, 1, 1);
      const int32_t days = base + static_cast<int32_t>(rng->UniformInt(365));
      return Term::TypedLiteral(IsoDate(days), std::string(rdf::kXsdDate));
    }
  }
  return Term::Literal("");
}

// ---------------------------------------------------------------------------
// Perturbations applied to the right-hand copy of a shared value.
// ---------------------------------------------------------------------------

std::string TypoString(const std::string& s, Rng* rng) {
  if (s.size() < 4) return s + "x";
  std::string out = s;
  const size_t i = 1 + rng->UniformInt(out.size() - 2);
  if (rng->Bernoulli(0.5)) {
    std::swap(out[i], out[i - 1]);  // Transpose.
  } else {
    out.erase(i, 1);  // Deletion.
  }
  return out;
}

std::string ReorderTokens(const std::string& s) {
  const std::vector<std::string> tokens = SplitWhitespace(s);
  if (tokens.size() < 2) return s;
  std::string out = tokens.back() + ",";
  for (size_t i = 0; i + 1 < tokens.size(); ++i) out += " " + tokens[i];
  return out;
}

Term PerturbValue(const PredicateSpec& spec, const Term& value, Rng* rng) {
  switch (spec.kind) {
    case ValueKind::kPersonName:
    case ValueKind::kProperName:
    case ValueKind::kCity: {
      // Token reorder keeps similarity at 1.0 (same tokens) while breaking
      // exact-value blocking; typos land around 0.8-0.95 trigram overlap.
      if (rng->Bernoulli(0.5) && value.value.find(' ') != std::string::npos) {
        return Term::Literal(ReorderTokens(value.value));
      }
      return Term::Literal(TypoString(value.value, rng));
    }
    case ValueKind::kInt: {
      const sim::TypedValue tv = sim::ParseValue(value);
      const double jitter = 1.0 + rng->UniformDouble(-0.02, 0.02);
      const int64_t v = std::max<int64_t>(
          1, static_cast<int64_t>(std::llround(tv.real * jitter)));
      return Term::TypedLiteral(std::to_string(v),
                                std::string(rdf::kXsdInteger));
    }
    case ValueKind::kDouble: {
      const sim::TypedValue tv = sim::ParseValue(value);
      const double v = tv.real * (1.0 + rng->UniformDouble(-0.02, 0.02));
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", v);
      return Term::TypedLiteral(buf, std::string(rdf::kXsdDouble));
    }
    case ValueKind::kDate: {
      // Skew of 1-8 months: similarity stays above θ (explorable by ALEX's
      // band queries) but below PARIS's 0.9 evidence threshold, so a skewed
      // date no longer anchors an automatic link.
      const sim::TypedValue tv = sim::ParseValue(value);
      int32_t skew = 30 + static_cast<int32_t>(rng->UniformInt(220));
      if (rng->Bernoulli(0.5)) skew = -skew;
      return Term::TypedLiteral(IsoDate(tv.date_days + skew),
                                std::string(rdf::kXsdDate));
    }
  }
  return value;
}

// ---------------------------------------------------------------------------
// Entity emission.
// ---------------------------------------------------------------------------

struct CanonicalEntity {
  const DomainSpec* domain = nullptr;
  std::vector<Term> values;  // Parallel to domain->preds.
};

std::string OntIri(const std::string& kb, const std::string& local) {
  return "http://" + kb + ".example.org/ontology/" + local;
}

std::string ResourceIri(const std::string& kb, const std::string& type,
                        size_t index) {
  return "http://" + kb + ".example.org/resource/" + type + "_" +
         std::to_string(index);
}

std::string ClassIri(const std::string& kb, const std::string& type) {
  return "http://" + kb + ".example.org/class/" + type;
}

/// Emits one entity into `ds`. `rename` maps predicate index -> use synonym.
/// `drop[i]` omits attribute i; `perturb[i]` rewrites its value.
void EmitEntity(Dataset* ds, const std::string& kb, const std::string& iri,
                const CanonicalEntity& ent, const std::string& class_name,
                const std::vector<bool>& rename, const std::vector<bool>& drop,
                const std::vector<bool>& perturb, Rng* rng) {
  const auto& preds = ent.domain->preds;
  for (size_t i = 0; i < preds.size(); ++i) {
    if (drop[i]) continue;
    const std::string local = rename[i] ? preds[i].synonym : preds[i].name;
    const Term value =
        perturb[i] ? PerturbValue(preds[i], ent.values[i], rng) : ent.values[i];
    ds->AddLiteralTriple(iri, OntIri(kb, local), value);
  }
  ds->AddIriTriple(iri, std::string(rdf::kRdfType), ClassIri(kb, class_name));
}

}  // namespace

std::vector<std::string> DomainNames() {
  std::vector<std::string> out;
  for (const DomainSpec& d : Domains()) out.push_back(ToLowerAscii(d.type_name));
  return out;
}

GeneratedPair GenerateScenario(const ScenarioConfig& config) {
  GeneratedPair pair;
  pair.left = Dataset(config.left_name);
  pair.right = Dataset(config.right_name);
  Rng rng(config.seed);

  std::vector<const DomainSpec*> domains;
  for (const std::string& name : config.domains) {
    const DomainSpec* d = FindDomain(ToLowerAscii(name));
    assert(d != nullptr && "unknown domain name");
    if (d != nullptr) domains.push_back(d);
  }
  if (domains.empty()) domains.push_back(&Domains()[0]);

  // Per-scenario predicate renaming decision: one draw per (domain, pred),
  // fixed for the whole right KB (schemas diverge consistently).
  std::unordered_map<const DomainSpec*, std::vector<bool>> renames;
  for (const DomainSpec* d : domains) {
    std::vector<bool> r(d->preds.size());
    for (size_t i = 0; i < r.size(); ++i) {
      r[i] = rng.Bernoulli(config.predicate_rename_prob);
    }
    renames[d] = r;
  }

  std::vector<std::pair<std::string, std::string>> truth_iris;

  // --- Shared entities (the ground truth). ---
  for (size_t i = 0; i < config.num_shared; ++i) {
    const DomainSpec* domain = domains[i % domains.size()];
    CanonicalEntity ent;
    ent.domain = domain;
    for (const PredicateSpec& spec : domain->preds) {
      ent.values.push_back(MakeValue(spec, &rng));
    }
    const size_t np = domain->preds.size();
    const std::vector<bool> no_change(np, false);

    const std::string left_iri =
        ResourceIri(config.left_name, domain->type_name, i);
    EmitEntity(&pair.left, config.left_name, left_iri, ent,
               domain->type_name, no_change, no_change, no_change, &rng);

    std::vector<bool> drop(np), perturb(np);
    for (size_t k = 0; k < np; ++k) {
      drop[k] = rng.Bernoulli(config.drop_attr_prob);
      perturb[k] = !drop[k] && rng.Bernoulli(config.value_noise);
    }
    const std::string right_iri =
        ResourceIri(config.right_name, domain->type_name, i);
    EmitEntity(&pair.right, config.right_name, right_iri, ent,
               domain->type_synonym, renames.at(domain), drop, perturb, &rng);
    truth_iris.emplace_back(left_iri, right_iri);

    // --- Decoys: unrelated right-side entities wearing the same name. ---
    size_t num_decoys = static_cast<size_t>(config.ambiguity);
    const double frac = config.ambiguity - static_cast<double>(num_decoys);
    if (frac > 0.0 && rng.Bernoulli(frac)) ++num_decoys;
    for (size_t d = 0; d < num_decoys; ++d) {
      CanonicalEntity decoy;
      decoy.domain = domain;
      for (size_t k = 0; k < np; ++k) {
        decoy.values.push_back(MakeValue(domain->preds[k], &rng));
      }
      decoy.values[0] = ent.values[0];  // Identical name.
      if (np > 1) {
        // Copy `decoy_shared_attrs` distinct secondary values exactly.
        std::vector<size_t> idx;
        for (size_t k = 1; k < np; ++k) idx.push_back(k);
        rng.Shuffle(&idx);
        const size_t n_copy = std::min(config.decoy_shared_attrs, idx.size());
        for (size_t k = 0; k < n_copy; ++k) {
          decoy.values[idx[k]] = ent.values[idx[k]];
        }
      }
      const std::string decoy_iri =
          ResourceIri(config.right_name, domain->type_name,
                      config.num_shared + config.num_right_only +
                          i * 8 + d);
      EmitEntity(&pair.right, config.right_name, decoy_iri, decoy,
                 domain->type_synonym, renames.at(domain),
                 std::vector<bool>(np, false), std::vector<bool>(np, false),
                 &rng);
    }
  }

  // --- Unlinked filler entities. ---
  for (size_t i = 0; i < config.num_left_only; ++i) {
    const DomainSpec* domain = domains[i % domains.size()];
    CanonicalEntity ent;
    ent.domain = domain;
    for (const PredicateSpec& spec : domain->preds) {
      ent.values.push_back(MakeValue(spec, &rng));
    }
    const std::vector<bool> no_change(domain->preds.size(), false);
    EmitEntity(&pair.left, config.left_name,
               ResourceIri(config.left_name, domain->type_name,
                           config.num_shared + i),
               ent, domain->type_name, no_change, no_change, no_change, &rng);
  }
  for (size_t i = 0; i < config.num_right_only; ++i) {
    const DomainSpec* domain = domains[i % domains.size()];
    CanonicalEntity ent;
    ent.domain = domain;
    for (const PredicateSpec& spec : domain->preds) {
      ent.values.push_back(MakeValue(spec, &rng));
    }
    const size_t np = domain->preds.size();
    const std::vector<bool> no_change(np, false);
    EmitEntity(&pair.right, config.right_name,
               ResourceIri(config.right_name, domain->type_name,
                           config.num_shared + i),
               ent, domain->type_synonym, renames.at(domain), no_change,
               no_change, &rng);
  }

  // --- Optional entity-entity relation layer (see ScenarioConfig). ---
  // Emitted last, from its own RNG stream, touching only existing subjects:
  // all attribute/filler draws above are byte-identical whether or not the
  // knob is set, and no new entities are introduced.
  if (config.relation_density > 0.0 && config.num_shared > 1) {
    Rng rel_rng(config.seed ^ 0xa5e1c3d9b7f08642ULL);
    const size_t num_edges = static_cast<size_t>(
        config.relation_density * static_cast<double>(config.num_shared));
    for (size_t e = 0; e < num_edges; ++e) {
      const size_t a = rel_rng.UniformInt(config.num_shared);
      size_t b = rel_rng.UniformInt(config.num_shared - 1);
      if (b >= a) ++b;  // Distinct endpoints, uniform over the off-diagonal.
      const DomainSpec* da = domains[a % domains.size()];
      const DomainSpec* db = domains[b % domains.size()];
      pair.left.AddIriTriple(
          ResourceIri(config.left_name, da->type_name, a),
          OntIri(config.left_name, "relatedTo"),
          ResourceIri(config.left_name, db->type_name, b));
      // The right KB keeps most of the edge layer, so matched
      // neighborhoods overlap strongly without being identical.
      if (rel_rng.Bernoulli(0.9)) {
        pair.right.AddIriTriple(
            ResourceIri(config.right_name, da->type_name, a),
            OntIri(config.right_name, "relatedTo"),
            ResourceIri(config.right_name, db->type_name, b));
      }
    }
  }

  pair.left.BuildEntityIndex();
  pair.right.BuildEntityIndex();
  for (const auto& [left_iri, right_iri] : truth_iris) {
    auto l = pair.left.FindEntityByIri(left_iri);
    auto r = pair.right.FindEntityByIri(right_iri);
    assert(l.has_value() && r.has_value());
    if (l.has_value() && r.has_value()) pair.truth.Add(*l, *r);
  }
  return pair;
}

}  // namespace alex::datagen
