#include "core/blocking.h"

#include <algorithm>
#include <string>

#include "common/string_util.h"
#include "obs/trace.h"
#include "similarity/similarity.h"

namespace alex::core {
namespace {

/// Sorts and deduplicates a key vector in place (set semantics).
void SortUnique(std::vector<BlockKey>* keys) {
  std::sort(keys->begin(), keys->end());
  keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
}

}  // namespace

BlockKey HashBlockKey(BlockKind kind, std::string_view text) {
  // FNV-1a with the kind hashed as its own leading round, so "v:x" /
  // "t:x" / "p:x" style namespacing survives the move to integer keys.
  // The kind must be multiplied through before any text byte: mixing it
  // into the same round as the first character lets a kind difference
  // cancel against a first-character difference (kValue^kToken == '7'^'4',
  // so seeding alone would collide "v:79..." with "t:49...").
  uint64_t h = 0xcbf29ce484222325ULL;
  h ^= static_cast<uint64_t>(kind) + 1;
  h *= 0x100000001b3ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  // splitmix64 finalizer: FNV alone mixes low bits poorly for short keys.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

void ComputeTermBlockingKeys(const rdf::Term& term,
                             std::vector<BlockKey>* out) {
  out->clear();
  const std::string norm = ToLowerAscii(
      term.is_iri() ? std::string(sim::IriLocalName(term.value)) : term.value);
  if (norm.empty()) return;
  out->push_back(HashBlockKey(BlockKind::kValue, norm));
  for (const std::string& tok : WordTokens(norm)) {
    if (tok.size() < 2) continue;
    out->push_back(HashBlockKey(BlockKind::kToken, tok));
    if (tok.size() >= 6) {
      out->push_back(
          HashBlockKey(BlockKind::kPrefix, std::string_view(tok).substr(0, 5)));
    }
  }
  SortUnique(out);
}

TermKeyCache::TermKeyCache(const rdf::Dataset& ds) : ds_(&ds) {
  ALEX_TRACE_SPAN("build", "TermKeyCache");
  const size_t num_terms = ds.dict().size();
  // Pass 1: mark the terms that occur as attribute objects; only those need
  // keys (subject IRIs and predicates never reach the blocking loop).
  std::vector<bool> is_object(num_terms, false);
  for (rdf::EntityId e = 0; e < ds.num_entities(); ++e) {
    for (const rdf::Attribute& a : ds.attributes(e)) {
      if (a.object < num_terms) is_object[a.object] = true;
    }
  }
  // Pass 2: compute each marked term's keys once into the CSR arrays.
  offsets_.assign(num_terms + 1, 0);
  std::vector<BlockKey> scratch;
  for (rdf::TermId t = 0; t < num_terms; ++t) {
    if (is_object[t]) {
      ComputeTermBlockingKeys(ds.dict().term(t), &scratch);
      keys_.insert(keys_.end(), scratch.begin(), scratch.end());
      ++computed_terms_;
    }
    offsets_[t + 1] = static_cast<uint32_t>(keys_.size());
  }
}

void TermKeyCache::EntityKeys(rdf::EntityId e,
                              std::vector<BlockKey>* out) const {
  out->clear();
  for (const rdf::Attribute& a : ds_->attributes(e)) {
    const std::span<const BlockKey> ks = keys(a.object);
    out->insert(out->end(), ks.begin(), ks.end());
  }
  SortUnique(out);
}

ValueCache::ValueCache(const rdf::Dataset& ds) {
  ALEX_TRACE_SPAN("build", "ValueCache");
  // Pass 1 numbers the attribute objects in first-occurrence order and
  // sums the sizes of their texts, so pass 2 fills a table whose columns
  // and character and trigram pools are each allocated once.
  constexpr uint32_t kNoRow = UINT32_MAX;
  rows_.assign(ds.dict().size(), kNoRow);
  std::vector<rdf::TermId> objects;
  sim::ValueTable::Capacity capacity;
  for (rdf::EntityId e = 0; e < ds.num_entities(); ++e) {
    for (const rdf::Attribute& a : ds.attributes(e)) {
      if (a.object < rows_.size() && rows_[a.object] == kNoRow) {
        rows_[a.object] = static_cast<uint32_t>(objects.size());
        objects.push_back(a.object);
        capacity.Count(sim::ValueText(ds.dict().term(a.object)));
      }
    }
  }
  table_.Reserve(capacity);
  for (rdf::TermId t : objects) table_.Add(sim::ParseValue(ds.dict().term(t)));
}

BlockingIndex::BlockingIndex(const rdf::Dataset& right) : term_keys_(right) {
  ALEX_TRACE_SPAN("build", "BlockingIndex");
  std::vector<BlockKey> scratch;
  for (rdf::EntityId r = 0; r < right.num_entities(); ++r) {
    term_keys_.EntityKeys(r, &scratch);
    for (BlockKey key : scratch) {
      blocks_[key].push_back(r);
    }
  }
}

}  // namespace alex::core
