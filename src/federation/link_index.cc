#include "federation/link_index.h"

#include <algorithm>
#include <unordered_set>

namespace alex::fed {
namespace {

const std::vector<std::string>& EmptyVec() {
  static const auto* kEmpty = new std::vector<std::string>();
  return *kEmpty;
}

const std::vector<LinkIndex::IriId>& EmptyIdVec() {
  static const auto* kEmpty = new std::vector<LinkIndex::IriId>();
  return *kEmpty;
}

template <typename T>
bool EraseValue(std::vector<T>* v, const T& value) {
  auto it = std::find(v->begin(), v->end(), value);
  if (it == v->end()) return false;
  v->erase(it);
  return true;
}

}  // namespace

LinkIndex::IriId LinkIndex::InternIri(const std::string& iri) {
  auto it = iri_ids_.find(iri);
  if (it != iri_ids_.end()) return it->second;
  const IriId id = static_cast<IriId>(iri_terms_.size());
  iri_terms_.push_back(rdf::Term::Iri(iri));
  iri_ids_.emplace(iri, id);
  return id;
}

bool LinkIndex::Add(const std::string& left_iri, const std::string& right_iri) {
  if (Contains(left_iri, right_iri)) return false;
  left_to_right_[left_iri].push_back(right_iri);
  right_to_left_[right_iri].push_back(left_iri);
  const IriId lid = InternIri(left_iri);
  const IriId rid = InternIri(right_iri);
  left_ids_[lid].push_back(rid);
  right_ids_[rid].push_back(lid);
  ++size_;
  ++epoch_;
  return true;
}

bool LinkIndex::Remove(const std::string& left_iri,
                       const std::string& right_iri) {
  auto it = left_to_right_.find(left_iri);
  if (it == left_to_right_.end()) return false;
  if (!EraseValue(&it->second, right_iri)) return false;
  if (it->second.empty()) left_to_right_.erase(it);
  auto rit = right_to_left_.find(right_iri);
  if (rit != right_to_left_.end()) {
    EraseValue(&rit->second, left_iri);
    if (rit->second.empty()) right_to_left_.erase(rit);
  }
  // Mirror in the id view (ids themselves are never retired).
  const IriId lid = IdOf(left_iri);
  const IriId rid = IdOf(right_iri);
  auto lit = left_ids_.find(lid);
  if (lit != left_ids_.end()) {
    EraseValue(&lit->second, rid);
    if (lit->second.empty()) left_ids_.erase(lit);
  }
  auto ridit = right_ids_.find(rid);
  if (ridit != right_ids_.end()) {
    EraseValue(&ridit->second, lid);
    if (ridit->second.empty()) right_ids_.erase(ridit);
  }
  --size_;
  ++epoch_;
  return true;
}

bool LinkIndex::Contains(const std::string& left_iri,
                         const std::string& right_iri) const {
  auto it = left_to_right_.find(left_iri);
  if (it == left_to_right_.end()) return false;
  return std::find(it->second.begin(), it->second.end(), right_iri) !=
         it->second.end();
}

const std::vector<std::string>& LinkIndex::RightsFor(
    const std::string& left_iri) const {
  auto it = left_to_right_.find(left_iri);
  return it == left_to_right_.end() ? EmptyVec() : it->second;
}

const std::vector<std::string>& LinkIndex::LeftsFor(
    const std::string& right_iri) const {
  auto it = right_to_left_.find(right_iri);
  return it == right_to_left_.end() ? EmptyVec() : it->second;
}

LinkIndex::IriId LinkIndex::IdOf(const std::string& iri) const {
  auto it = iri_ids_.find(iri);
  return it == iri_ids_.end() ? kInvalidIriId : it->second;
}

const std::vector<LinkIndex::IriId>& LinkIndex::RightIdsFor(IriId left) const {
  auto it = left_ids_.find(left);
  return it == left_ids_.end() ? EmptyIdVec() : it->second;
}

const std::vector<LinkIndex::IriId>& LinkIndex::LeftIdsFor(IriId right) const {
  auto it = right_ids_.find(right);
  return it == right_ids_.end() ? EmptyIdVec() : it->second;
}

void LinkIndex::SaveState(BinaryWriter* w) const {
  // IRI table in id order fixes the interning; adjacency is then pure ids.
  w->WriteU64(iri_terms_.size());
  for (const rdf::Term& term : iri_terms_) w->WriteBytes(term.value);

  // Adjacency lists keyed by id, sorted by key for canonical bytes; the
  // vectors' element order is the co-referent enumeration order and is
  // preserved verbatim.
  auto write_adjacency =
      [w](const std::unordered_map<IriId, std::vector<IriId>>& adj) {
        std::vector<IriId> keys;
        keys.reserve(adj.size());
        for (const auto& [id, targets] : adj) keys.push_back(id);
        std::sort(keys.begin(), keys.end());
        w->WriteU64(keys.size());
        for (IriId id : keys) {
          const std::vector<IriId>& targets = adj.at(id);
          w->WriteU32(id);
          w->WriteU64(targets.size());
          for (IriId t : targets) w->WriteU32(t);
        }
      };
  write_adjacency(left_ids_);
  write_adjacency(right_ids_);
  w->WriteU64(epoch_);
  w->WriteU64(size_);
}

Status LinkIndex::LoadState(BinaryReader* r) {
  // Counts are checked against the bytes left before anything is sized
  // from them: an IRI takes at least its 8-byte length, an adjacency key
  // 12 bytes, a target id 4.
  uint64_t num_iris = 0;
  ALEX_RETURN_NOT_OK(r->ReadCount(8, "IRIs", &num_iris));
  std::deque<rdf::Term> terms;
  std::unordered_map<std::string, IriId> ids;
  ids.reserve(num_iris);
  for (uint64_t i = 0; i < num_iris; ++i) {
    std::string iri;
    ALEX_RETURN_NOT_OK(r->ReadBytes(&iri));
    // A repeated IRI would leave adjacency pointing at an id the string
    // view cannot reach.
    if (!ids.emplace(iri, static_cast<IriId>(i)).second) {
      return Status::ParseError("link index: duplicate IRI " + iri);
    }
    terms.push_back(rdf::Term::Iri(std::move(iri)));
  }

  auto read_adjacency =
      [r, num_iris](std::unordered_map<IriId, std::vector<IriId>>* adj,
                    uint64_t* edge_total) -> Status {
    uint64_t keys = 0;
    ALEX_RETURN_NOT_OK(r->ReadCount(12, "adjacency keys", &keys));
    adj->clear();
    adj->reserve(keys);
    for (uint64_t i = 0; i < keys; ++i) {
      uint32_t id = 0;
      ALEX_RETURN_NOT_OK(r->ReadU32(&id));
      if (id >= num_iris) {
        return Status::ParseError("link index: adjacency key id " +
                                  std::to_string(id) + " out of range");
      }
      uint64_t len = 0;
      ALEX_RETURN_NOT_OK(r->ReadCount(4, "adjacency targets", &len));
      auto [it, inserted] = adj->try_emplace(id);
      if (!inserted) {
        return Status::ParseError("link index: duplicate adjacency key id " +
                                  std::to_string(id));
      }
      std::vector<IriId>& targets = it->second;
      targets.resize(len);
      for (uint64_t j = 0; j < len; ++j) {
        ALEX_RETURN_NOT_OK(r->ReadU32(&targets[j]));
        if (targets[j] >= num_iris) {
          return Status::ParseError("link index: adjacency target id " +
                                    std::to_string(targets[j]) +
                                    " out of range");
        }
      }
      *edge_total += len;
    }
    return Status::OK();
  };
  std::unordered_map<IriId, std::vector<IriId>> left_ids, right_ids;
  uint64_t left_edges = 0, right_edges = 0;
  ALEX_RETURN_NOT_OK(read_adjacency(&left_ids, &left_edges));
  ALEX_RETURN_NOT_OK(read_adjacency(&right_ids, &right_edges));

  uint64_t epoch = 0, size = 0;
  ALEX_RETURN_NOT_OK(r->ReadU64(&epoch));
  ALEX_RETURN_NOT_OK(r->ReadU64(&size));
  if (left_edges != size || right_edges != size) {
    return Status::ParseError(
        "link index: edge counts disagree with recorded size");
  }
  // With equal edge counts, the right view mirrors the left one iff each
  // right edge cancels a distinct left edge.
  std::unordered_set<uint64_t> edges;
  edges.reserve(size);
  for (const auto& [lid, rights] : left_ids) {
    for (IriId rid : rights) {
      if (!edges.insert(uint64_t{lid} << 32 | rid).second) {
        return Status::ParseError("link index: duplicate link");
      }
    }
  }
  for (const auto& [rid, lefts] : right_ids) {
    for (IriId lid : lefts) {
      if (edges.erase(uint64_t{lid} << 32 | rid) == 0) {
        return Status::ParseError(
            "link index: left and right adjacency disagree");
      }
    }
  }

  // Rebuild the string views from the id views so the two stay mirrored.
  std::unordered_map<std::string, std::vector<std::string>> l2r, r2l;
  l2r.reserve(left_ids.size());
  r2l.reserve(right_ids.size());
  for (const auto& [lid, rights] : left_ids) {
    std::vector<std::string>& out = l2r[terms[lid].value];
    out.reserve(rights.size());
    for (IriId rid : rights) out.push_back(terms[rid].value);
  }
  for (const auto& [rid, lefts] : right_ids) {
    std::vector<std::string>& out = r2l[terms[rid].value];
    out.reserve(lefts.size());
    for (IriId lid : lefts) out.push_back(terms[lid].value);
  }

  left_to_right_ = std::move(l2r);
  right_to_left_ = std::move(r2l);
  iri_ids_ = std::move(ids);
  iri_terms_ = std::move(terms);
  left_ids_ = std::move(left_ids);
  right_ids_ = std::move(right_ids);
  epoch_ = epoch;
  size_ = static_cast<size_t>(size);
  return Status::OK();
}

std::vector<SameAsLink> LinkIndex::AllLinks() const {
  std::vector<SameAsLink> out;
  out.reserve(size_);
  for (const auto& [left, rights] : left_to_right_) {
    for (const std::string& right : rights) {
      out.push_back(SameAsLink{left, right});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SameAsLink& a, const SameAsLink& b) {
              return std::tie(a.left_iri, a.right_iri) <
                     std::tie(b.left_iri, b.right_iri);
            });
  return out;
}

}  // namespace alex::fed
