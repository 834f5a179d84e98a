#include "rdf/triple_store.h"

#include <algorithm>
#include <tuple>

namespace alex::rdf {

struct TripleStore::LessSpo {
  bool operator()(const Triple& a, const Triple& b) const {
    return std::tie(a.subject, a.predicate, a.object) <
           std::tie(b.subject, b.predicate, b.object);
  }
};
struct TripleStore::LessPos {
  bool operator()(const Triple& a, const Triple& b) const {
    return std::tie(a.predicate, a.object, a.subject) <
           std::tie(b.predicate, b.object, b.subject);
  }
};
struct TripleStore::LessOsp {
  bool operator()(const Triple& a, const Triple& b) const {
    return std::tie(a.object, a.subject, a.predicate) <
           std::tie(b.object, b.subject, b.predicate);
  }
};

TripleStore::TripleStore(const TripleStore& other)
    : pending_(other.pending_),
      spo_(other.spo_),
      pos_(other.pos_),
      osp_(other.osp_) {
  dirty_.store(other.dirty_.load(std::memory_order_acquire),
               std::memory_order_release);
}

TripleStore& TripleStore::operator=(const TripleStore& other) {
  if (this == &other) return *this;
  pending_ = other.pending_;
  spo_ = other.spo_;
  pos_ = other.pos_;
  osp_ = other.osp_;
  dirty_.store(other.dirty_.load(std::memory_order_acquire),
               std::memory_order_release);
  return *this;
}

TripleStore::TripleStore(TripleStore&& other) noexcept
    : pending_(std::move(other.pending_)),
      spo_(std::move(other.spo_)),
      pos_(std::move(other.pos_)),
      osp_(std::move(other.osp_)) {
  dirty_.store(other.dirty_.load(std::memory_order_acquire),
               std::memory_order_release);
  other.dirty_.store(false, std::memory_order_release);
}

TripleStore& TripleStore::operator=(TripleStore&& other) noexcept {
  if (this == &other) return *this;
  pending_ = std::move(other.pending_);
  spo_ = std::move(other.spo_);
  pos_ = std::move(other.pos_);
  osp_ = std::move(other.osp_);
  dirty_.store(other.dirty_.load(std::memory_order_acquire),
               std::memory_order_release);
  other.dirty_.store(false, std::memory_order_release);
  return *this;
}

void TripleStore::Add(const Triple& t) {
  pending_.push_back(t);
  dirty_.store(true, std::memory_order_release);
}

void TripleStore::EnsureIndexes() const {
  // Double-checked build: the fast path is one acquire load; a cold
  // concurrent first read serializes on the mutex and rechecks, so exactly
  // one thread sorts while the rest wait instead of racing on the mutable
  // index vectors.
  if (!dirty_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(build_mu_);
  if (!dirty_.load(std::memory_order_relaxed)) return;
  spo_.insert(spo_.end(), pending_.begin(), pending_.end());
  pending_.clear();
  std::sort(spo_.begin(), spo_.end(), LessSpo{});
  spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
  pos_ = spo_;
  std::sort(pos_.begin(), pos_.end(), LessPos{});
  osp_ = spo_;
  std::sort(osp_.begin(), osp_.end(), LessOsp{});
  dirty_.store(false, std::memory_order_release);
}

size_t TripleStore::size() const {
  EnsureIndexes();
  return spo_.size();
}

bool TripleStore::Contains(const Triple& t) const {
  EnsureIndexes();
  return std::binary_search(spo_.begin(), spo_.end(), t, LessSpo{});
}

namespace {

// Iterates over the index range whose sort prefix matches the pattern's
// bound components, post-filtering any remaining bound component.
template <typename Less>
void ScanRange(const std::vector<Triple>& index, const Triple& lo,
               const Triple& hi, const TriplePattern& pattern,
               const std::function<bool(const Triple&)>& fn) {
  auto begin = std::lower_bound(index.begin(), index.end(), lo, Less{});
  auto end = std::upper_bound(index.begin(), index.end(), hi, Less{});
  for (auto it = begin; it != end; ++it) {
    if (pattern.Matches(*it)) {
      if (!fn(*it)) return;
    }
  }
}

}  // namespace

void TripleStore::ForEachMatch(
    const TriplePattern& pattern,
    const std::function<bool(const Triple&)>& fn) const {
  EnsureIndexes();
  const TermId kAny = kInvalidTermId;
  const TermId kMax = kInvalidTermId;  // UINT32_MAX also serves as +inf.
  const bool s = pattern.subject != kAny;
  const bool p = pattern.predicate != kAny;
  const bool o = pattern.object != kAny;

  if (s) {
    // SPO: prefix (s) or (s, p). For (s, ?, o) the OSP index has the longer
    // prefix (o, s).
    if (!p && o) {
      ScanRange<LessOsp>(osp_, Triple{pattern.subject, 0, pattern.object},
                         Triple{pattern.subject, kMax, pattern.object},
                         pattern, fn);
      return;
    }
    Triple lo{pattern.subject, p ? pattern.predicate : 0,
              (p && o) ? pattern.object : 0};
    Triple hi{pattern.subject, p ? pattern.predicate : kMax,
              (p && o) ? pattern.object : kMax};
    ScanRange<LessSpo>(spo_, lo, hi, pattern, fn);
    return;
  }
  if (p) {
    // POS: prefix (p) or (p, o).
    Triple lo{0, pattern.predicate, o ? pattern.object : 0};
    Triple hi{kMax, pattern.predicate, o ? pattern.object : kMax};
    ScanRange<LessPos>(pos_, lo, hi, pattern, fn);
    return;
  }
  if (o) {
    // OSP: prefix (o).
    ScanRange<LessOsp>(osp_, Triple{0, 0, pattern.object},
                       Triple{kMax, kMax, pattern.object}, pattern, fn);
    return;
  }
  for (const Triple& t : spo_) {
    if (!fn(t)) return;
  }
}

size_t TripleStore::CountMatches(const TriplePattern& pattern) const {
  size_t n = 0;
  ForEachMatch(pattern, [&n](const Triple&) {
    ++n;
    return true;
  });
  return n;
}

std::vector<Triple> TripleStore::Match(const TriplePattern& pattern) const {
  std::vector<Triple> out;
  ForEachMatch(pattern, [&out](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

std::vector<TermId> TripleStore::DistinctPredicates() const {
  EnsureIndexes();
  std::vector<TermId> out;
  for (const Triple& t : pos_) {
    if (out.empty() || out.back() != t.predicate) out.push_back(t.predicate);
  }
  return out;
}

std::vector<TermId> TripleStore::DistinctSubjects() const {
  EnsureIndexes();
  std::vector<TermId> out;
  for (const Triple& t : spo_) {
    if (out.empty() || out.back() != t.subject) out.push_back(t.subject);
  }
  return out;
}

}  // namespace alex::rdf
