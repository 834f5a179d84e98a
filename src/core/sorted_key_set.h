#ifndef ALEX_CORE_SORTED_KEY_SET_H_
#define ALEX_CORE_SORTED_KEY_SET_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "feedback/ground_truth.h"

namespace alex::core {

/// A set of PairKeys kept as one ascending, duplicate-free vector. Lookups,
/// inserts and erases are binary searches (inserts and erases then shift
/// the tail), iteration is ascending, and the k-th smallest key is a plain
/// index. An engine's candidate set lives here: the canonical candidate
/// order (DESIGN.md) is this order, so sampling feedback by index needs no
/// snapshot, and equal sets compare, iterate and serialize identically
/// whatever their insertion history.
class SortedKeySet {
 public:
  using value_type = feedback::PairKey;
  using iterator = std::vector<value_type>::const_iterator;
  using const_iterator = iterator;

  SortedKeySet() = default;
  /// Any key range; duplicates collapse.
  template <typename It>
  SortedKeySet(It first, It last) {
    insert(first, last);
  }

  size_t count(value_type key) const {
    return std::binary_search(keys_.begin(), keys_.end(), key) ? 1 : 0;
  }

  /// Returns the key's position and whether it was newly inserted.
  std::pair<iterator, bool> insert(value_type key) {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it != keys_.end() && *it == key) return {it, false};
    return {keys_.insert(it, key), true};
  }

  /// Inserts a key range: sorts it, merges it in, drops duplicates.
  template <typename It>
  void insert(It first, It last) {
    const auto mid = static_cast<std::ptrdiff_t>(keys_.size());
    keys_.insert(keys_.end(), first, last);
    std::sort(keys_.begin() + mid, keys_.end());
    std::inplace_merge(keys_.begin(), keys_.begin() + mid, keys_.end());
    keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  }

  /// Returns the number of keys removed (0 or 1).
  size_t erase(value_type key) {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it == keys_.end() || *it != key) return 0;
    keys_.erase(it);
    return 1;
  }

  /// The k-th smallest key; `k < size()`.
  value_type operator[](size_t k) const { return keys_[k]; }

  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  iterator begin() const { return keys_.begin(); }
  iterator end() const { return keys_.end(); }

  friend bool operator==(const SortedKeySet&, const SortedKeySet&) = default;

 private:
  std::vector<value_type> keys_;
};

}  // namespace alex::core

#endif  // ALEX_CORE_SORTED_KEY_SET_H_
