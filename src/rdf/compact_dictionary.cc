#include "rdf/compact_dictionary.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "rdf/block_format.h"

namespace alex::rdf {
namespace {

const std::string kEmpty;

size_t CommonPrefix(const std::string& a, const std::string& b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

CompactDictionary CompactDictionary::Build(const Dictionary& dict) {
  CompactDictionary out;
  const size_t n = dict.size();
  out.sorted_ids_.resize(n);
  std::iota(out.sorted_ids_.begin(), out.sorted_ids_.end(), TermId{0});
  std::sort(out.sorted_ids_.begin(), out.sorted_ids_.end(),
            [&dict](TermId a, TermId b) { return dict.term(a) < dict.term(b); });
  out.pos_of_id_.resize(n);
  for (size_t pos = 0; pos < n; ++pos) {
    out.pos_of_id_[out.sorted_ids_[pos]] = static_cast<uint32_t>(pos);
  }

  // Side-string (datatype, language tag) dedup map.
  std::unordered_map<std::string, uint32_t> side;
  auto side_index = [&out, &side](const std::string& s) -> uint64_t {
    if (s.empty()) return 0;
    auto it = side.find(s);
    if (it != side.end()) return it->second;
    out.side_strings_.push_back(s);
    const uint32_t idx = static_cast<uint32_t>(out.side_strings_.size());
    side.emplace(s, idx);
    return idx;
  };

  std::string prev;
  for (size_t pos = 0; pos < n; ++pos) {
    const Term& t = dict.term(out.sorted_ids_[pos]);
    if (pos % kBucket == 0) {
      out.restarts_.push_back(out.blob_.size());
      prev.clear();
    }
    const size_t prefix = CommonPrefix(prev, t.value);
    out.blob_.push_back(static_cast<char>(t.kind));
    blockfmt::AppendVarint(&out.blob_, prefix);
    blockfmt::AppendVarint(&out.blob_, t.value.size() - prefix);
    out.blob_.append(t.value, prefix, std::string::npos);
    blockfmt::AppendVarint(&out.blob_, side_index(t.datatype));
    blockfmt::AppendVarint(&out.blob_, side_index(t.language));
    prev = t.value;
  }
  out.blob_.shrink_to_fit();
  return out;
}

template <typename Fn>
void CompactDictionary::DecodeBucket(size_t bucket, Fn&& fn) const {
  const char* p = blob_.data() + restarts_[bucket];
  const char* end = blob_.data() + (bucket + 1 < restarts_.size()
                                        ? restarts_[bucket + 1]
                                        : blob_.size());
  std::string value;
  size_t pos = bucket * kBucket;
  while (p < end) {
    DecodedEntry entry;
    entry.sorted_pos = pos++;
    entry.kind = static_cast<TermKind>(static_cast<uint8_t>(*p++));
    uint64_t prefix = 0, suffix = 0, dt = 0, lang = 0;
    p = blockfmt::DecodeVarint(p, end, &prefix);
    if (p == nullptr) return;
    p = blockfmt::DecodeVarint(p, end, &suffix);
    if (p == nullptr || suffix > static_cast<uint64_t>(end - p)) return;
    value.resize(static_cast<size_t>(prefix));
    value.append(p, static_cast<size_t>(suffix));
    p += suffix;
    p = blockfmt::DecodeVarint(p, end, &dt);
    if (p == nullptr) return;
    p = blockfmt::DecodeVarint(p, end, &lang);
    if (p == nullptr) return;
    entry.datatype_index = static_cast<uint32_t>(dt);
    entry.language_index = static_cast<uint32_t>(lang);
    if (!fn(entry, value)) return;
  }
}

int CompactDictionary::CompareDecoded(const DecodedEntry& entry,
                                      const std::string& value,
                                      const Term& target) const {
  if (entry.kind != target.kind) {
    return static_cast<uint8_t>(entry.kind) < static_cast<uint8_t>(target.kind)
               ? -1
               : 1;
  }
  if (int c = value.compare(target.value); c != 0) return c < 0 ? -1 : 1;
  const std::string& dt =
      entry.datatype_index ? side_strings_[entry.datatype_index - 1] : kEmpty;
  if (int c = dt.compare(target.datatype); c != 0) return c < 0 ? -1 : 1;
  const std::string& lang =
      entry.language_index ? side_strings_[entry.language_index - 1] : kEmpty;
  if (int c = lang.compare(target.language); c != 0) return c < 0 ? -1 : 1;
  return 0;
}

Term CompactDictionary::term(TermId id) const {
  const size_t pos = pos_of_id_[id];
  const size_t bucket = pos / kBucket;
  Term out;
  DecodeBucket(bucket, [this, pos, &out](const DecodedEntry& entry,
                                         const std::string& value) {
    if (entry.sorted_pos != pos) return true;
    out.kind = entry.kind;
    out.value = value;
    if (entry.datatype_index) out.datatype = side_strings_[entry.datatype_index - 1];
    if (entry.language_index) out.language = side_strings_[entry.language_index - 1];
    return false;
  });
  return out;
}

std::optional<TermId> CompactDictionary::Lookup(const Term& target) const {
  if (restarts_.empty()) return std::nullopt;
  // Binary search for the last bucket whose head term is <= target.
  size_t lo = 0, hi = restarts_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    int cmp = 1;
    DecodeBucket(mid, [this, &cmp, &target](const DecodedEntry& entry,
                                            const std::string& value) {
      cmp = CompareDecoded(entry, value, target);
      return false;  // Head entry only.
    });
    if (cmp <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return std::nullopt;  // Every bucket head is > target.
  std::optional<TermId> found;
  DecodeBucket(lo - 1, [this, &found, &target](const DecodedEntry& entry,
                                               const std::string& value) {
    const int cmp = CompareDecoded(entry, value, target);
    if (cmp == 0) {
      found = sorted_ids_[entry.sorted_pos];
      return false;
    }
    return cmp < 0;  // Keep scanning while below target; stop once past it.
  });
  return found;
}

size_t CompactDictionary::ApproxMemoryBytes() const {
  size_t total = sizeof(CompactDictionary);
  total += blob_.capacity();
  total += restarts_.capacity() * sizeof(uint64_t);
  total += sorted_ids_.capacity() * sizeof(TermId);
  total += pos_of_id_.capacity() * sizeof(uint32_t);
  for (const std::string& s : side_strings_) {
    total += sizeof(std::string) + s.capacity();
  }
  return total;
}

}  // namespace alex::rdf
