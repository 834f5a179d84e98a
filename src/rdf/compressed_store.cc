#include "rdf/compressed_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/binary_io.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace alex::rdf {
namespace {

using blockfmt::BlockMeta;
using blockfmt::DecodedBlock;
using blockfmt::Key3;

constexpr char kBlockMagic[8] = {'A', 'L', 'E', 'X', 'B', 'L', 'K', '1'};
constexpr uint32_t kBlockFormatVersion = 1;
constexpr size_t kMaxBlockSize = 1u << 20;

obs::Histogram& DecodeHistogram() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().histogram("rdf.block_decode_seconds");
  return h;
}
obs::Counter& DecodeErrors() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("rdf.block_decode_errors");
  return c;
}

void PublishBytesPerTriple(double value) {
  obs::MetricsRegistry::Global()
      .gauge("rdf.bytes_per_triple")
      .Set(static_cast<int64_t>(value + 0.5));
}

uint64_t CacheKey(TripleOrder order, size_t index) {
  return (static_cast<uint64_t>(order) << 32) | static_cast<uint64_t>(index);
}

}  // namespace

void CompressedTripleStore::EncodeOrdering(
    const std::vector<Triple>& spo_sorted, TripleOrder order,
    size_t block_size, Ordering* out) {
  std::vector<Key3> keys;
  keys.reserve(spo_sorted.size());
  for (const Triple& t : spo_sorted) keys.push_back(blockfmt::Rotate(t, order));
  if (order != TripleOrder::kSpo) std::sort(keys.begin(), keys.end());

  out->blocks.clear();
  out->payload.clear();
  for (size_t begin = 0; begin < keys.size(); begin += block_size) {
    const size_t n = std::min(block_size, keys.size() - begin);
    std::string bytes = blockfmt::EncodeBlock(keys.data() + begin, n);
    BlockMeta meta;
    meta.first = keys[begin];
    meta.last = keys[begin + n - 1];
    meta.count = static_cast<uint32_t>(n);
    meta.offset = out->payload.size();
    meta.length = static_cast<uint32_t>(bytes.size());
    meta.checksum = blockfmt::Fnv1a64(bytes);
    out->payload.append(bytes);
    out->blocks.push_back(meta);
  }
  out->payload.shrink_to_fit();
}

CompressedTripleStore CompressedTripleStore::FromTriples(
    std::vector<Triple> triples, const CompressedStoreOptions& options) {
  std::sort(triples.begin(), triples.end());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());

  CompressedTripleStore store;
  store.options_ = options;
  store.options_.block_size = std::max<size_t>(1, options.block_size);
  store.num_triples_ = triples.size();
  for (size_t i = 0; i < kNumTripleOrders; ++i) {
    EncodeOrdering(triples, static_cast<TripleOrder>(i),
                   store.options_.block_size, &store.orderings_[i]);
  }
  if (store.num_triples_ > 0) {
    PublishBytesPerTriple(store.BytesPerTriple());
  }
  return store;
}

CompressedTripleStore CompressedTripleStore::Build(
    const TripleSource& source, const CompressedStoreOptions& options) {
  std::vector<Triple> triples;
  triples.reserve(source.size());
  source.ForEachMatch(TriplePattern{}, [&triples](const Triple& t) {
    triples.push_back(t);
    return true;
  });
  return FromTriples(std::move(triples), options);
}

size_t CompressedTripleStore::PayloadBytes() const {
  size_t total = 0;
  for (const Ordering& ord : orderings_) {
    if (!ord.payload.empty()) {
      total += ord.payload.size();
    } else {
      for (const BlockMeta& m : ord.blocks) total += m.length;
    }
  }
  return total;
}

size_t CompressedTripleStore::MemoryBytes() const {
  size_t total = 0;
  for (const Ordering& ord : orderings_) {
    total += ord.blocks.capacity() * sizeof(BlockMeta);
    total += ord.payload.capacity();
  }
  if (disk_ != nullptr) total += disk_->cache.bytes();
  return total;
}

double CompressedTripleStore::BytesPerTriple() const {
  if (num_triples_ == 0) return 0.0;
  size_t fences = 0;
  for (const Ordering& ord : orderings_) {
    fences += ord.blocks.size() * sizeof(BlockMeta);
  }
  return static_cast<double>(fences + PayloadBytes()) /
         static_cast<double>(num_triples_);
}

void CompressedTripleStore::InvalidateCache() {
  if (disk_ != nullptr) disk_->cache.Invalidate();
}

BlockCache::BlockPtr CompressedTripleStore::LoadBlock(TripleOrder order,
                                                      size_t index) const {
  const Ordering& ord = orderings_[static_cast<size_t>(order)];
  const BlockMeta& meta = ord.blocks[index];
  std::string bytes;
  if (disk_ == nullptr) {
    bytes = ord.payload.substr(static_cast<size_t>(meta.offset), meta.length);
  } else {
    bytes.resize(meta.length);
    std::lock_guard<std::mutex> lock(disk_->io_mu);
    disk_->file.clear();
    disk_->file.seekg(
        static_cast<std::streamoff>(disk_->payload_start + meta.offset));
    disk_->file.read(bytes.data(), static_cast<std::streamsize>(meta.length));
    if (disk_->file.gcount() != static_cast<std::streamsize>(meta.length)) {
      DecodeErrors().Add();
      ALEX_LOG(kError) << "block file read failed at offset "
                       << (disk_->payload_start + meta.offset) << " ("
                       << disk_->path << ")";
      return nullptr;
    }
  }
  if (blockfmt::Fnv1a64(bytes) != meta.checksum) {
    DecodeErrors().Add();
    ALEX_LOG(kError) << "block checksum mismatch (order "
                     << static_cast<int>(order) << ", block " << index << ")";
    return nullptr;
  }
  auto block = std::make_shared<DecodedBlock>();
  {
    obs::ScopedTimer timer(DecodeHistogram());
    const Status status = blockfmt::DecodeBlock(bytes, meta.count, &block->rows);
    if (!status.ok() || block->rows.front() != meta.first ||
        block->rows.back() != meta.last) {
      DecodeErrors().Add();
      ALEX_LOG(kError) << "block decode failed (order "
                       << static_cast<int>(order) << ", block " << index
                       << "): " << status.message();
      return nullptr;
    }
  }
  return block;
}

BlockCache::BlockPtr CompressedTripleStore::GetBlock(TripleOrder order,
                                                     size_t index) const {
  if (disk_ == nullptr) return LoadBlock(order, index);
  return disk_->cache.GetOrLoad(
      CacheKey(order, index), [this, order, index] { return LoadBlock(order, index); });
}

bool CompressedTripleStore::ScanRange(
    TripleOrder order, const Key3& lo, const Key3& hi,
    const TriplePattern& pattern,
    const std::function<bool(const Triple&)>& fn) const {
  const Ordering& ord = orderings_[static_cast<size_t>(order)];
  auto it = std::lower_bound(
      ord.blocks.begin(), ord.blocks.end(), lo,
      [](const BlockMeta& m, const Key3& key) { return m.last < key; });
  for (; it != ord.blocks.end() && !(hi < it->first); ++it) {
    const size_t index = static_cast<size_t>(it - ord.blocks.begin());
    BlockCache::BlockPtr block = GetBlock(order, index);
    if (block == nullptr) continue;  // Logged + counted in LoadBlock.
    auto row = std::lower_bound(block->rows.begin(), block->rows.end(), lo);
    for (; row != block->rows.end() && !(hi < *row); ++row) {
      const Triple t = blockfmt::Unrotate(*row, order);
      if (pattern.Matches(t) && !fn(t)) return false;
    }
  }
  return true;
}

void CompressedTripleStore::ForEachMatch(
    const TriplePattern& pattern,
    const std::function<bool(const Triple&)>& fn) const {
  const TermId kAny = kInvalidTermId;
  const TermId kMax = kInvalidTermId;  // UINT32_MAX also serves as +inf.
  const bool s = pattern.subject != kAny;
  const bool p = pattern.predicate != kAny;
  const bool o = pattern.object != kAny;

  // Same index routing as TripleStore, over rotated fence keys.
  if (s) {
    if (!p && o) {
      ScanRange(TripleOrder::kOsp, Key3{pattern.object, pattern.subject, 0},
                Key3{pattern.object, pattern.subject, kMax}, pattern, fn);
      return;
    }
    ScanRange(TripleOrder::kSpo,
              Key3{pattern.subject, p ? pattern.predicate : 0,
                   (p && o) ? pattern.object : 0},
              Key3{pattern.subject, p ? pattern.predicate : kMax,
                   (p && o) ? pattern.object : kMax},
              pattern, fn);
    return;
  }
  if (p) {
    ScanRange(TripleOrder::kPos,
              Key3{pattern.predicate, o ? pattern.object : 0, 0},
              Key3{pattern.predicate, o ? pattern.object : kMax, kMax},
              pattern, fn);
    return;
  }
  if (o) {
    ScanRange(TripleOrder::kOsp, Key3{pattern.object, 0, 0},
              Key3{pattern.object, kMax, kMax}, pattern, fn);
    return;
  }
  ScanRange(TripleOrder::kSpo, Key3{0, 0, 0}, Key3{kMax, kMax, kMax}, pattern,
            fn);
}

std::vector<TermId> CompressedTripleStore::DistinctLeading(
    TripleOrder order) const {
  const Ordering& ord = orderings_[static_cast<size_t>(order)];
  std::vector<TermId> out;
  for (size_t i = 0; i < ord.blocks.size(); ++i) {
    const BlockMeta& meta = ord.blocks[i];
    // A block entirely inside one leading value contributes nothing new.
    if (!out.empty() && meta.first.a == out.back() &&
        meta.last.a == out.back()) {
      continue;
    }
    BlockCache::BlockPtr block = GetBlock(order, i);
    if (block == nullptr) continue;
    for (const Key3& row : block->rows) {
      if (out.empty() || row.a != out.back()) out.push_back(row.a);
    }
  }
  return out;
}

std::vector<TermId> CompressedTripleStore::DistinctPredicates() const {
  return DistinctLeading(TripleOrder::kPos);
}

std::vector<TermId> CompressedTripleStore::DistinctSubjects() const {
  return DistinctLeading(TripleOrder::kSpo);
}

Status CompressedTripleStore::WriteFile(const std::string& path) const {
  if (disk_ != nullptr) {
    return Status::InvalidArgument(
        "cannot re-serialize a disk-backed store (copy the block file)");
  }
  BinaryWriter header;
  header.WriteRaw(std::string_view(kBlockMagic, sizeof(kBlockMagic)));
  header.WriteU32(kBlockFormatVersion);
  header.WriteU32(static_cast<uint32_t>(options_.block_size));
  header.WriteU64(num_triples_);
  uint64_t region_base = 0;
  uint64_t total_payload = 0;
  for (const Ordering& ord : orderings_) {
    header.WriteU64(ord.blocks.size());
    for (const BlockMeta& m : ord.blocks) {
      header.WriteU32(m.first.a);
      header.WriteU32(m.first.b);
      header.WriteU32(m.first.c);
      header.WriteU32(m.last.a);
      header.WriteU32(m.last.b);
      header.WriteU32(m.last.c);
      header.WriteU32(m.count);
      // Offsets are region-relative in memory, absolute in the file's
      // payload section.
      header.WriteU64(region_base + m.offset);
      header.WriteU32(m.length);
      header.WriteU64(m.checksum);
    }
    region_base += ord.payload.size();
    total_payload += ord.payload.size();
  }
  header.WriteU64(total_payload);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open block file for write: " + path);
  const std::string& head = header.buffer();
  out.write(head.data(), static_cast<std::streamsize>(head.size()));
  for (const Ordering& ord : orderings_) {
    out.write(ord.payload.data(),
              static_cast<std::streamsize>(ord.payload.size()));
  }
  out.flush();
  if (!out) return Status::IOError("block file write failed: " + path);
  return Status::OK();
}

Result<CompressedTripleStore> CompressedTripleStore::OpenFile(
    const std::string& path, const CompressedStoreOptions& options) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open block file: " + path);
  file.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(file.tellg());
  file.seekg(0);

  // The header is tiny next to payloads; read it bounds-checked in memory.
  // Fixed prefix: magic + version + block_size + triple count.
  constexpr size_t kFixedPrefix = 8 + 4 + 4 + 8;
  std::string prefix(kFixedPrefix, '\0');
  file.read(prefix.data(), kFixedPrefix);
  if (file.gcount() != static_cast<std::streamsize>(kFixedPrefix)) {
    return Status::ParseError("truncated block file header");
  }
  BinaryReader reader(prefix);
  std::string_view magic;
  ALEX_RETURN_NOT_OK(reader.ReadRaw(sizeof(kBlockMagic), &magic));
  if (std::memcmp(magic.data(), kBlockMagic, sizeof(kBlockMagic)) != 0) {
    return Status::ParseError("not an ALEXBLK1 block file");
  }
  uint32_t version = 0, block_size = 0;
  uint64_t num_triples = 0;
  ALEX_RETURN_NOT_OK(reader.ReadU32(&version));
  ALEX_RETURN_NOT_OK(reader.ReadU32(&block_size));
  ALEX_RETURN_NOT_OK(reader.ReadU64(&num_triples));
  if (version != kBlockFormatVersion) {
    return Status::ParseError("unsupported block file version " +
                              std::to_string(version));
  }
  if (block_size == 0 || block_size > kMaxBlockSize) {
    return Status::ParseError("block size out of range: " +
                              std::to_string(block_size));
  }

  CompressedTripleStore store;
  store.options_ = options;
  store.options_.block_size = block_size;
  store.num_triples_ = num_triples;

  const uint64_t expected_blocks =
      (num_triples + block_size - 1) / block_size;
  constexpr size_t kMetaBytes = 6 * 4 + 4 + 8 + 4 + 8;
  for (size_t oi = 0; oi < kNumTripleOrders; ++oi) {
    std::string count_buf(8, '\0');
    file.read(count_buf.data(), 8);
    if (file.gcount() != 8) {
      return Status::ParseError("truncated block count for ordering " +
                                std::to_string(oi));
    }
    BinaryReader count_reader(count_buf);
    uint64_t num_blocks = 0;
    ALEX_RETURN_NOT_OK(count_reader.ReadU64(&num_blocks));
    if (num_blocks != expected_blocks) {
      return Status::ParseError(
          "block count mismatch for ordering " + std::to_string(oi) +
          ": have " + std::to_string(num_blocks) + ", expect " +
          std::to_string(expected_blocks));
    }
    // Both counts come from the header: bound the table by the bytes left
    // in the file before allocating it, so a forged count cannot ask for
    // terabytes (or overflow the multiplication).
    const uint64_t bytes_left = file_size - static_cast<uint64_t>(file.tellg());
    if (num_blocks > bytes_left / kMetaBytes) {
      return Status::ParseError("fence table for ordering " +
                                std::to_string(oi) + " exceeds the file: " +
                                std::to_string(num_blocks) + " blocks");
    }
    std::string table(static_cast<size_t>(num_blocks) * kMetaBytes, '\0');
    file.read(table.data(), static_cast<std::streamsize>(table.size()));
    if (file.gcount() != static_cast<std::streamsize>(table.size())) {
      return Status::ParseError("truncated fence table for ordering " +
                                std::to_string(oi));
    }
    BinaryReader table_reader(table);
    Ordering& ord = store.orderings_[oi];
    ord.blocks.reserve(static_cast<size_t>(num_blocks));
    uint64_t counted = 0;
    for (uint64_t bi = 0; bi < num_blocks; ++bi) {
      BlockMeta m;
      ALEX_RETURN_NOT_OK(table_reader.ReadU32(&m.first.a));
      ALEX_RETURN_NOT_OK(table_reader.ReadU32(&m.first.b));
      ALEX_RETURN_NOT_OK(table_reader.ReadU32(&m.first.c));
      ALEX_RETURN_NOT_OK(table_reader.ReadU32(&m.last.a));
      ALEX_RETURN_NOT_OK(table_reader.ReadU32(&m.last.b));
      ALEX_RETURN_NOT_OK(table_reader.ReadU32(&m.last.c));
      ALEX_RETURN_NOT_OK(table_reader.ReadU32(&m.count));
      ALEX_RETURN_NOT_OK(table_reader.ReadU64(&m.offset));
      ALEX_RETURN_NOT_OK(table_reader.ReadU32(&m.length));
      ALEX_RETURN_NOT_OK(table_reader.ReadU64(&m.checksum));
      if (m.count == 0 || m.count > block_size) {
        return Status::ParseError("fence count out of range at block " +
                                  std::to_string(bi));
      }
      if (m.length == 0 || (m.last < m.first)) {
        return Status::ParseError("corrupt fence at block " +
                                  std::to_string(bi));
      }
      if (!ord.blocks.empty() && !(ord.blocks.back().last < m.first)) {
        return Status::ParseError("fences not strictly ordered at block " +
                                  std::to_string(bi));
      }
      counted += m.count;
      ord.blocks.push_back(m);
    }
    if (counted != num_triples) {
      return Status::ParseError("fence counts sum to " +
                                std::to_string(counted) + ", expect " +
                                std::to_string(num_triples));
    }
  }

  std::string payload_buf(8, '\0');
  file.read(payload_buf.data(), 8);
  if (file.gcount() != 8) {
    return Status::ParseError("truncated payload length");
  }
  BinaryReader payload_reader(payload_buf);
  uint64_t total_payload = 0;
  ALEX_RETURN_NOT_OK(payload_reader.ReadU64(&total_payload));
  const uint64_t payload_start = static_cast<uint64_t>(file.tellg());
  if (payload_start + total_payload != file_size) {
    return Status::ParseError(
        "payload section length mismatch: declared " +
        std::to_string(total_payload) + " bytes, file holds " +
        std::to_string(file_size - payload_start));
  }
  for (const Ordering& ord : store.orderings_) {
    for (const BlockMeta& m : ord.blocks) {
      if (m.offset + m.length > total_payload) {
        return Status::ParseError("block extent past payload section end");
      }
    }
  }

  store.disk_ = std::make_unique<DiskState>(options.cache_budget_bytes);
  store.disk_->path = path;
  store.disk_->payload_start = payload_start;
  store.disk_->file = std::move(file);
  if (store.num_triples_ > 0) PublishBytesPerTriple(store.BytesPerTriple());
  return store;
}

}  // namespace alex::rdf
