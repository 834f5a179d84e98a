#include "federation/probe_cache.h"

#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "obs/query_stats.h"
#include "obs/trace.h"

namespace alex::fed {
namespace {

obs::Counter& HitsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("fed.probe_cache_hits");
  return c;
}
obs::Counter& MissesCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("fed.probe_cache_misses");
  return c;
}
obs::Counter& EvictionsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("fed.probe_cache_evictions");
  return c;
}

}  // namespace

CachingEndpoint::CachingEndpoint(const QueryEndpoint* inner,
                                 ProbeCacheConfig config, EpochFn epoch)
    : inner_(inner), config_(config), epoch_fn_(std::move(epoch)) {
  if (epoch_fn_) last_epoch_ = epoch_fn_();
}

CachingEndpoint::Key CachingEndpoint::MakeKeyLocked(
    const PatternProbe& probe) const {
  Key key;
  if (probe.subject != nullptr) key.s = key_dict_.Intern(*probe.subject);
  if (probe.predicate != nullptr) key.p = key_dict_.Intern(*probe.predicate);
  if (probe.object != nullptr) key.o = key_dict_.Intern(*probe.object);
  return key;
}

void CachingEndpoint::FlushLocked() const {
  lru_.clear();
  map_.clear();
}

void CachingEndpoint::InsertLocked(const Key& key, Rows rows) const {
  auto it = map_.find(key);
  if (it != map_.end()) {
    // A racing thread cached this key first; refresh the value.
    it->second->rows = std::move(rows);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(rows)});
  map_.emplace(key, lru_.begin());
  while (map_.size() > config_.max_entries) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
    EvictionsCounter().Add(1);
  }
}

Status CachingEndpoint::Probe(const PatternProbe& probe,
                              const ProbeRowFn& fn) const {
  const bool cacheable = config_.cache_unbounded_probes ||
                         probe.subject != nullptr ||
                         probe.predicate != nullptr || probe.object != nullptr;
  if (!cacheable) return inner_->Probe(probe, fn);

  // Child span of the enclosing pattern_probe; `hit` tells Perfetto (and
  // the linkage test) whether the rows below came from the cache or the
  // decorated endpoint.
  ALEX_TRACE_SPAN_VAR(cache_span, "federation", "CachingEndpoint::Probe");
  cache_span.AddArg("endpoint", std::string_view(name()));

  Key key;
  Rows cached;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (epoch_fn_) {
      const uint64_t epoch = epoch_fn_();
      if (epoch != last_epoch_) {
        FlushLocked();
        last_epoch_ = epoch;
      }
    }
    key = MakeKeyLocked(probe);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      cached = it->second->rows;
      ++hits_;
    } else {
      ++misses_;
    }
  }

  cache_span.AddArg("hit", static_cast<bool>(cached));
  if (obs::ActiveQueryStats* stats = obs::CurrentQueryStats()) {
    if (cached) {
      ++stats->probe_cache_hits;
    } else {
      ++stats->probe_cache_misses;
    }
  }
  if (cached) {
    HitsCounter().Add(1);
    // Replay outside the lock: the callback may recursively probe this same
    // endpoint (bound joins), and the caller may stop early.
    for (const CachedRow& row : *cached) {
      if (!fn(row.terms[0] ? &*row.terms[0] : nullptr,
              row.terms[1] ? &*row.terms[1] : nullptr,
              row.terms[2] ? &*row.terms[2] : nullptr)) {
        return Status::OK();
      }
    }
    return Status::OK();
  }
  MissesCounter().Add(1);

  auto rows = std::make_shared<std::vector<CachedRow>>();
  bool truncated = false;
  bool oversize = false;
  const Status st = inner_->Probe(
      probe,
      [&](const rdf::Term* s, const rdf::Term* p, const rdf::Term* o) {
        if (!oversize) {
          if (rows->size() >= config_.max_rows_per_entry) {
            oversize = true;
            rows->clear();
          } else {
            CachedRow row;
            if (s != nullptr) row.terms[0] = *s;
            if (p != nullptr) row.terms[1] = *p;
            if (o != nullptr) row.terms[2] = *o;
            rows->push_back(std::move(row));
          }
        }
        const bool keep = fn(s, p, o);
        if (!keep) truncated = true;
        return keep;
      });

  // Only complete, successful streams are cached — a failed or truncated
  // probe must hit the real endpoint again next time.
  if (st.ok() && !truncated && !oversize) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!epoch_fn_ || epoch_fn_() == last_epoch_) {
      InsertLocked(key, Rows(std::move(rows)));
    }
  }
  return st;
}

void CachingEndpoint::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
}

size_t CachingEndpoint::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

uint64_t CachingEndpoint::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t CachingEndpoint::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t CachingEndpoint::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace alex::fed
