#include "serve/cache.hpp"

#include <optional>

#include "dpv/fault.hpp"  // dpv::mix64
#include "serve/kinds.hpp"

namespace dps::serve {

namespace {

/// Past this many dirty rects a sweep would test every entry against a
/// long list for little gain; collapse to the MBR union instead (coarser
/// but still conservative).
constexpr std::size_t kMaxDirtyRects = 64;

const KindOps& ops_of(const ResultCache::Key& key) noexcept {
  return kind_ops(static_cast<RequestKind>(key.kind));
}

}  // namespace

std::size_t ResultCache::KeyHash::operator()(const Key& k) const noexcept {
  std::uint64_t h = dpv::mix64(
      (static_cast<std::uint64_t>(k.kind) << 8) | k.index);
  h = dpv::mix64(h ^ k.k);
  h = dpv::mix64(h ^ k.g0);
  h = dpv::mix64(h ^ k.g1);
  h = dpv::mix64(h ^ k.g2);
  h = dpv::mix64(h ^ k.g3);
  return static_cast<std::size_t>(h);
}

ResultCache::Key ResultCache::canonical_key(const Request& rq) noexcept {
  Key key;
  key.kind = static_cast<std::uint8_t>(rq.kind);
  key.index = static_cast<std::uint8_t>(rq.index);
  kind_ops(rq.kind).canonical_key(rq, key);
  return key;
}

bool ResultCache::lookup(const Key& key, Response& out) {
  if (!usable()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end() || it->second->epoch != epoch_) {
    // A stale-epoch entry can only exist transiently (bump_epoch drops
    // them eagerly); treat it as a miss either way.
    ++stats_.misses;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ops_of(key).take(out, it->second->payload);
  out.status = Status::kOk;
  ++stats_.hits;
  return true;
}

void ResultCache::insert(const Key& key, const Response& rsp) {
  if (!usable() || rsp.status != Status::kOk) return;
  std::lock_guard<std::mutex> lock(mutex_);
  store(key, rsp);
}

void ResultCache::insert(const Key& key, const Response& rsp,
                         std::uint64_t if_version) {
  if (!usable() || rsp.status != Status::kOk) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (version_ != if_version) return;  // an invalidation intervened
  store(key, rsp);
}

void ResultCache::store(const Key& key, const Response& rsp) {
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->epoch = epoch_;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, epoch_, {}});
    it = map_.emplace(key, lru_.begin()).first;
  }
  ops_of(key).take(it->second->payload, rsp);
  while (map_.size() > opts_.capacity) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void ResultCache::bump_epoch() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++epoch_;
  ++version_;
  stats_.invalidations += map_.size();
  stats_.epoch_flush += map_.size();
  map_.clear();
  lru_.clear();
}

std::size_t ResultCache::invalidate_delta(
    const std::vector<geom::Rect>& dirty) {
  if (dirty.empty()) return 0;
  std::vector<geom::Rect> region;
  if (dirty.size() > kMaxDirtyRects) {
    geom::Rect u = geom::Rect::empty();
    for (const geom::Rect& r : dirty) u = u.united(r);
    region.push_back(u);
  } else {
    region = dirty;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  ++version_;  // even a sweep that drops nothing fences stale fills
  std::size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    const std::optional<geom::Rect> fp =
        ops_of(it->key).entry_footprint(it->key, it->payload);
    bool hit = !fp.has_value();  // unbounded entries always drop
    for (std::size_t i = 0; !hit && i < region.size(); ++i) {
      hit = fp->intersects(region[i]);
    }
    if (hit) {
      map_.erase(it->key);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.invalidations += dropped;
  stats_.delta_scoped += dropped;
  return dropped;
}

std::uint64_t ResultCache::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

std::uint64_t ResultCache::version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return version_;
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats out = stats_;
  out.epoch = epoch_;
  out.entries = map_.size();
  out.version = version_;
  return out;
}

}  // namespace dps::serve
