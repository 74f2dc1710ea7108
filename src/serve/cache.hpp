#pragma once
// Bounded LRU result cache for hot query windows, with epoch-based and
// delta-scoped invalidation.
//
// Serving traffic is heavily repetitive -- the same map windows are
// requested over and over ("hot windows") -- so the cluster caches kOk
// answers keyed on the *canonicalized* request: (kind, index, geometry,
// k), with payload fields the kind does not use zeroed out (a window
// request's point and k never reach the key; -0.0 canonicalizes to 0.0).
// Two geometrically identical requests therefore share one entry no
// matter how their unused fields differ.
//
// Invalidation comes in two granularities:
//
//   * `bump_epoch` (every mount / remount) advances the epoch and drops
//     every entry, so a cached answer can never outlive the index
//     generation that produced it.
//   * `invalidate_delta` (every live update) drops only the entries whose
//     *footprint* intersects the dirty region -- the union of the update's
//     delta MBRs.  An entry's footprint (KindOps::entry_footprint, defined
//     per request kind in serve/kinds.cpp) over-approximates the geometry
//     its answer depends on, or is unbounded (always dropped), so a
//     changed segment outside it cannot change the answer and surviving
//     entries stay exact.
//
// Both paths advance the cache *version*, which closes the stale-fill
// race: a serve() that read the pre-update indexes passes the version it
// started from to `insert`, and the fill is rejected once an update
// intervened (a fill that raced ahead of the sweep would otherwise
// resurrect a pre-update answer inside the dirty region).
//
// The cache is a pure memo: it stores only terminal kOk payloads, never
// statuses that depend on time (deadlines) or engine state.
//
// Thread-safe; every operation takes the cache mutex (entries are small
// and the critical sections are copies, not queries).

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/nearest.hpp"
#include "serve/request.hpp"

namespace dps::serve {

struct CacheOptions {
  /// Master switch; a disabled cache never hits and stores nothing.
  bool enabled = true;
  /// Entry budget; inserting beyond it evicts the least recently used
  /// entry.  0 behaves like `enabled = false`.
  std::size_t capacity = 4096;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;      // LRU capacity evictions
  std::uint64_t invalidations = 0;  // total entries dropped (epoch + delta)
  std::uint64_t epoch = 0;          // current index generation
  std::size_t entries = 0;          // live entries right now
  // The invalidation split the delta-scoped path exists for: entries a
  // full flush dropped vs entries dropped because their footprint met a
  // dirty region.  epoch_flush + delta_scoped == invalidations.
  std::uint64_t epoch_flush = 0;
  std::uint64_t delta_scoped = 0;
  std::uint64_t version = 0;  // bumped by every invalidation event
};

class ResultCache {
 public:
  /// Canonical cache key: the fields of a Request that determine its kOk
  /// answer, and nothing else.  Geometry doubles are carried as bit
  /// patterns (exact match semantics; -0.0 folded to 0.0).
  struct Key {
    std::uint8_t kind = 0;
    std::uint8_t index = 0;
    std::uint64_t k = 0;
    std::uint64_t g0 = 0, g1 = 0, g2 = 0, g3 = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };

  static Key canonical_key(const Request& rq) noexcept;

  explicit ResultCache(const CacheOptions& opts) : opts_(opts) {}

  /// True when the cache can ever hold an entry (enabled with a nonzero
  /// capacity).  A cluster skips lookup/fill -- and the hit/miss
  /// accounting -- entirely for an unusable cache.
  bool enabled() const noexcept { return usable(); }

  /// Copies the cached kOk payload for `key` into `out` (the payload field
  /// of the request kind) and refreshes its recency.  False = miss; `out`
  /// is untouched.
  bool lookup(const Key& key, Response& out);

  /// Memoizes a kOk response's payload under `key` at the current epoch.
  /// Re-inserting an existing key refreshes its payload and recency.
  void insert(const Key& key, const Response& rsp);

  /// Version-guarded fill: as `insert`, but a no-op when the cache version
  /// has moved past `if_version` -- the answer was computed against index
  /// generations an update or remount has since replaced, and memoizing it
  /// could resurrect a stale payload the sweep already dropped.
  void insert(const Key& key, const Response& rsp, std::uint64_t if_version);

  /// Advances the epoch and drops every entry of the previous one.  The
  /// cluster calls this under its exclusive mount lock, so a remount can
  /// never serve a stale answer.
  void bump_epoch();

  /// Delta-scoped invalidation: drops exactly the entries whose footprint
  /// intersects any rect of `dirty` (closed-rect semantics, like the rest
  /// of the geometry layer), plus every entry with an unbounded footprint.
  /// Called by the cluster *after* the updated generations publish, so a
  /// concurrent reader either sees the new indexes or its stale fill is
  /// version-rejected.  Returns the number of entries dropped.  Oversized
  /// dirty lists collapse to their MBR union (still conservative).
  std::size_t invalidate_delta(const std::vector<geom::Rect>& dirty);

  std::uint64_t epoch() const;
  /// Monotonic invalidation-event counter (see the version-guarded
  /// `insert`); advanced by `bump_epoch` and `invalidate_delta`.
  std::uint64_t version() const;
  CacheStats stats() const;

 private:
  struct Entry {
    Key key;
    std::uint64_t epoch = 0;
    Response payload;  // only the kind's payload field is filled
  };

  bool usable() const noexcept { return opts_.enabled && opts_.capacity > 0; }

  /// Fills or refreshes `key`'s entry at the current epoch and evicts past
  /// capacity; the caller holds `mutex_`.
  void store(const Key& key, const Response& rsp);

  CacheOptions opts_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // most recent first
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
  std::uint64_t epoch_ = 0;
  std::uint64_t version_ = 0;
  CacheStats stats_;
};

}  // namespace dps::serve
