// The warm model cache — the cross-request half of the server's
// parse/elaborate/verify reuse (Session::run's verified-suite record is
// the per-suite half).
//
// A `SessionCache` parks elaborated `Session`s between jobs, keyed by
// the *raw model source bytes* plus everything that shapes elaboration:
// the `core::CoverageOptions` policy bits and the manager's node
// budget. A 64-bit structural hash accelerates the scan, but a hit
// requires the exact inputs to match — a hash collision misses instead
// of serving the wrong model. A repeat request whose source matches a
// parked session skips parse and elaborate entirely; if its suite also
// matches the session's verified-suite record, verification is skipped
// too and the whole request reduces to (cached) estimation. Keying on
// the bytes — not the path — means an edited model file misses
// naturally and a moved-but-identical file still hits.
//
// Leases, not shared access. A `BddManager` is thread-affine, so a
// parked session can never be used by two jobs at once: `acquire`
// *removes* the entry and hands the caller exclusive ownership;
// `release` rebinds nothing (the caller's thread already owns the
// manager) and re-inserts. Two concurrent requests for the same key
// simply miss on the second — it elaborates its own session, and on
// release the younger duplicate is discarded. The executor strips the
// live `covered` BDD handles from a leased job's rows before release,
// so nothing a consumer thread destroys can race the next lease's
// worker (see executor.cpp).
//
// Capacity is a hard entry cap with oldest-release-first eviction; an
// evicted or superseded session is destroyed on the calling thread
// (its manager is rebound here first — destruction is single-threaded
// by the cache mutex's happens-before).
//
// The cache never touches a parked manager. Reclamation is the BDD
// kernel's own: a manager collects by itself at an operation boundary
// once its pool outgrows its live set (bdd.h, `set_gc_threshold`), so
// a parked session holds at most the garbage its last job left.
//
// Thread safety: every member is safe to call from any thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/coverage.h"

namespace covest::engine {

class Session;

/// A cache key: the 64-bit structural hash for fast scanning plus the
/// exact inputs it was derived from. Lookups compare the hash first and
/// then the exact fields — a `std::hash` collision between two different
/// model sources must miss, never serve the wrong elaborated model.
/// `hash` is writable as a test seam (force two keys onto one value).
struct SessionKey {
  std::uint64_t hash = 0;
  std::string source;
  core::CoverageOptions options;
  std::size_t max_live_nodes = 0;

  /// Exact equality: hash AND every elaboration-shaping input.
  bool matches(const SessionKey& other) const;
};

/// Point-in-time counters of a `SessionCache`. Hits + misses equal the
/// `acquire` calls. Every `release` either parks its session
/// (`insertions`, bumping `evictions` too when the oldest entry was
/// displaced to make room) or drops it as a duplicate (`discards`), so
/// insertions + discards equal the `release` calls. `live_nodes` sums
/// the parked sessions' BDD node counts as recorded at release time —
/// the server's cache-occupancy metric.
struct SessionCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t discards = 0;
  std::size_t entries = 0;
  std::size_t live_nodes = 0;
};

class SessionCache {
 public:
  /// `capacity` = max parked sessions (at least 1).
  explicit SessionCache(std::size_t capacity = 8);
  ~SessionCache();

  SessionCache(const SessionCache&) = delete;
  SessionCache& operator=(const SessionCache&) = delete;

  /// The cache key of a request: the raw model source bytes plus the
  /// elaboration-shaping knobs, with the structural hash precomputed.
  /// Two requests with matching keys elaborate byte-identical sessions.
  static SessionKey key_of(std::string source,
                           const core::CoverageOptions& options,
                           std::size_t max_live_nodes);

  /// Takes the parked session matching `key` (hash and exact inputs)
  /// out of the cache (exclusive lease), or returns nullptr on a miss.
  /// The session's manager is rebound to the calling thread before it
  /// is returned.
  std::shared_ptr<Session> acquire(const SessionKey& key);

  /// Parks `session` under `key`. `live_nodes` is the manager's node
  /// count as measured by the releasing (owning) thread — the cache
  /// must not touch a parked manager, so occupancy is recorded here.
  /// A duplicate key discards `session`; a full cache evicts its
  /// oldest-released entry.
  void release(const SessionKey& key, std::shared_ptr<Session> session,
               std::size_t live_nodes);

  /// Destroys every parked session (on the calling thread).
  void clear();

  std::size_t capacity() const { return capacity_; }
  SessionCacheStats stats() const;

 private:
  struct Entry {
    SessionKey key;
    std::shared_ptr<Session> session;
    std::size_t live_nodes = 0;
  };

  struct State;
  const std::size_t capacity_;
  std::unique_ptr<State> state_;
};

}  // namespace covest::engine
