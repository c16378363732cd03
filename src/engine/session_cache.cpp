#include "engine/session_cache.h"

#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <utility>

#include "engine/engine.h"

namespace covest::engine {

/// Parked entries in release order (front = oldest, the eviction
/// victim). The deque stays tiny (== capacity), so linear scans beat
/// any index structure.
struct SessionCache::State {
  mutable std::mutex mu;
  std::deque<Entry> entries;
  SessionCacheStats stats;
};

namespace {

/// Rebinds the session's manager to this thread and drops the handle —
/// destruction of a thread-affine manager must happen on a thread that
/// owns it (the cache mutex serializes, so the rebind itself is safe).
void destroy_here(std::shared_ptr<Session>&& session) {
  session->fsm().mgr().rebind_to_current_thread();
  session.reset();
}

}  // namespace

bool SessionKey::matches(const SessionKey& other) const {
  // Hash first: it almost always decides, and the exact compare after
  // it is what turns a collision into a miss instead of a wrong model.
  return hash == other.hash && max_live_nodes == other.max_live_nodes &&
         options.restrict_to_fair == other.options.restrict_to_fair &&
         options.exclude_dontcares == other.options.exclude_dontcares &&
         options.require_holds == other.options.require_holds &&
         options.image_strategy == other.options.image_strategy &&
         source == other.source;
}

SessionCache::SessionCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), state_(new State) {}

SessionCache::~SessionCache() { clear(); }

SessionKey SessionCache::key_of(std::string source,
                                const core::CoverageOptions& options,
                                std::size_t max_live_nodes) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(std::hash<std::string>{}(source));
  mix(source.size());
  mix((options.restrict_to_fair ? 1u : 0u) |
      (options.exclude_dontcares ? 2u : 0u) |
      (options.require_holds ? 4u : 0u) |
      (static_cast<unsigned>(options.image_strategy) << 3));
  mix(max_live_nodes);

  SessionKey key;
  key.hash = h;
  key.source = std::move(source);
  key.options = options;
  key.max_live_nodes = max_live_nodes;
  return key;
}

std::shared_ptr<Session> SessionCache::acquire(const SessionKey& key) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    for (auto it = state_->entries.begin(); it != state_->entries.end();
         ++it) {
      if (it->key.matches(key)) {
        session = std::move(it->session);
        state_->entries.erase(it);
        ++state_->stats.hits;
        break;
      }
    }
    if (!session) ++state_->stats.misses;
  }
  // The lease is exclusive from here on: hand the manager to the
  // calling (worker) thread outside the lock.
  if (session) session->fsm().mgr().rebind_to_current_thread();
  return session;
}

void SessionCache::release(const SessionKey& key,
                           std::shared_ptr<Session> session,
                           std::size_t live_nodes) {
  if (!session) return;
  std::shared_ptr<Session> doomed;  ///< Destroyed outside the lock.
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    for (const Entry& e : state_->entries) {
      if (e.key.matches(key)) {
        // A concurrent miss elaborated a duplicate; the incumbent (with
        // its warmer caches) wins and the younger copy is dropped.
        ++state_->stats.discards;
        doomed = std::move(session);
        break;
      }
    }
    if (!doomed) {
      if (state_->entries.size() >= capacity_) {
        doomed = std::move(state_->entries.front().session);
        state_->entries.pop_front();
        ++state_->stats.evictions;
      }
      state_->entries.push_back(Entry{key, std::move(session), live_nodes});
      ++state_->stats.insertions;
    }
  }
  if (doomed) destroy_here(std::move(doomed));
}

void SessionCache::clear() {
  std::deque<Entry> drained;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    drained.swap(state_->entries);
  }
  for (Entry& e : drained) destroy_here(std::move(e.session));
}

SessionCacheStats SessionCache::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  SessionCacheStats s = state_->stats;
  s.entries = state_->entries.size();
  s.live_nodes = 0;
  for (const Entry& e : state_->entries) s.live_nodes += e.live_nodes;
  return s;
}

}  // namespace covest::engine
