// Node pool, unique tables, reference counting, garbage collection and
// the shared (sharded) mode machinery.
//
// Shared-mode memory model, in one place:
//
//  * A node's fields (var/low/high) are written exactly once, before the
//    node is *published*. Publication is a release edge matched by an
//    acquire on the consumer side, and its shape depends on the epoch's
//    TableMode:
//      - kLockFree: the node is linked into its unique-subtable chain
//        by a release `compare_exchange` on the bucket head; readers
//        acquire-load the head (and each chain link). A bucket head
//        only ever moves by prepending during an epoch — nothing is
//        removed or rehashed — so CAS retries cannot ABA, and a reader
//        that loses a race at worst walks a longer chain. The computed
//        cache publishes through the seqlock stamp of its LfCacheEntry
//        (release store of the even stamp, acquire load on the reader).
//      - kStriped: the stripe mutexes double as the publication fence
//        (the PR-4 scheme, kept selectable for benchmarking).
//    Either way a thread can only learn a node's index through one of
//    those release/acquire channels (or through a root handle created
//    before the threads were spawned), so every cross-thread read of
//    node fields is ordered after the initializing writes. Live node
//    fields are never mutated while shared mode is on (reordering stays
//    exclusive-mode); shared-mode collections mutate only *dead* nodes,
//    and only while every other thread is paused at an operation
//    boundary (see the reclamation section at the end of this file).
//  * Segment pointers are published the same way: a segment is
//    installed under `alloc_mu_` before any slot inside it is handed
//    out, and slot indices travel only through the synchronized
//    channels above.
//  * `allocated_` is an atomic bumped under `alloc_mu_`; traversals
//    size their per-thread stamp arrays from a relaxed load, which is
//    safe because every slot reachable from a published edge was
//    allocated (and counted) before that edge was published (the
//    release/acquire publication edge carries the counter write too).
//  * External reference counts are relaxed atomics: a shared-mode
//    collection reads them while every other thread is paused, and a
//    handle that was live at the pause has completed its increment
//    before its owner reached the boundary (program order within the
//    owning thread plus the seq_cst quiescence handshake).
//  * Everything in the lock-free paths is either an std::atomic_ref /
//    std::atomic operation or a plain access ordered by one of the
//    edges above, so a clean TSan run over the concurrency battery is
//    meaningful evidence, not luck.
#include "bdd/bdd.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "bdd/parallel.h"
#include "util/governance.h"

namespace covest::bdd {


namespace {

// Process-global epoch tokens: every mode transition of every manager
// draws a fresh value, so a (manager, epoch) pair can never recur — a
// per-manager counter would let a thread-local ctx cache false-hit on a
// new manager allocated at a dead manager's address once its counter
// climbed back to the cached value (use-after-free via the cached
// ThreadCtx*).
std::atomic<std::uint64_t> g_epoch_tokens{0};

std::uint64_t next_epoch_token() {
  return g_epoch_tokens.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer; good avalanche for consing keys.
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::uint64_t hash_pair(NodeIndex low, NodeIndex high) {
  return mix64((static_cast<std::uint64_t>(low) << 32) | high);
}

// Full-width mixing of a cache key. Each half of the 128-bit key packs
// injectively into its own 64-bit word; the second word is spread by a
// golden-ratio multiply (a bijection) before combining, then the sum is
// finalized with splitmix64. Distinct keys can only collide through the
// 128->64 compression itself — unlike a shifted XOR, which aliases
// operand bits structurally before any mixing happens.
std::uint64_t hash_cache_key(std::uint32_t op, NodeIndex a, NodeIndex b,
                             NodeIndex c) {
  const std::uint64_t k1 = (static_cast<std::uint64_t>(a) << 32) | b;
  const std::uint64_t k2 = (static_cast<std::uint64_t>(c) << 32) | op;
  return mix64(k1 ^ (k2 * 0x9e3779b97f4a7c15ull));
}

}  // namespace

// ---------------------------------------------------------------------------
// Bdd handle
// ---------------------------------------------------------------------------

Bdd::Bdd(BddManager* mgr, NodeIndex index) noexcept : mgr_(mgr), index_(index) {
  if (mgr_ != nullptr) mgr_->ref(index_);
}

Bdd::Bdd(const Bdd& other) noexcept : mgr_(other.mgr_), index_(other.index_) {
  if (mgr_ != nullptr) mgr_->ref(index_);
}

Bdd::Bdd(Bdd&& other) noexcept : mgr_(other.mgr_), index_(other.index_) {
  other.mgr_ = nullptr;
  other.index_ = kInvalidIndex;
}

Bdd& Bdd::operator=(const Bdd& other) noexcept {
  if (this == &other) return *this;
  if (other.mgr_ != nullptr) other.mgr_->ref(other.index_);
  if (mgr_ != nullptr) mgr_->deref(index_);
  mgr_ = other.mgr_;
  index_ = other.index_;
  return *this;
}

Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) return *this;
  if (mgr_ != nullptr) mgr_->deref(index_);
  mgr_ = other.mgr_;
  index_ = other.index_;
  other.mgr_ = nullptr;
  other.index_ = kInvalidIndex;
  return *this;
}

Bdd::~Bdd() {
  if (mgr_ != nullptr) mgr_->deref(index_);
}

Var Bdd::top_var() const {
  assert(valid() && !is_terminal());
  return mgr_->node_var(index_);
}

Bdd Bdd::low() const {
  assert(valid() && !is_terminal());
  return Bdd(mgr_, mgr_->node_low(index_));
}

Bdd Bdd::high() const {
  assert(valid() && !is_terminal());
  return Bdd(mgr_, mgr_->node_high(index_));
}

Bdd Bdd::operator&(const Bdd& rhs) const { return mgr_->apply_and(*this, rhs); }
Bdd Bdd::operator|(const Bdd& rhs) const { return mgr_->apply_or(*this, rhs); }
Bdd Bdd::operator^(const Bdd& rhs) const { return mgr_->apply_xor(*this, rhs); }
Bdd Bdd::operator!() const { return mgr_->apply_not(*this); }
Bdd Bdd::operator-(const Bdd& rhs) const {
  return mgr_->apply_and(*this, mgr_->apply_not(rhs));
}
Bdd Bdd::implies(const Bdd& rhs) const {
  return mgr_->apply_or(mgr_->apply_not(*this), rhs);
}
Bdd Bdd::iff(const Bdd& rhs) const {
  return mgr_->apply_not(mgr_->apply_xor(*this, rhs));
}

bool Bdd::subset_of(const Bdd& other) const {
  return (*this - other).is_false();
}

bool Bdd::intersects(const Bdd& other) const {
  return !(*this & other).is_false();
}

Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  return f.manager()->apply_ite(f, g, h);
}

// ---------------------------------------------------------------------------
// Manager construction and segmented pool
// ---------------------------------------------------------------------------

BddManager::BddManager(unsigned initial_vars, std::size_t cache_size_log2) {
  // Slot 0 is the unique terminal; TRUE and FALSE are its two edges.
  ensure_pool(1);
  allocated_.store(1, std::memory_order_relaxed);
  node_at(0).var = kInvalidVar;
  ref_at(0).store(1, std::memory_order_relaxed);  // Permanently referenced.
  cache_max_size_ = std::size_t{1} << cache_size_log2;
  // 2^8 entries (6 KB): many served models live in a few hundred nodes,
  // and a resident server builds one manager per cold request, so every
  // manager pays for its starting table. `maybe_grow_cache` quadruples
  // it towards `cache_size_log2` once a quarter of it has been stored.
  cache_.resize(std::min(cache_max_size_, std::size_t{1} << 8));
  cache_mask_ = cache_.size() - 1;
  gc_threshold_ = 1u << 16;
  // Tests and soak harnesses force small pools into collection without
  // plumbing a setter through every layer that owns a manager.
  if (const char* env = std::getenv("COVEST_GC_THRESHOLD")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) gc_threshold_ = static_cast<std::size_t>(v);
  }
  for (unsigned i = 0; i < initial_vars; ++i) new_var();
}

BddManager::~BddManager() = default;

void BddManager::ensure_pool(std::size_t n) {
  while (pool_capacity_ < n) {
    if (num_segments_ >= kMaxSegments) {
      throw std::length_error("BddManager: node pool exceeds 2^31 slots");
    }
    const unsigned seg = num_segments_;
    const std::size_t size = seg_capacity(seg);
    node_segs_[seg] = std::make_unique<Node[]>(size);
    ref_segs_[seg] = std::make_unique<std::atomic<std::uint32_t>[]>(size);
    node_base_[seg] = node_segs_[seg].get() - seg_base(seg);
    ref_base_[seg] = ref_segs_[seg].get() - seg_base(seg);
    // Publish the segment only after it exists (shared-mode readers
    // reach it through a lock that orders after this function).
    ++num_segments_;
    pool_capacity_ += size;
  }
}

Var BddManager::new_var(std::string name) {
  require_exclusive("new_var");
  const Var v = static_cast<Var>(var_to_level_.size());
  var_to_level_.push_back(static_cast<unsigned>(level_to_var_.size()));
  level_to_var_.push_back(v);
  if (name.empty()) name = "v" + std::to_string(v);
  var_names_.push_back(std::move(name));
  Subtable st;
  st.buckets.assign(64, kInvalidIndex);
  subtables_.push_back(std::move(st));
  return v;
}

Bdd BddManager::var(Var v) {
  OpGate gate(*this, ctx(), /*allow_gc=*/false);
  return Bdd(this, make_node(v, kFalseIndex, kTrueIndex));
}

Bdd BddManager::nvar(Var v) {
  // Shares the positive literal's node through a complement edge.
  OpGate gate(*this, ctx(), /*allow_gc=*/false);
  return Bdd(this, edge_not(make_node(v, kFalseIndex, kTrueIndex)));
}

Bdd BddManager::cube(const std::vector<Var>& vars) {
  OpGate gate(*this, ctx(), /*allow_gc=*/false);
  Bdd result = bdd_true();
  // Build bottom-up (deepest level first) so each make_node is O(1).
  std::vector<Var> sorted = vars;
  std::sort(sorted.begin(), sorted.end(), [this](Var a, Var b) {
    return var_to_level_[a] > var_to_level_[b];
  });
  for (Var v : sorted) {
    result = Bdd(this, make_node(v, kFalseIndex, result.index()));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Shared (sharded) mode
// ---------------------------------------------------------------------------

void BddManager::begin_shared(std::size_t max_threads, TableMode table_mode,
                              const ParallelConfig& parallel) {
  if (shared_mode_) {
    throw std::logic_error("BddManager::begin_shared: already in shared mode");
  }
  assert(owner_thread_ == std::this_thread::get_id() &&
         "begin_shared must be called by the owning thread");
  assert(!main_ctx_.in_operation && "begin_shared inside an operation");
  // Pool helpers register as shard threads too: budget their contexts
  // on top of the client threads the caller declared.
  const std::size_t pool_helpers =
      parallel.workers > 1 ? parallel.workers - 1 : 0;
  shard_max_threads_ = std::max<std::size_t>(1, max_threads) + pool_helpers;
  table_mode_ = table_mode;
  if (table_mode_ == TableMode::kLockFree) {
    // Pre-size every subtable while the manager is still exclusive: the
    // lock-free epoch never resizes (rehashing would move chain links
    // under concurrent readers), so give each table headroom now. An
    // epoch that outgrows the headroom degrades to longer chains.
    for (Var v = 0; v < subtables_.size(); ++v) {
      std::size_t target = subtables_[v].buckets.size();
      while (subtables_[v].count * 4 >= target) target *= 2;
      if (target != subtables_[v].buckets.size()) rehash_subtable(v, target);
    }
    // The wait-free cache mirrors the exclusive cache's current
    // (adaptively grown) size. Entries persist across epochs; their
    // stored epoch word keeps them exactly as valid as striped/
    // exclusive entries would be (clear_cache and gc bump the epoch).
    if (lf_cache_size_ != cache_.size()) {
      lf_cache_ = std::make_unique<LfCacheEntry[]>(cache_.size());
      lf_cache_size_ = cache_.size();
      lf_cache_mask_ = lf_cache_size_ - 1;
    }
  }
  shard_ctxs_.clear();
  shard_ctxs_.reserve(shard_max_threads_);
  shared_epoch_ = next_epoch_token();
  shared_mode_ = true;
  if (parallel.workers >= 1) {
    // Started after the epoch is open so the helper threads can
    // register; they adopt this thread's governor (start() captures it).
    par_pool_ = std::make_unique<ParallelPool>(
        *this, pool_helpers, parallel.fork_threshold, shard_max_threads_);
    par_pool_->start();
  }
}

void BddManager::end_shared() {
  if (!shared_mode_) {
    throw std::logic_error("BddManager::end_shared without begin_shared");
  }
  if (par_pool_) {
    // Helpers must quiesce while the epoch is still open (their exit
    // path touches no manager state, but an in-flight stolen task
    // does); their ThreadCtx deltas merge with everyone else's below.
    par_pool_->stop_and_join();
    par_pool_.reset();
  }
  shared_mode_ = false;
  for (const std::unique_ptr<ThreadCtx>& tc : shard_ctxs_) {
    // Merge the per-thread counter deltas into the manager's stats.
    stats_.cache_hits += tc->stats.cache_hits;
    stats_.cache_lookups += tc->stats.cache_lookups;
    stats_.unique_hits += tc->stats.unique_hits;
    stats_.unique_misses += tc->stats.unique_misses;
    stats_.o1_negations += tc->stats.o1_negations;
    stats_.complement_canonicalizations +=
        tc->stats.complement_canonicalizations;
    // Return the unused tail of the thread's arena — and any recycled
    // slots it claimed but never used — to the free list.
    for (NodeIndex n = tc->arena_next; n < tc->arena_end; ++n) {
      assert(node_at(n).var == kInvalidVar);
      node_at(n).next = free_head_;
      free_head_ = n;
      ++free_count_;
    }
    for (const NodeIndex n : tc->recycled) {
      assert(node_at(n).var == kInvalidVar);
      node_at(n).next = free_head_;
      free_head_ = n;
      ++free_count_;
    }
  }
  shard_ctxs_.clear();
  // Every registered thread is joined, so grace is trivially satisfied:
  // drain all outstanding retire batches. A leftover collection request
  // must not leak into the next epoch either (no collector can still be
  // running — a collector finishes inside some thread's lifetime).
  assert(!pause_requested_.load(std::memory_order_relaxed) &&
         "end_shared with a collection pause still up");
  {
    std::lock_guard<std::mutex> lock(alloc_mu_);
    drain_retire_batches_locked(/*only_expired=*/false);
  }
  gc_requested_.store(false, std::memory_order_relaxed);
  shared_epoch_ = next_epoch_token();
  owner_thread_ = std::this_thread::get_id();
}

void BddManager::register_shard_thread() {
  assert(shared_mode_ && "register_shard_thread outside shared mode");
  std::lock_guard<std::mutex> lock(shard_reg_mu_);
  if (shard_ctxs_.size() >= shard_max_threads_) {
    throw std::logic_error(
        "BddManager::register_shard_thread: more threads than declared to "
        "begin_shared");
  }
  auto tc = std::make_unique<ThreadCtx>();
  tc->thread = std::this_thread::get_id();
  for (const std::unique_ptr<ThreadCtx>& existing : shard_ctxs_) {
    if (existing->thread == tc->thread) {
      throw std::logic_error(
          "BddManager::register_shard_thread: thread already registered");
    }
  }
  shard_ctxs_.push_back(std::move(tc));
}

BddManager::ThreadCtx& BddManager::shard_ctx() {
  // One-entry thread-local cache: the common case is a thread working a
  // long run of operations against one shared manager.
  thread_local const BddManager* cached_mgr = nullptr;
  thread_local std::uint64_t cached_epoch = 0;
  thread_local ThreadCtx* cached_ctx = nullptr;
  if (cached_mgr == this && cached_epoch == shared_epoch_) {
    return *cached_ctx;
  }
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(shard_reg_mu_);
  for (const std::unique_ptr<ThreadCtx>& tc : shard_ctxs_) {
    if (tc->thread == self) {
      cached_mgr = this;
      cached_epoch = shared_epoch_;
      cached_ctx = tc.get();
      return *cached_ctx;
    }
  }
  // The shared-mode analogue of the exclusive-mode affinity assert: an
  // unregistered thread touching a shared manager is a scheduling bug.
  throw std::logic_error(
      "BddManager: shared-mode use from an unregistered thread (call "
      "register_shard_thread)");
}

// ---------------------------------------------------------------------------
// Unique tables and node allocation
// ---------------------------------------------------------------------------

std::size_t BddManager::subtable_bucket(Var v, NodeIndex low,
                                        NodeIndex high) const {
  const Subtable& st = subtables_[v];
  return hash_pair(low, high) & (st.buckets.size() - 1);
}

NodeIndex BddManager::make_node(Var v, NodeIndex low, NodeIndex high) {
  if (low == high) return low;
  // Canonical form: the stored high edge is never complemented. Negating
  // both children and complementing the resulting edge preserves the
  // function: !(v ? h : l) == (v ? !h : !l).
  NodeIndex out_complement = 0;
  if (edge_is_complemented(high)) {
    low = edge_not(low);
    high = edge_not(high);
    out_complement = kComplementBit;
  }

  if (!shared_mode_) {
    // Exclusive-mode contract: node construction from a thread other
    // than the owner means two threads are sharing one manager — the
    // unique tables and the node pool would corrupt silently in release
    // builds.
    assert(owner_thread_ == std::this_thread::get_id() &&
           "BddManager used from a foreign thread (see "
           "rebind_to_current_thread)");
    if (out_complement != 0) ++stats_.complement_canonicalizations;
    Subtable& st = subtables_[v];
    const std::size_t bucket = subtable_bucket(v, low, high);
    for (NodeIndex n = st.buckets[bucket]; n != kInvalidIndex;
         n = node_at(n).next) {
      if (node_at(n).low == low && node_at(n).high == high) {
        ++stats_.unique_hits;
        return n | out_complement;
      }
    }
    ++stats_.unique_misses;
    const NodeIndex n = allocate_node();
    Node& node = node_at(n);
    node.var = v;
    node.low = low;
    node.high = high;
    node.next = st.buckets[bucket];
    st.buckets[bucket] = n;
    ++st.count;
    maybe_resize_subtable(v);
    return n | out_complement;
  }

  ThreadCtx& tc = shard_ctx();
  if (out_complement != 0) ++tc.stats.complement_canonicalizations;
  if (table_mode_ == TableMode::kLockFree) {
    return make_node_lockfree(tc, v, low, high) | out_complement;
  }

  // Striped mode: the variable's stripe lock covers lookup, insertion and
  // resize, and doubles as the fence publishing the new node's fields.
  std::lock_guard<std::mutex> lock(unique_mu_[v % kUniqueStripes]);
  Subtable& st = subtables_[v];
  const std::size_t bucket = subtable_bucket(v, low, high);
  for (NodeIndex n = st.buckets[bucket]; n != kInvalidIndex;
       n = node_at(n).next) {
    if (node_at(n).low == low && node_at(n).high == high) {
      ++tc.stats.unique_hits;
      return n | out_complement;
    }
  }
  ++tc.stats.unique_misses;
  const NodeIndex n = allocate_node_shared(tc);
  Node& node = node_at(n);
  node.var = v;
  node.low = low;
  node.high = high;
  node.next = st.buckets[bucket];
  st.buckets[bucket] = n;
  ++st.count;
  maybe_resize_subtable(v);
  return n | out_complement;
}

// Lock-free insert-if-absent. Chains only grow by prepending during an
// epoch (no removal, no rehash), which buys three properties at once:
//  * a failed CAS can re-check exactly the delta `[new head, old head)`
//    for a duplicate instead of the whole chain,
//  * bucket heads never revisit an old value, so the CAS cannot ABA,
//  * readers walking a chain can never step onto a freed slot.
// A thread that loses the publication race for an equal key resets its
// speculative slot and keeps it in the thread-local recycle list — the
// pool does not leak, and `end_shared` returns unused slots to the
// free list as usual.
NodeIndex BddManager::make_node_lockfree(ThreadCtx& tc, Var v, NodeIndex low,
                                         NodeIndex high) {
  Subtable& st = subtables_[v];
  const std::size_t bucket = subtable_bucket(v, low, high);
  std::atomic_ref<NodeIndex> head_ref(st.buckets[bucket]);
  // The acquire pairs with the release CAS of whichever thread
  // published the head node — and, through the release sequence of the
  // RMW chain, with every earlier publication on this bucket — so the
  // plain reads of node fields (and of the segment pointers behind
  // `node_at`) below are ordered after their initializing writes.
  const NodeIndex head = head_ref.load(std::memory_order_acquire);
  for (NodeIndex n = head; n != kInvalidIndex;
       n = std::atomic_ref<NodeIndex>(node_at(n).next)
               .load(std::memory_order_acquire)) {
    if (node_at(n).low == low && node_at(n).high == high) {
      ++tc.stats.unique_hits;
      return n;
    }
  }
  // Miss: build the node privately, then publish with a release CAS.
  const NodeIndex n = allocate_node_shared(tc);
  Node& node = node_at(n);
  node.var = v;
  node.low = low;
  node.high = high;
  node.next = head;  // Plain writes: the slot is invisible until the CAS.
  NodeIndex expected = head;
  while (!head_ref.compare_exchange_weak(expected, n,
                                         std::memory_order_release,
                                         std::memory_order_acquire)) {
    // Other threads prepended; only the delta can hold a duplicate.
    for (NodeIndex m = expected; m != node.next;
         m = std::atomic_ref<NodeIndex>(node_at(m).next)
                 .load(std::memory_order_acquire)) {
      if (node_at(m).low == low && node_at(m).high == high) {
        // Lost the race to an equal node: recycle the speculative slot
        // (fields back to the free-slot shape end_shared asserts).
        node = Node{};
        tc.recycled.push_back(n);
        ++tc.stats.unique_hits;
        return m;
      }
    }
    node.next = expected;  // Still private; retry atop the new head.
  }
  ++tc.stats.unique_misses;
  std::atomic_ref<std::size_t>(st.count)
      .fetch_add(1, std::memory_order_relaxed);
  return n;
}

NodeIndex BddManager::allocate_node() {
  if (covest::FaultInjector::should_fail(
          covest::FaultInjector::Site::kAllocation)) {
    throw covest::ResourceExhausted(
        "BddManager: injected allocation failure",
        static_cast<std::size_t>(allocated()) - 1 - free_count_,
        max_live_nodes_);
  }
  if (free_head_ != kInvalidIndex) {
    const NodeIndex n = free_head_;
    free_head_ = node_at(n).next;
    --free_count_;
    ref_at(n).store(0, std::memory_order_relaxed);
    // A reused slot may carry a stale-but-valid stamp in the exclusive
    // context (shared contexts never survive an epoch, so only the main
    // one can go stale).
    if (n < main_ctx_.stamps.size()) main_ctx_.stamps[n] = NodeStamp{};
    return n;
  }
  const NodeIndex next = allocated();
  if (next >= edge_node(kInvalidIndex)) {
    throw std::length_error("BddManager: node pool exceeds 2^31 slots");
  }
  // The free list is empty here, so occupancy == next - 1 (terminal
  // excluded) and growing by one slot would exceed the budget.
  if (max_live_nodes_ != 0 &&
      static_cast<std::size_t>(next) - 1 >= max_live_nodes_) {
    throw covest::ResourceExhausted("BddManager: node budget exhausted",
                                    static_cast<std::size_t>(next) - 1,
                                    max_live_nodes_);
  }
  ensure_pool(static_cast<std::size_t>(next) + 1);
  allocated_.store(next + 1, std::memory_order_relaxed);
  return next;
}

NodeIndex BddManager::allocate_node_shared(ThreadCtx& tc) {
  if (covest::FaultInjector::should_fail(
          covest::FaultInjector::Site::kAllocation)) {
    // free_count_ needs alloc_mu_ in shared mode; report the pool bound
    // instead (occupancy <= allocated - 1) — close enough for an
    // injected failure's diagnostics.
    throw covest::ResourceExhausted(
        "BddManager: injected allocation failure",
        static_cast<std::size_t>(allocated()) - 1, max_live_nodes_);
  }
  if (!tc.recycled.empty()) {
    const NodeIndex n = tc.recycled.back();
    tc.recycled.pop_back();
    return n;
  }
  if (tc.arena_next != tc.arena_end) {
    // Arena slots are freshly-created segment entries: fields and
    // refcount are already value-initialized, and no other thread can
    // see the slot until it is published under the unique-table stripe
    // lock.
    return tc.arena_next++;
  }
  std::lock_guard<std::mutex> lock(alloc_mu_);
  // Allocation pressure is the natural place to return quiesced retire
  // batches to the free list (and to ask for a collection when the pool
  // keeps growing anyway): every grower passes through here.
  drain_retire_batches_locked(/*only_expired=*/true);
  if (free_head_ == kInvalidIndex) {
    const std::size_t occupancy =
        static_cast<std::size_t>(allocated()) - 1 - free_count_;
    if (occupancy >= gc_threshold_) {
      gc_requested_.store(true, std::memory_order_seq_cst);
    }
  }
  // Prefer recycling a batch off the free list (slots GC'd before this
  // shared epoch or reclaimed after a grace period): repeated shared
  // epochs must not grow the pool while reusable capacity exists.
  // Free-list slots are unreachable from any live edge, so no thread's
  // stamps can refer to them — except the persistent exclusive context,
  // which is reset per slot here (under alloc_mu_; the owner thread is
  // parked while shards run).
  while (tc.recycled.size() < kArenaBlock && free_head_ != kInvalidIndex) {
    const NodeIndex n = free_head_;
    free_head_ = node_at(n).next;
    --free_count_;
    ref_at(n).store(0, std::memory_order_relaxed);
    if (n < main_ctx_.stamps.size()) main_ctx_.stamps[n] = NodeStamp{};
    tc.recycled.push_back(n);
  }
  if (!tc.recycled.empty()) {
    const NodeIndex n = tc.recycled.back();
    tc.recycled.pop_back();
    return n;
  }
  const NodeIndex base = allocated();
  if (base >= edge_node(kInvalidIndex) - kArenaBlock) {
    throw std::length_error("BddManager: node pool exceeds 2^31 slots");
  }
  // Budget check at arena-refill granularity (under alloc_mu_, so
  // free_count_ is stable): the free list was just drained, so a fresh
  // block only happens when occupancy is at the pool bound.
  if (max_live_nodes_ != 0 &&
      static_cast<std::size_t>(base) - 1 - free_count_ >= max_live_nodes_) {
    throw covest::ResourceExhausted(
        "BddManager: node budget exhausted",
        static_cast<std::size_t>(base) - 1 - free_count_, max_live_nodes_);
  }
  ensure_pool(static_cast<std::size_t>(base) + kArenaBlock);
  allocated_.store(base + kArenaBlock, std::memory_order_relaxed);
  tc.arena_next = base;
  tc.arena_end = base + kArenaBlock;
  return tc.arena_next++;
}

void BddManager::rehash_subtable(Var v, std::size_t new_buckets) {
  Subtable& st = subtables_[v];
  std::vector<NodeIndex> old = std::move(st.buckets);
  st.buckets.assign(new_buckets, kInvalidIndex);
  for (NodeIndex head : old) {
    for (NodeIndex n = head; n != kInvalidIndex;) {
      const NodeIndex next = node_at(n).next;
      const std::size_t b = subtable_bucket(v, node_at(n).low, node_at(n).high);
      node_at(n).next = st.buckets[b];
      st.buckets[b] = n;
      n = next;
    }
  }
}

void BddManager::maybe_resize_subtable(Var v) {
  // Exclusive mode and striped shared mode (under the stripe lock)
  // only; a lock-free epoch pre-sizes instead (see begin_shared).
  Subtable& st = subtables_[v];
  if (st.count < st.buckets.size()) return;
  rehash_subtable(v, st.buckets.size() * 2);
}

void BddManager::require_exclusive(const char* what) const {
  if (shared_mode_) {
    throw std::logic_error(std::string("BddManager::") + what +
                           ": forbidden while shared (sharded) mode is on — "
                           "call end_shared first");
  }
}

void BddManager::subtable_insert(Var v, NodeIndex n) {
  Subtable& st = subtables_[v];
  const std::size_t b = subtable_bucket(v, node_at(n).low, node_at(n).high);
  node_at(n).next = st.buckets[b];
  st.buckets[b] = n;
  ++st.count;
}

void BddManager::subtable_remove(Var v, NodeIndex n) {
  Subtable& st = subtables_[v];
  const std::size_t b = subtable_bucket(v, node_at(n).low, node_at(n).high);
  NodeIndex* link = &st.buckets[b];
  while (*link != kInvalidIndex) {
    if (*link == n) {
      *link = node_at(n).next;
      --st.count;
      return;
    }
    link = &node_at(*link).next;
  }
  assert(false && "node missing from its subtable");
}

bool BddManager::check_canonical() const {
  const NodeIndex end = allocated();
  for (NodeIndex n = 1; n < end; ++n) {
    if (node_at(n).var == kInvalidVar) continue;  // Free-list/arena slot.
    if (edge_is_complemented(node_at(n).high)) return false;
    if (node_at(n).low == node_at(n).high) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Reference counting and garbage collection
// ---------------------------------------------------------------------------

std::uint32_t BddManager::next_generation(ThreadCtx& tc) {
  // Stamp arrays are sized lazily: any slot reachable from a published
  // edge was allocated before the edge became visible to this thread.
  tc.stamps.resize(allocated());
  if (++tc.generation == 0) {
    // Wrapped after ~2^32 traversals: clear every stamp once and restart.
    for (NodeStamp& s : tc.stamps) s.gen = 0;
    for (std::uint32_t& g : tc.var_gen) g = 0;
    tc.generation = 1;
  }
  return tc.generation;
}

std::size_t BddManager::mark_reachable(ThreadCtx& tc, NodeIndex e) {
  // Iterative DFS on the reusable stack; BDDs for deep fixpoints can
  // exceed the call stack. Visited state is the generation stamp, so no
  // per-call bitmap is allocated or cleared.
  std::size_t newly_marked = 0;
  tc.work_stack.clear();
  tc.work_stack.push_back(edge_node(e));
  while (!tc.work_stack.empty()) {
    const NodeIndex slot = tc.work_stack.back();
    tc.work_stack.pop_back();
    if (slot == 0 || tc.stamps[slot].gen == tc.generation) continue;
    tc.stamps[slot].gen = tc.generation;
    ++newly_marked;
    tc.work_stack.push_back(edge_node(node_at(slot).low));
    tc.work_stack.push_back(edge_node(node_at(slot).high));
  }
  return newly_marked;
}

std::size_t BddManager::gc() {
  if (shared_mode_) {
    ThreadCtx& tc = shard_ctx();
    if (tc.op_depth.load(std::memory_order_relaxed) != 0) {
      throw std::logic_error(
          "BddManager::gc: forbidden from inside a shared-mode operation");
    }
    return shared_collect(tc, /*force=*/true);
  }
  ThreadCtx& tc = ctx();
  assert(!tc.in_operation && "GC must not run inside a BDD operation");
  next_generation(tc);
  const NodeIndex end = allocated();
  for (NodeIndex n = 1; n < end; ++n) {
    if (ref_at(n).load(std::memory_order_relaxed) > 0 &&
        node_at(n).var != kInvalidVar) {
      mark_reachable(tc, n);
    }
  }

  std::size_t freed = 0;
  for (NodeIndex n = 1; n < end; ++n) {
    if (tc.stamps[n].gen == tc.generation || node_at(n).var == kInvalidVar) {
      continue;
    }
    subtable_remove(node_at(n).var, n);
    node_at(n).var = kInvalidVar;
    node_at(n).low = kInvalidIndex;
    node_at(n).high = kInvalidIndex;
    node_at(n).next = free_head_;
    free_head_ = n;
    ++free_count_;
    ++freed;
  }
  clear_cache();
  ++stats_.gc_runs;
  return freed;
}

void BddManager::maybe_gc() {
  // Shared-mode collections are driven by the allocation path
  // (gc_requested_) and serviced through the operation gates; this
  // threshold check is the exclusive-mode analogue only.
  if (shared_mode_) return;
  if (main_ctx_.in_operation) return;
  const std::size_t live_estimate = allocated() - 1 - free_count_;
  if (live_estimate < gc_threshold_) return;
  gc();
  const std::size_t live = allocated() - 1 - free_count_;
  if (live * 4 > gc_threshold_ * 3) gc_threshold_ *= 2;
}

void BddManager::set_max_live_nodes(std::size_t budget) {
  require_exclusive("set_max_live_nodes");
  max_live_nodes_ = budget;
}

void BddManager::clear_cache() {
  if (shared_mode_) {
    // O(1) and safe concurrently: in-flight lookups that read the old
    // epoch may still hit pre-bump entries, but every memoized edge
    // stays valid — nothing is freed until a grace period elapses. The
    // wrap-to-zero normalization needs the physical sweep, which is
    // only legal while everyone is paused; shared_collect owns that
    // case, so here we just skip the bump past zero.
    std::uint32_t e = cache_epoch_.load(std::memory_order_relaxed);
    while (!cache_epoch_.compare_exchange_weak(e, e + 1 == 0 ? 1 : e + 1,
                                               std::memory_order_relaxed)) {
    }
    if (e + 1 == 0) {
      // Wrapped without a paused sweep: pre-wrap stamps could alias once
      // the counter climbs back. Ask for a collection — its paused window
      // physically clears both caches (cache_wrap_dirty_ makes it sweep
      // even though the counter never rests at zero).
      cache_wrap_dirty_.store(true, std::memory_order_relaxed);
      gc_requested_.store(true, std::memory_order_seq_cst);
    }
    return;
  }
  // O(1): entries from older epochs simply stop matching. Only the
  // (once per ~2^32 clears) epoch wrap pays for a physical sweep — of
  // BOTH caches: a surviving lock-free entry stamped with a pre-wrap
  // epoch would otherwise false-hit when the counter climbs back to it.
  const std::uint32_t next =
      cache_epoch_.load(std::memory_order_relaxed) + 1;
  cache_epoch_.store(next, std::memory_order_relaxed);
  if (next == 0) {
    for (CacheEntry& e : cache_) e.epoch = 0;
    lf_cache_.reset();  // Reallocated (zeroed) at the next begin_shared.
    lf_cache_size_ = 0;
    lf_cache_mask_ = 0;
    cache_epoch_.store(1, std::memory_order_relaxed);
  }
  // The hit-rate counters describe one cache epoch; restart them with it.
  stats_.cache_hits = 0;
  stats_.cache_lookups = 0;
}

std::size_t BddManager::live_node_count() {
  require_exclusive("live_node_count");
  ThreadCtx& tc = ctx();
  next_generation(tc);
  std::size_t live = 0;
  const NodeIndex end = allocated();
  for (NodeIndex n = 1; n < end; ++n) {
    if (ref_at(n).load(std::memory_order_relaxed) > 0 &&
        node_at(n).var != kInvalidVar) {
      live += mark_reachable(tc, n);
    }
  }
  stats_.live_nodes = live;
  stats_.allocated_nodes = allocated() - 1;
  if (live > stats_.peak_live_nodes) stats_.peak_live_nodes = live;
  return live;
}

// ---------------------------------------------------------------------------
// Computed cache
// ---------------------------------------------------------------------------

bool BddManager::cache_find(std::uint32_t op, NodeIndex a, NodeIndex b,
                            NodeIndex c, NodeIndex* out) {
  const std::uint64_t hash = hash_cache_key(op, a, b, c);
  if (!shared_mode_) {
    ++stats_.cache_lookups;
    const CacheEntry& e = cache_[hash & cache_mask_];
    if (e.epoch == cache_epoch_.load(std::memory_order_relaxed) &&
        e.op == op && e.a == a && e.b == b && e.c == c) {
      ++stats_.cache_hits;
      *out = e.result;
      return true;
    }
    return false;
  }
  ThreadCtx& tc = shard_ctx();
  ++tc.stats.cache_lookups;

  if (table_mode_ == TableMode::kLockFree) {
    // Wait-free read: one stamped snapshot, no retry. The acquire load
    // of an even stamp pairs with the storing thread's release of that
    // stamp, ordering the payload reads — and the node initializations
    // behind `result` — after their writes. A torn snapshot (odd
    // stamp, or the stamp moved under the payload) is simply a miss;
    // the caller recomputes and arrives at the same canonical edge.
    LfCacheEntry& e = lf_cache_[hash & lf_cache_mask_];
    const std::uint32_t s1 = e.seq.load(std::memory_order_acquire);
    if ((s1 & 1u) != 0) return false;
    const std::uint64_t ab = e.key_ab.load(std::memory_order_relaxed);
    const std::uint64_t cop = e.key_cop.load(std::memory_order_relaxed);
    const std::uint64_t er = e.epoch_result.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (e.seq.load(std::memory_order_relaxed) != s1) return false;
    // Snapshot is consistent: now (and only now) validate the full key,
    // so an overwrite race can cost a recomputation but never alias.
    if (ab != ((static_cast<std::uint64_t>(a) << 32) | b) ||
        cop != ((static_cast<std::uint64_t>(c) << 32) | op) ||
        (er >> 32) != cache_epoch_.load(std::memory_order_relaxed)) {
      return false;
    }
    *out = static_cast<NodeIndex>(er);
    ++tc.stats.cache_hits;
    return true;
  }

  // Striped mode: the stripe lock also publishes the nodes behind
  // `e.result` — whoever stored the entry held this mutex after
  // creating those nodes.
  const std::size_t slot = hash & cache_mask_;
  std::lock_guard<std::mutex> lock(cache_mu_[slot % kCacheStripes]);
  const CacheEntry& e = cache_[slot];
  if (e.epoch == cache_epoch_.load(std::memory_order_relaxed) &&
      e.op == op && e.a == a && e.b == b && e.c == c) {
    ++tc.stats.cache_hits;
    *out = e.result;
    return true;
  }
  return false;
}

void BddManager::maybe_grow_cache() {
  if (++cache_stores_since_grow_ <= cache_.size() / 4 ||
      cache_.size() >= cache_max_size_) {
    return;
  }
  // Store pressure builds towards eviction thrashing: quadruple early
  // (eviction-induced recomputation costs far more than zeroing the
  // larger table). The cache is lossy, so dropping the old contents is
  // sound — most were about to be evicted anyway.
  cache_.assign(std::min(cache_.size() * 4, cache_max_size_), CacheEntry{});
  cache_mask_ = cache_.size() - 1;
  cache_stores_since_grow_ = 0;
}

void BddManager::cache_store(std::uint32_t op, NodeIndex a, NodeIndex b,
                             NodeIndex c, NodeIndex result) {
  const std::uint64_t hash = hash_cache_key(op, a, b, c);
  if (!shared_mode_) {
    maybe_grow_cache();
    CacheEntry& e = cache_[hash & cache_mask_];
    e.op = op;
    e.a = a;
    e.b = b;
    e.c = c;
    e.result = result;
    e.epoch = cache_epoch_.load(std::memory_order_relaxed);
    return;
  }

  if (table_mode_ == TableMode::kLockFree) {
    // Wait-free write: claim the entry with one CAS to an odd stamp; a
    // writer that loses (or finds another writer mid-store) just skips
    // — the cache is lossy by contract, and the value being dropped is
    // a memo, not state. The acquire on the claiming CAS keeps the
    // payload stores after it; the release of the even stamp publishes
    // them (and the nodes behind `result`) to any reader that acquires
    // the stamp.
    LfCacheEntry& e = lf_cache_[hash & lf_cache_mask_];
    std::uint32_t s = e.seq.load(std::memory_order_relaxed);
    if ((s & 1u) != 0) return;
    if (!e.seq.compare_exchange_strong(s, s + 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return;
    }
    // Release fence before the payload stores: a reader whose relaxed
    // payload loads observe any of these writes synchronizes (via its
    // own acquire fence) with this fence, and therefore sees the odd
    // stamp written above — so its stamp re-check fails and the torn
    // snapshot is discarded. Without this edge, weakly-ordered hardware
    // could make a payload store visible before the claim, letting a
    // reader pair an old key with a new result.
    std::atomic_thread_fence(std::memory_order_release);
    e.key_ab.store((static_cast<std::uint64_t>(a) << 32) | b,
                   std::memory_order_relaxed);
    e.key_cop.store((static_cast<std::uint64_t>(c) << 32) | op,
                    std::memory_order_relaxed);
    e.epoch_result.store(
        (static_cast<std::uint64_t>(
             cache_epoch_.load(std::memory_order_relaxed))
         << 32) |
            result,
        std::memory_order_relaxed);
    e.seq.store(s + 2, std::memory_order_release);
    return;
  }

  // Striped mode: the table never grows (growth would move entries under
  // concurrent readers); entries race only for their stripe lock.
  const std::size_t slot = hash & cache_mask_;
  std::lock_guard<std::mutex> lock(cache_mu_[slot % kCacheStripes]);
  CacheEntry& e = cache_[slot];
  e.op = op;
  e.a = a;
  e.b = b;
  e.c = c;
  e.result = result;
  e.epoch = cache_epoch_.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Shared-mode reclamation (epoch-based deferred free)
// ---------------------------------------------------------------------------
//
// Protocol summary (details on each member in bdd.h):
//   * Every public operation passes through an OpGate. On the 0 -> 1
//     op_depth transition the gate announces the thread's view of
//     reclaim_epoch_, parks while a collection pause is up, and
//     volunteers to collect when the allocation path asked for it.
//   * The elected collector raises pause_requested_, waits for every
//     other registered thread to reach op_depth == 0, and then has the
//     structure to itself: it marks from refcounted roots, unlinks dead
//     nodes from their subtables, and moves their slots onto a retire
//     batch stamped with the current reclamation epoch.
//   * Retired slots return to the free list only after a grace period:
//     batch E is freeable once every non-passive registered thread has
//     announced seen_epoch >= E + 1 (its announcement's seq_cst read of
//     reclaim_epoch_ synchronizes with the collector's bump, so the
//     sweep's writes are visible and the thread demonstrably started
//     its current window after the collection).
//   * All handshake accesses are seq_cst operations on atomics — no
//     fences over plain memory — for the same TSan-friendliness reasons
//     as the task deques (see parallel.h).

void BddManager::shared_op_enter(ThreadCtx& tc) {
  for (;;) {
    const std::uint32_t depth =
        tc.op_depth.fetch_add(1, std::memory_order_seq_cst);
    if (depth != 0) return;  // Nested call: the outer gate handled entry.
    if (!pause_requested_.load(std::memory_order_seq_cst)) {
      // Dekker handshake: in the seq_cst total order, either this
      // thread's fetch_add precedes the collector's quiescence scan
      // (the collector waits for our decrement) or the collector's
      // pause store precedes our load (we would have read true and
      // parked). Reading false here therefore proves any collection
      // that proceeds will have observed this whole gate — we never
      // run an operation concurrently with a sweep.
      tc.seen_epoch.store(reclaim_epoch_.load(std::memory_order_seq_cst),
                          std::memory_order_seq_cst);
      tc.passive.store(false, std::memory_order_relaxed);
      if (gc_requested_.load(std::memory_order_seq_cst)) {
        // Volunteer: step back to the boundary, collect, re-enter.
        tc.op_depth.fetch_sub(1, std::memory_order_seq_cst);
        shared_collect(tc, /*force=*/false);
        continue;
      }
      return;
    }
    tc.op_depth.fetch_sub(1, std::memory_order_seq_cst);
    std::unique_lock<std::mutex> lock(pause_mu_);
    pause_cv_.wait(lock, [this] {
      return !pause_requested_.load(std::memory_order_seq_cst);
    });
  }
}

std::size_t BddManager::shared_collect(ThreadCtx& tc, bool force) {
  assert(tc.op_depth.load(std::memory_order_relaxed) == 0 &&
         "collections run at operation boundaries only");
  std::unique_lock<std::mutex> gc_lock(gc_mu_, std::defer_lock);
  if (force) {
    gc_lock.lock();
  } else {
    if (!gc_lock.try_lock()) return 0;  // Another collector is at it.
    // Re-check under the lock: the previous holder may have serviced
    // the request we volunteered for.
    if (!gc_requested_.load(std::memory_order_seq_cst)) return 0;
  }

  // Stop the world at operation boundaries. Threads registering while
  // the pause is up are caught by re-scanning under shard_reg_mu_ each
  // iteration; a fresh thread's first gate parks before any traversal.
  pause_requested_.store(true, std::memory_order_seq_cst);
  for (;;) {
    bool quiet = true;
    {
      std::lock_guard<std::mutex> reg(shard_reg_mu_);
      for (const std::unique_ptr<ThreadCtx>& other : shard_ctxs_) {
        if (other.get() == &tc) continue;
        if (other->op_depth.load(std::memory_order_seq_cst) != 0) {
          quiet = false;
          break;
        }
      }
    }
    if (quiet) break;
    std::this_thread::yield();
  }

  // Exclusive access from here to the pause release. Mark from
  // refcounted roots, exactly like exclusive gc(): any node a handle
  // can reach is live; parallel-apply helpers hold no roots between
  // tasks (fully-strict joins end inside the client's gate).
  next_generation(tc);
  std::size_t live = 0;
  const NodeIndex end = allocated();
  for (NodeIndex n = 1; n < end; ++n) {
    if (ref_at(n).load(std::memory_order_relaxed) > 0 &&
        node_at(n).var != kInvalidVar) {
      live += mark_reachable(tc, n);
    }
  }

  // Sweep: unlink dead nodes and retire their slots. subtable_remove
  // must run before the field reset — the bucket is recomputed from
  // low/high. Resetting `next` after removal is safe: the node is no
  // longer linked, and later removals walk the repaired chain.
  RetireBatch batch;
  for (NodeIndex n = 1; n < end; ++n) {
    if (tc.stamps[n].gen == tc.generation || node_at(n).var == kInvalidVar) {
      continue;
    }
    subtable_remove(node_at(n).var, n);
    node_at(n).var = kInvalidVar;
    node_at(n).low = kInvalidIndex;
    node_at(n).high = kInvalidIndex;
    node_at(n).next = kInvalidIndex;
    ref_at(n).store(0, std::memory_order_relaxed);
    batch.slots.push_back(n);
  }

  // Invalidate memoized results that may point at retired nodes: O(1)
  // epoch bump, with the (once per ~2^32) wrap paying for a physical
  // sweep of both caches — legal here precisely because everyone is
  // paused.
  std::uint32_t next_epoch = cache_epoch_.load(std::memory_order_relaxed) + 1;
  if (next_epoch == 0 || cache_wrap_dirty_.load(std::memory_order_relaxed)) {
    for (CacheEntry& e : cache_) e.epoch = 0;
    for (std::size_t i = 0; i < lf_cache_size_; ++i) {
      lf_cache_[i].seq.store(0, std::memory_order_relaxed);
      lf_cache_[i].key_ab.store(0, std::memory_order_relaxed);
      lf_cache_[i].key_cop.store(0, std::memory_order_relaxed);
      lf_cache_[i].epoch_result.store(0, std::memory_order_relaxed);
    }
    cache_wrap_dirty_.store(false, std::memory_order_relaxed);
    next_epoch = 1;
  }
  cache_epoch_.store(next_epoch, std::memory_order_relaxed);

  // Every thread is at a boundary, so batches from previous collections
  // have trivially satisfied their grace period — drain them all, then
  // enqueue the fresh batch (it still waits out a full grace period
  // through the allocation path's expired-only drains).
  const std::size_t retired = batch.slots.size();
  {
    std::lock_guard<std::mutex> lock(alloc_mu_);
    drain_retire_batches_locked(/*only_expired=*/false);
    if (!batch.slots.empty()) {
      batch.epoch = reclaim_epoch_.load(std::memory_order_relaxed);
      retire_batches_.push_back(std::move(batch));
    }
  }

  reclaim_epoch_.fetch_add(1, std::memory_order_seq_cst);
  tc.seen_epoch.store(reclaim_epoch_.load(std::memory_order_seq_cst),
                      std::memory_order_seq_cst);
  gc_requested_.store(false, std::memory_order_seq_cst);

  stats_.retired_nodes += retired;
  ++stats_.shared_gc_runs;
  stats_.live_nodes = live;
  stats_.allocated_nodes = allocated() - 1;
  if (live > stats_.peak_live_nodes) stats_.peak_live_nodes = live;

  // Clear-then-notify under pause_mu_, so a thread that just checked
  // the predicate cannot fall asleep across the notification.
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    pause_requested_.store(false, std::memory_order_seq_cst);
  }
  pause_cv_.notify_all();
  return retired;
}

void BddManager::drain_retire_batches_locked(bool only_expired) {
  // Caller holds alloc_mu_. Lock order: alloc_mu_ before shard_reg_mu_
  // (matches the collector, which takes neither while holding the other
  // except through this function).
  if (retire_batches_.empty()) return;
  std::uint64_t safe_epoch = std::numeric_limits<std::uint64_t>::max();
  if (only_expired) {
    std::lock_guard<std::mutex> reg(shard_reg_mu_);
    for (const std::unique_ptr<ThreadCtx>& tcp : shard_ctxs_) {
      if (tcp->passive.load(std::memory_order_seq_cst)) continue;
      safe_epoch = std::min(
          safe_epoch, tcp->seen_epoch.load(std::memory_order_seq_cst));
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < retire_batches_.size(); ++i) {
    RetireBatch& b = retire_batches_[i];
    if (only_expired && b.epoch + 1 > safe_epoch) {
      // Compact in place; a kept leading batch must not be
      // move-assigned onto itself (self-move empties the vector and
      // silently leaks every slot in it).
      if (kept != i) retire_batches_[kept] = std::move(b);
      ++kept;
      continue;
    }
    stats_.reclaimed_nodes += b.slots.size();
    for (NodeIndex n : b.slots) {
      node_at(n).next = free_head_;
      free_head_ = n;
      ++free_count_;
    }
  }
  retire_batches_.resize(kept);
}

void BddManager::quiescent_point() {
  if (!shared_mode_) return;
  ThreadCtx& tc = shard_ctx();
  if (tc.op_depth.load(std::memory_order_relaxed) != 0) return;
  if (pause_requested_.load(std::memory_order_seq_cst)) {
    std::unique_lock<std::mutex> lock(pause_mu_);
    pause_cv_.wait(lock, [this] {
      return !pause_requested_.load(std::memory_order_seq_cst);
    });
  }
  // Announce after any park so the freshest epoch is published; a
  // stale-but-current announcement only delays reclamation, never
  // unblocks it early.
  tc.seen_epoch.store(reclaim_epoch_.load(std::memory_order_seq_cst),
                      std::memory_order_seq_cst);
  if (gc_requested_.load(std::memory_order_seq_cst)) {
    shared_collect(tc, /*force=*/false);
  }
}

void BddManager::mark_thread_passive() {
  if (!shared_mode_) return;
  shard_ctx().passive.store(true, std::memory_order_seq_cst);
}

void BddManager::set_gc_threshold(std::size_t threshold) {
  require_exclusive("set_gc_threshold");
  gc_threshold_ = threshold == 0 ? 1 : threshold;
}

}  // namespace covest::bdd
