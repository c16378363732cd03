// Node pool, unique tables, reference counting, garbage collection and
// the computed cache. Single-threaded by contract (see bdd.h).
#include "bdd/bdd.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <stdexcept>

#include "util/governance.h"

namespace covest::bdd {


namespace {

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
  allocated_ = 1;
  node_at(0).var = kInvalidVar;
  ref_at(0) = 1;  // Permanently referenced.
  cache_max_size_ = std::size_t{1} << cache_size_log2;
  // 2^8 entries (6 KB): many served models live in a few hundred nodes,
  // and a resident server builds one manager per cold request, so every
  // manager pays for its starting table. `maybe_grow_cache` grows it
  // towards `cache_size_log2` in step with the node pool.
  cache_.resize(std::min(cache_max_size_, std::size_t{1} << 8));
  cache_mask_ = cache_.size() - 1;
  stats_.cache_entries = cache_.size();
  // Tests and soak harnesses force small pools into collection without
  // plumbing a setter through every layer that owns a manager.
  if (const char* env = std::getenv("COVEST_GC_THRESHOLD")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) set_gc_threshold(static_cast<std::size_t>(v));
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
    ref_segs_[seg] = std::make_unique<std::uint32_t[]>(size);
    node_base_[seg] = node_segs_[seg].get() - seg_base(seg);
    ref_base_[seg] = ref_segs_[seg].get() - seg_base(seg);
    ++num_segments_;
    pool_capacity_ += size;
  }
}

Var BddManager::new_var(std::string name) {
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
  OpGate gate(*this, /*allow_gc=*/false);
  return Bdd(this, make_node(v, kFalseIndex, kTrueIndex));
}

Bdd BddManager::nvar(Var v) {
  // Shares the positive literal's node through a complement edge.
  OpGate gate(*this, /*allow_gc=*/false);
  return Bdd(this, edge_not(make_node(v, kFalseIndex, kTrueIndex)));
}

Bdd BddManager::cube(const std::vector<Var>& vars) {
  OpGate gate(*this, /*allow_gc=*/false);
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

  // Node construction from a thread other than the owner means two
  // threads are sharing one manager — the unique tables and the node
  // pool would corrupt silently in release builds.
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
    ref_at(n) = 0;
    // A reused slot may carry a stale-but-valid stamp.
    if (n < scratch_.stamps.size()) scratch_.stamps[n] = NodeStamp{};
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
  allocated_ = next + 1;
  return next;
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
  Subtable& st = subtables_[v];
  if (st.count < st.buckets.size()) return;
  rehash_subtable(v, st.buckets.size() * 2);
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
    if (node_at(n).var == kInvalidVar) continue;  // Free-list slot.
    if (edge_is_complemented(node_at(n).high)) return false;
    if (node_at(n).low == node_at(n).high) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Reference counting and garbage collection
// ---------------------------------------------------------------------------

std::uint32_t BddManager::next_generation() {
  // Stamp arrays are sized lazily: any slot reachable from an edge in
  // hand was allocated before the traversal began.
  Scratch& sc = scratch_;
  sc.stamps.resize(allocated());
  if (++sc.generation == 0) {
    // Wrapped after ~2^32 traversals: clear every stamp once and restart.
    for (NodeStamp& s : sc.stamps) s.gen = 0;
    for (std::uint32_t& g : sc.var_gen) g = 0;
    sc.generation = 1;
  }
  return sc.generation;
}

std::size_t BddManager::mark_reachable(NodeIndex e) {
  // Iterative DFS on the reusable stack; BDDs for deep fixpoints can
  // exceed the call stack. Visited state is the generation stamp, so no
  // per-call bitmap is allocated or cleared.
  Scratch& sc = scratch_;
  std::size_t newly_marked = 0;
  sc.work_stack.clear();
  sc.work_stack.push_back(edge_node(e));
  while (!sc.work_stack.empty()) {
    const NodeIndex slot = sc.work_stack.back();
    sc.work_stack.pop_back();
    if (slot == 0 || sc.stamps[slot].gen == sc.generation) continue;
    sc.stamps[slot].gen = sc.generation;
    ++newly_marked;
    sc.work_stack.push_back(edge_node(node_at(slot).low));
    sc.work_stack.push_back(edge_node(node_at(slot).high));
  }
  return newly_marked;
}

std::size_t BddManager::gc() {
  assert(!scratch_.in_operation && "GC must not run inside a BDD operation");
  const std::uint32_t generation = next_generation();
  const NodeIndex end = allocated();
  for (NodeIndex n = 1; n < end; ++n) {
    if (ref_at(n) > 0 && node_at(n).var != kInvalidVar) mark_reachable(n);
  }

  std::size_t freed = 0;
  for (NodeIndex n = 1; n < end; ++n) {
    if (scratch_.stamps[n].gen == generation ||
        node_at(n).var == kInvalidVar) {
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
  invalidate_cache();
  ++stats_.gc_runs;
  // Occupancy is exactly the live set now. Waiting for `live` fresh
  // allocations before the next collection keeps the mark-and-sweep
  // work O(1) amortized per node; the floor keeps small pools from
  // collecting at all.
  const std::size_t live = allocated() - 1 - free_count_;
  gc_threshold_ = std::max(gc_floor_, kGcLiveFactor * live);
  return freed;
}

void BddManager::maybe_gc() {
  if (scratch_.in_operation) return;
  if (allocated() - 1 - free_count_ < gc_threshold_) return;
  gc();
}

void BddManager::set_max_live_nodes(std::size_t budget) {
  max_live_nodes_ = budget;
}

void BddManager::invalidate_cache() {
  // O(1): entries from older epochs simply stop matching. Only the
  // (once per ~2^32 clears) epoch wrap pays for a physical sweep.
  if (++cache_epoch_ == 0) {
    for (CacheEntry& e : cache_) e.epoch = 0;
    cache_epoch_ = 1;
  }
}

void BddManager::clear_cache() {
  invalidate_cache();
  stats_.cache_hits = 0;
  stats_.cache_lookups = 0;
}

std::size_t BddManager::live_node_count() {
  next_generation();
  std::size_t live = 0;
  const NodeIndex end = allocated();
  for (NodeIndex n = 1; n < end; ++n) {
    if (ref_at(n) > 0 && node_at(n).var != kInvalidVar) {
      live += mark_reachable(n);
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
  ++stats_.cache_lookups;
  const CacheEntry& e = cache_[hash_cache_key(op, a, b, c) & cache_mask_];
  if (e.epoch == cache_epoch_ && e.op == op && e.a == a && e.b == b &&
      e.c == c) {
    ++stats_.cache_hits;
    *out = e.result;
    return true;
  }
  return false;
}

void BddManager::maybe_grow_cache() {
  const std::size_t size = cache_.size();
  if (++cache_stores_since_grow_ <= size / 4 || size >= cache_max_size_) {
    return;
  }
  // Bounded by the pool (as CUDD and BuDDy bound theirs by the node
  // table): a table larger than the occupied slots mostly holds keys the
  // pool cannot form, and its probes miss the CPU caches. Sustained
  // overwrite pressure still grows it — a reuse-heavy fixpoint over a
  // small pool evicts memos it is about to need again.
  const std::size_t grown = std::min(size * 4, cache_max_size_);
  const std::size_t occupied =
      static_cast<std::size_t>(allocated()) - 1 - free_count_;
  if (grown > occupied && cache_stores_since_grow_ <= 4 * size) return;

  // Re-insert the live memos. An old slot's index is the low bits of its
  // new one, so distinct old slots never collide in the grown table.
  std::vector<CacheEntry> old(grown);
  old.swap(cache_);
  cache_mask_ = grown - 1;
  for (const CacheEntry& e : old) {
    if (e.epoch != cache_epoch_) continue;
    cache_[hash_cache_key(e.op, e.a, e.b, e.c) & cache_mask_] = e;
  }
  cache_stores_since_grow_ = 0;
  stats_.cache_entries = grown;
}

void BddManager::cache_store(std::uint32_t op, NodeIndex a, NodeIndex b,
                             NodeIndex c, NodeIndex result) {
  maybe_grow_cache();
  CacheEntry& e = cache_[hash_cache_key(op, a, b, c) & cache_mask_];
  e.op = op;
  e.a = a;
  e.b = b;
  e.c = c;
  e.result = result;
  e.epoch = cache_epoch_;
}

void BddManager::set_gc_threshold(std::size_t threshold) {
  gc_floor_ = threshold == 0 ? 1 : threshold;
  gc_threshold_ = gc_floor_;
}

}  // namespace covest::bdd
