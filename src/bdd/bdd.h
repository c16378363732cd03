// Shared reduced-ordered binary decision diagrams (ROBDDs) with
// complement edges.
//
// This is the symbolic substrate for the whole library: the transition
// relations, state sets and coverage sets of the paper are all BDDs
// managed by the `BddManager` defined here.
//
// The design follows the classic shared-BDD packages (Bryant '86,
// Brace-Rudell-Bryant '90, CUDD, BuDDy): a single node pool with
// hash-consed nodes, one unique subtable per variable (which makes
// adjacent-level swaps local, enabling sifting reordering), a lossy
// computed-table cache for the recursive operations, and mark-and-sweep
// garbage collection rooted at RAII `Bdd` handles.
//
// Complement-edge encoding
// ------------------------
// A `NodeIndex` is an *edge*: the low 31 bits are a slot in the node
// pool, and the MSB (`kComplementBit`) marks the edge as complemented.
// An edge with the complement bit set denotes the negation of the
// function rooted at its slot. Consequences:
//
//  * Negation is an O(1) bit flip (`edge_not`); `f` and `!f` share all
//    of their nodes, roughly halving live node counts on negation-heavy
//    workloads, and the computed cache needs no NOT entries at all.
//  * There is a single terminal node (slot 0). The constant TRUE is the
//    plain edge to it (`kTrueIndex == 0`) and FALSE is the complemented
//    edge (`kFalseIndex == kComplementBit`).
//  * Canonical form: a stored node's *high* edge is never complemented.
//    `make_node` restores the invariant by complementing both children
//    and returning a complemented edge when needed. The low edge and any
//    external edge may carry the complement bit.
//  * The recursive operations canonicalize complement bits before the
//    cache lookup (e.g. XOR strips both operands' bits, ITE forces a
//    plain `f` and `g`), so `f ^ g`, `!(f ^ g)`, `ite(f,g,h)` and their
//    negated variants all share one cache line.
//
// Generation-stamp protocol
// -------------------------
// Every node has a 32-bit generation stamp plus a 32-bit scratch word,
// held in the manager's scratch context parallel to the node pool. A
// traversal (mark, support, node_count, sat_count, permute, DOT export,
// GC) begins by bumping the generation counter; a node is "visited"
// when its stamp equals the current generation, and per-node traversal
// state lives in the scratch word (or in a flat side array for values
// wider than 32 bits, e.g. the sat-count memo). Traversals therefore
// run with zero per-call heap allocation once warmed up — nothing is
// cleared, stale state is simply outdated. The counter bumps are not
// reentrant: at most one stamped traversal runs at a time (operations
// that build nodes, like permute, are fine — fresh nodes start at
// generation 0). On the ~2^32nd traversal the counter wraps; the stamps
// are reset to 0 once and the counter restarts at 1.
//
// Thread safety
// -------------
// A `BddManager` and all `Bdd` handles attached to it are used by one
// thread at a time. Nothing inside the manager is synchronized: node
// reference counts are plain integers, and the unique subtables, the
// computed cache and the traversal scratch are unguarded. Concurrency
// lives above the kernel — the executor runs different jobs, each with
// its own manager, on different workers, and a cached session is leased
// to one worker at a time.
//
// The manager records its owning thread and, in debug builds, asserts
// that every node construction happens on that thread, so an executor
// bug that leaks a manager across workers fails loudly instead of
// corrupting the pool. A thread that legitimately takes over another
// thread's manager (a worker leasing a warm session) calls
// `rebind_to_current_thread` first.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace covest::bdd {

/// Identifies a BDD variable. Variables are created by `BddManager::new_var`
/// and are dense, starting at 0.
using Var = std::uint32_t;

/// An edge to a node in the manager's pool: a 31-bit slot index plus the
/// complement bit in the MSB. Slot 0 is the unique terminal.
using NodeIndex = std::uint32_t;

/// MSB of an edge: set when the edge denotes the negated function.
inline constexpr NodeIndex kComplementBit = 0x80000000u;

/// The constant TRUE: plain edge to the terminal slot.
inline constexpr NodeIndex kTrueIndex = 0;
/// The constant FALSE: complemented edge to the terminal slot.
inline constexpr NodeIndex kFalseIndex = kComplementBit;
inline constexpr NodeIndex kInvalidIndex = 0xffffffffu;
inline constexpr Var kInvalidVar = 0xffffffffu;

/// Slot part of an edge (drops the complement bit).
constexpr NodeIndex edge_node(NodeIndex e) { return e & ~kComplementBit; }
/// True when the edge carries the complement bit.
constexpr bool edge_is_complemented(NodeIndex e) {
  return (e & kComplementBit) != 0;
}
/// Negation: an O(1) flip of the complement bit.
constexpr NodeIndex edge_not(NodeIndex e) { return e ^ kComplementBit; }
/// True for the two constant edges (both point at terminal slot 0).
constexpr bool edge_is_terminal(NodeIndex e) { return edge_node(e) == 0; }

class BddManager;

/// RAII handle to a BDD edge. While at least one `Bdd` references a node,
/// that node and all its descendants survive garbage collection.
///
/// Handles are value types: cheap to copy (a pointer and an edge plus a
/// reference-count update) and comparable in O(1) thanks to canonicity —
/// two handles are semantically equal iff they hold the same edge.
class Bdd {
 public:
  /// Detached handle; usable only as an assignment target.
  Bdd() noexcept : mgr_(nullptr), index_(kInvalidIndex) {}
  Bdd(const Bdd& other) noexcept;
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other) noexcept;
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  /// True when the handle is attached to a manager.
  bool valid() const noexcept { return mgr_ != nullptr; }

  bool is_false() const noexcept { return index_ == kFalseIndex; }
  bool is_true() const noexcept { return index_ == kTrueIndex; }
  bool is_terminal() const noexcept { return edge_is_terminal(index_); }

  /// Variable labelling the root node. Precondition: not a terminal.
  Var top_var() const;
  /// Negative cofactor w.r.t. the root variable. Precondition: not terminal.
  Bdd low() const;
  /// Positive cofactor w.r.t. the root variable. Precondition: not terminal.
  Bdd high() const;

  NodeIndex index() const noexcept { return index_; }
  BddManager* manager() const noexcept { return mgr_; }

  // Boolean connectives. All operands must belong to the same manager.
  Bdd operator&(const Bdd& rhs) const;
  Bdd operator|(const Bdd& rhs) const;
  Bdd operator^(const Bdd& rhs) const;
  Bdd operator!() const;
  /// Set difference / inhibition: `this & !rhs`.
  Bdd operator-(const Bdd& rhs) const;
  Bdd implies(const Bdd& rhs) const;
  Bdd iff(const Bdd& rhs) const;

  Bdd& operator&=(const Bdd& rhs) { return *this = *this & rhs; }
  Bdd& operator|=(const Bdd& rhs) { return *this = *this | rhs; }
  Bdd& operator^=(const Bdd& rhs) { return *this = *this ^ rhs; }
  Bdd& operator-=(const Bdd& rhs) { return *this = *this - rhs; }

  /// Canonical equality: same function iff same edge.
  bool operator==(const Bdd& rhs) const noexcept {
    return mgr_ == rhs.mgr_ && index_ == rhs.index_;
  }
  bool operator!=(const Bdd& rhs) const noexcept { return !(*this == rhs); }

  /// True when `this -> other` is a tautology (subset test on state sets).
  bool subset_of(const Bdd& other) const;
  /// True when `this & other` is satisfiable (set intersection non-empty).
  bool intersects(const Bdd& other) const;

 private:
  friend class BddManager;
  Bdd(BddManager* mgr, NodeIndex index) noexcept;

  BddManager* mgr_;
  NodeIndex index_;
};

/// If-then-else on BDDs: `ite(f, g, h) = (f & g) | (!f & h)`.
Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);

/// Statistics snapshot for reporting (the paper reports BDD node counts
/// alongside run times in Table 2).
struct BddStats {
  std::size_t live_nodes = 0;       ///< Nodes reachable from live handles.
  std::size_t allocated_nodes = 0;  ///< Pool size including free-list nodes.
  std::size_t peak_live_nodes = 0;  ///< High-water mark of `live_nodes`.
  std::size_t gc_runs = 0;          ///< Collections run, automatic or not.
  /// Since the last explicit `clear_cache`. A collection invalidates the
  /// cache's entries but keeps these counters, so the hit rate spans
  /// collections.
  std::size_t cache_hits = 0;
  std::size_t cache_lookups = 0;    ///< Since the last `clear_cache`.
  /// Current computed-cache table size in entries (a gauge, not a
  /// counter; see `maybe_grow_cache` for the growth rule).
  std::size_t cache_entries = 0;
  std::size_t unique_hits = 0;      ///< make_node found an existing node.
  std::size_t unique_misses = 0;    ///< make_node created a new node.
  std::size_t reorderings = 0;
  /// Negations served as O(1) complement-bit flips. Each of these was a
  /// full cache-polluting traversal before complement edges.
  std::size_t o1_negations = 0;
  /// make_node calls that restored canonicity by complementing — i.e.
  /// node shapes that a complement-free package would have duplicated.
  std::size_t complement_canonicalizations = 0;

  /// Computed-cache hit rate since the last explicit `clear_cache`, in
  /// [0, 1].
  double cache_hit_rate() const {
    return cache_lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(cache_lookups);
  }
};

/// Owns the node pool, unique tables, computed cache and variable order.
class BddManager {
 public:
  /// Creates a manager with `initial_vars` anonymous variables.
  explicit BddManager(unsigned initial_vars = 0,
                      std::size_t cache_size_log2 = 18);
  ~BddManager();

  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  // -- Variables ------------------------------------------------------------

  /// Creates a fresh variable at the bottom of the current order.
  Var new_var(std::string name = {});
  std::size_t num_vars() const noexcept { return var_to_level_.size(); }
  const std::string& var_name(Var v) const { return var_names_.at(v); }
  void set_var_name(Var v, std::string name) {
    var_names_.at(v) = std::move(name);
  }

  /// Current level (position in the order, 0 = top) of a variable.
  unsigned level_of(Var v) const { return var_to_level_.at(v); }
  /// Variable currently sitting at `level`.
  Var var_at_level(unsigned level) const { return level_to_var_.at(level); }

  // -- Leaf / literal constructors -------------------------------------------

  Bdd bdd_true() { return Bdd(this, kTrueIndex); }
  Bdd bdd_false() { return Bdd(this, kFalseIndex); }
  /// Positive literal for variable `v`.
  Bdd var(Var v);
  /// Negative literal for variable `v` (the complement edge of `var(v)`).
  Bdd nvar(Var v);
  /// Literal with the given polarity.
  Bdd literal(Var v, bool positive) { return positive ? var(v) : nvar(v); }

  /// Conjunction of positive literals; the canonical representation of a
  /// set of variables used by the quantification operations.
  Bdd cube(const std::vector<Var>& vars);

  // -- Core operations --------------------------------------------------------

  Bdd apply_and(const Bdd& f, const Bdd& g);
  Bdd apply_or(const Bdd& f, const Bdd& g);
  Bdd apply_xor(const Bdd& f, const Bdd& g);
  /// O(1): flips the complement bit. Never allocates, never touches the
  /// computed cache.
  Bdd apply_not(const Bdd& f);
  Bdd apply_ite(const Bdd& f, const Bdd& g, const Bdd& h);

  /// Existential quantification over the variables of `cube`.
  Bdd exists(const Bdd& f, const Bdd& cube);
  /// Universal quantification over the variables of `cube`.
  Bdd forall(const Bdd& f, const Bdd& cube);
  /// Relational product `exists(cube, f & g)` computed in one pass — the
  /// workhorse of symbolic image computation.
  Bdd and_exists(const Bdd& f, const Bdd& g, const Bdd& cube);

  /// Functional composition: `f` with variable `v` replaced by function `g`.
  Bdd compose(const Bdd& f, Var v, const Bdd& g);

  /// Simultaneous variable renaming. `perm[v]` is the replacement for `v`;
  /// identity entries may be omitted by passing `perm.size() < num_vars()`.
  /// The mapping must be injective on the support of `f` and must not
  /// reorder levels in a way that mixes mapped and unmapped support.
  /// (Renaming between interleaved current/next state variables — the only
  /// use in this library — always satisfies this.)
  Bdd permute(const Bdd& f, const std::vector<Var>& perm);

  /// Positive (`value = true`) or negative cofactor w.r.t. one variable.
  Bdd cofactor(const Bdd& f, Var v, bool value);

  /// Coudert-Madre generalized cofactor ("restrict"): a function that
  /// agrees with `f` on the care set `care` and is usually smaller:
  /// `simplify(f, care) & care == f & care`. Used to shrink state-set
  /// BDDs against the reachable/coverage space. `care` must not be false.
  Bdd simplify(const Bdd& f, const Bdd& care);

  // -- Inspection --------------------------------------------------------------

  /// Number of satisfying assignments of `f` over exactly the variables in
  /// `over` (which must be a superset of `f`'s support). Exact for counts
  /// up to 2^53; the coverage metric divides two such counts.
  double sat_count(const Bdd& f, const std::vector<Var>& over);

  /// Some satisfying cube of `f` (ordered literals), empty iff `f` is false.
  std::vector<std::pair<Var, bool>> sat_one(const Bdd& f);

  /// A full deterministic assignment to `over` satisfying `f`
  /// (unconstrained variables default to false). Precondition: `f` is
  /// satisfiable and its support is contained in `over`.
  std::vector<std::pair<Var, bool>> pick_minterm(const Bdd& f,
                                                 const std::vector<Var>& over);

  /// Enumerates up to `limit` minterms of `f` over `over`, in lexicographic
  /// order of the variable levels. Intended for the uncovered-state report.
  std::vector<std::vector<std::pair<Var, bool>>> enumerate_minterms(
      const Bdd& f, const std::vector<Var>& over, std::size_t limit);

  /// Evaluates `f` under a complete assignment indexed by variable id.
  bool eval(const Bdd& f, const std::vector<bool>& assignment);

  /// Variables occurring in `f`, sorted by id.
  std::vector<Var> support(const Bdd& f);

  /// Number of distinct nodes in `f` (terminal excluded). `f` and `!f`
  /// share all nodes, so their counts are equal.
  std::size_t node_count(const Bdd& f);
  /// Number of distinct nodes in the union of the given functions.
  std::size_t node_count(const std::vector<Bdd>& fs);

  // -- Memory management ---------------------------------------------------------

  /// Mark-and-sweep collection rooted at live handles. Invalidates nothing
  /// that is still referenced. Returns the number of nodes freed; freed
  /// slots go straight back to the free list. Invalidates the computed
  /// cache (keeping its hit-rate counters) and re-arms the automatic
  /// trigger at `max(floor, kGcLiveFactor * live)`. Must not run inside
  /// an operation.
  std::size_t gc();

  /// Clears the computed cache (an O(1) epoch bump) and resets the
  /// cache statistics (`cache_hits`, `cache_lookups`); exposed mainly
  /// for benchmarking cold-cache behaviour.
  void clear_cache();

  /// Automatic collection runs at an operation boundary once the pool's
  /// occupancy (allocated - free) reaches `gc_threshold()`. Every
  /// collection re-arms it at `max(floor, kGcLiveFactor * live)`, so a
  /// collection is paid for by at least `live` fresh allocations and the
  /// pool stays near `floor + kGcLiveFactor * peak live`. The floor is
  /// `kGcFloor` unless seeded here or from the COVEST_GC_THRESHOLD
  /// environment variable at construction (tests and soaks force small
  /// pools into collection that way); seeding also sets the current
  /// threshold.
  void set_gc_threshold(std::size_t threshold);
  std::size_t gc_threshold() const noexcept { return gc_threshold_; }

  /// Default collection floor: models whose pools stay below it never
  /// collect automatically.
  static constexpr std::size_t kGcFloor = 4096;
  /// Re-arm factor: the next automatic collection waits until the
  /// occupancy is this multiple of the live set the last one left.
  static constexpr std::size_t kGcLiveFactor = 2;

  /// Node budget: when nonzero, growing the pool past `budget` occupied
  /// slots throws covest::ResourceExhausted instead of allocating.
  /// Occupancy is `allocated() - 1 - free_count` (terminal excluded) —
  /// live nodes plus garbage the next GC would reclaim — so the budget
  /// bounds resident pool memory, not the reachable-node count.
  /// Exhaustion fires before any slot is handed out, so the pool is
  /// never left inconsistent.
  void set_max_live_nodes(std::size_t budget);
  std::size_t max_live_nodes() const noexcept { return max_live_nodes_; }

  // -- Dynamic variable reordering ------------------------------------------------

  /// Swaps the variables at `level` and `level + 1`. The functions of all
  /// externally held handles are preserved, and so is the computed cache
  /// (every memo still names a correct result; `gc()` clears it). Exposed
  /// for testing; normal clients call `reorder_sift`.
  void swap_adjacent_levels(unsigned level);

  /// Rudin-style sifting: each variable (most populous subtable first) is
  /// moved through the whole order and parked at the position minimising
  /// the live node count. `max_vars` bounds how many variables are sifted
  /// (0 = all). Returns the live node count after reordering.
  std::size_t reorder_sift(std::size_t max_vars = 0);

  /// Installs `order` (a permutation of all variable ids, top first) by
  /// repeated adjacent swaps. Intended for tests and deterministic layouts.
  void set_order(const std::vector<Var>& order);

  // -- Diagnostics -------------------------------------------------------------------

  const BddStats& stats() const noexcept { return stats_; }
  /// Live node count right now (runs no GC; counts reachable nodes).
  std::size_t live_node_count();

  /// Thread that owns this manager (thread-safety contract above).
  std::thread::id owner_thread() const noexcept { return owner_thread_; }
  /// Transfers ownership to the calling thread. Only legal once the
  /// previous owner has stopped using the manager — the hand-off a
  /// multi-worker executor performs when a worker leases a session
  /// another worker parked in the warm cache.
  void rebind_to_current_thread() noexcept {
    owner_thread_ = std::this_thread::get_id();
  }

  // -- Test instrumentation ----------------------------------------------------

  /// Raw computed-cache probe/publish, bypassing the recursive
  /// operations. `op` is opaque to the cache, so tests can drive
  /// synthetic keys and assert that a lookup never returns a value
  /// whose full key does not match. Not for production use.
  bool debug_cache_find(std::uint32_t op, NodeIndex a, NodeIndex b,
                        NodeIndex c, NodeIndex* out) {
    return cache_find(op, a, b, c, out);
  }
  void debug_cache_store(std::uint32_t op, NodeIndex a, NodeIndex b,
                         NodeIndex c, NodeIndex result) {
    cache_store(op, a, b, c, result);
  }

  /// Writes `f` in Graphviz DOT format (solid = high edge, dashed = low,
  /// odot arrowhead = complemented edge).
  void write_dot(std::ostream& os, const Bdd& f, const std::string& label);

  // Internal accessors used by the free algorithms in this library. They
  // take *edges* and return semantic cofactors (complement folded in).
  Var node_var(NodeIndex e) const { return node_at(edge_node(e)).var; }
  // Folding the edge's complement into a child is a branchless XOR with
  // the edge's own complement bit.
  NodeIndex node_low(NodeIndex e) const {
    return node_at(edge_node(e)).low ^ (e & kComplementBit);
  }
  NodeIndex node_high(NodeIndex e) const {
    return node_at(edge_node(e)).high ^ (e & kComplementBit);
  }

  /// Structural invariant check (tests): true iff no allocated node stores
  /// a complemented high edge and every low differs from its high.
  bool check_canonical() const;

 private:
  friend class Bdd;

  // 16 bytes; the traversal stamps live in the scratch context so the
  // hot recursion paths keep four nodes per cache line.
  struct Node {
    NodeIndex low = kInvalidIndex;   ///< May carry the complement bit.
    NodeIndex high = kInvalidIndex;  ///< Invariant: never complemented.
    Var var = kInvalidVar;
    NodeIndex next = kInvalidIndex;  ///< Unique-subtable chain link (slot).
  };

  /// Per-node traversal state (see the generation-stamp protocol in the
  /// header comment); indexed by slot, parallel to the node pool.
  struct NodeStamp {
    std::uint32_t gen = 0;      ///< Stamp: visited iff == generation.
    std::uint32_t scratch = 0;  ///< Per-traversal scratch word.
  };

  /// All mutable traversal scratch, reused across calls.
  struct Scratch {
    std::uint32_t generation = 0;  ///< Current traversal generation.
    bool in_operation = false;     ///< Guards against GC during recursion.
    std::vector<NodeStamp> stamps;       ///< Indexed by slot (grown lazily).
    std::vector<NodeIndex> work_stack;   ///< Reusable DFS stack.
    std::vector<double> count_memo;      ///< sat_count memo, by slot.
    std::vector<std::uint32_t> var_gen;  ///< Per-variable stamps (support).
    std::vector<std::uint32_t> level_rank;   ///< sat_count: level -> rank.
    std::vector<unsigned> level_scratch;     ///< sat_count: sorted levels.
  };

  struct Subtable {
    std::vector<NodeIndex> buckets;
    std::size_t count = 0;  ///< Nodes currently labelled with this variable.
  };

  struct CacheEntry {
    std::uint32_t op = 0;  ///< 0 = empty slot.
    NodeIndex a = 0, b = 0, c = 0;
    NodeIndex result = 0;
    /// Entry is live iff this matches the manager's `cache_epoch_`;
    /// `clear_cache` invalidates everything by bumping the epoch in O(1)
    /// instead of sweeping megabytes of entries.
    std::uint32_t epoch = 0;
  };

  enum Op : std::uint32_t {
    kOpAnd = 1,
    kOpXor,
    kOpIte,
    kOpExists,
    kOpAndExists,
    kOpCompose,
    kOpSimplify,
  };

  // -- Segmented node pool ---------------------------------------------------
  // Slots live in geometrically-sized segments (segment 0 holds 2^kSeg0Bits
  // slots, segment k>0 holds 2^(kSeg0Bits+k-1)), so growing the pool never
  // copies nodes: growth allocates one new segment next to the old ones,
  // where a reallocating vector would briefly hold the old and the new
  // pool at once — that copy would set the peak resident memory of every
  // large run. The segment of a slot is one bit-scan away.
  static constexpr unsigned kSeg0Bits = 9;
  static constexpr unsigned kMaxSegments = 23;  // Covers all 2^31 slots.

  static unsigned seg_of(NodeIndex slot) noexcept {
    return static_cast<unsigned>(
               std::bit_width(slot | ((NodeIndex{1} << kSeg0Bits) - 1))) -
           kSeg0Bits;
  }
  static NodeIndex seg_base(unsigned seg) noexcept {
    // Branchless: for seg 0 the shift lands on 2^(kSeg0Bits-1), which
    // the mask (0 - false == 0) then clears.
    return (NodeIndex{1} << (kSeg0Bits - 1 + seg)) &
           (NodeIndex{0} - static_cast<NodeIndex>(seg != 0));
  }
  static std::size_t seg_capacity(unsigned seg) noexcept {
    return std::size_t{1} << (seg == 0 ? kSeg0Bits : kSeg0Bits + seg - 1);
  }

  // The hot-path accessors read base-adjusted raw pointers (one
  // bit-scan, one table load, one element load — no branch, no
  // subtraction): `node_base_[s]` pre-subtracts the segment's first
  // slot, so indexing by the *global* slot lands inside the segment.
  // The arithmetic forming the adjusted pointer is done once at segment
  // creation; every dereference is in bounds.
  Node& node_at(NodeIndex slot) noexcept {
    return node_base_[seg_of(slot)][slot];
  }
  const Node& node_at(NodeIndex slot) const noexcept {
    return node_base_[seg_of(slot)][slot];
  }
  std::uint32_t& ref_at(NodeIndex slot) noexcept {
    return ref_base_[seg_of(slot)][slot];
  }

  /// Number of allocated slots (terminal included).
  NodeIndex allocated() const noexcept { return allocated_; }

  /// Grows segment storage until at least `n` slots are addressable.
  void ensure_pool(std::size_t n);

  // Node pool plumbing.
  NodeIndex make_node(Var v, NodeIndex low, NodeIndex high);
  NodeIndex allocate_node();
  void subtable_insert(Var v, NodeIndex n);
  void subtable_remove(Var v, NodeIndex n);
  std::size_t subtable_bucket(Var v, NodeIndex low, NodeIndex high) const;
  void rehash_subtable(Var v, std::size_t new_buckets);
  void maybe_resize_subtable(Var v);
  void maybe_gc();
  /// O(1) epoch bump: every memo stored before it stops matching.
  void invalidate_cache();

  /// RAII gate every public node-touching entry point passes through:
  /// runs the automatic collection check on entry (the `allow_gc` flag
  /// preserves the historical set of auto-GC points — inspection entries
  /// never trigger collection) and marks the manager as inside an
  /// operation, so no collection can run under a recursion's raw edges.
  class OpGate {
   public:
    explicit OpGate(BddManager& mgr, bool allow_gc = true)
        : sc_(mgr.scratch_), was_in_operation_(sc_.in_operation) {
      if (allow_gc) mgr.maybe_gc();
      sc_.in_operation = true;
    }
    ~OpGate() { sc_.in_operation = was_in_operation_; }
    OpGate(const OpGate&) = delete;
    OpGate& operator=(const OpGate&) = delete;

   private:
    Scratch& sc_;
    bool was_in_operation_;
  };

  unsigned level(NodeIndex e) const {
    const Var v = node_at(edge_node(e)).var;
    return v == kInvalidVar ? kTerminalLevel : var_to_level_[v];
  }
  static constexpr unsigned kTerminalLevel = 0xffffffffu;

  // Reference counting for handles (per slot). Inline: every Bdd copy,
  // assignment and destruction lands here.
  void ref(NodeIndex e) noexcept { ++ref_at(edge_node(e)); }
  void deref(NodeIndex e) noexcept {
    std::uint32_t& r = ref_at(edge_node(e));
    assert(r > 0);
    --r;
  }

  // Computed cache. The table starts at 2^8 entries and may quadruple,
  // up to the configured maximum, once the stores since the last growth
  // exceed a quarter of its size — but only while the grown table would
  // hold no more entries than the pool has occupied slots, or under
  // sustained overwrite pressure (more than 4x its size in stores since
  // the last growth). Growth keeps the current-epoch memos.
  bool cache_find(std::uint32_t op, NodeIndex a, NodeIndex b, NodeIndex c,
                  NodeIndex* out);
  void cache_store(std::uint32_t op, NodeIndex a, NodeIndex b, NodeIndex c,
                   NodeIndex result);
  void maybe_grow_cache();

  // Generation-stamp traversal protocol (all state in `scratch_`).
  std::uint32_t next_generation();
  /// Marks every node reachable from `e` with the current generation
  /// using the reusable work stack; returns how many unvisited
  /// non-terminal slots it stamped.
  std::size_t mark_reachable(NodeIndex e);

  // Recursive cores (operate on edges; callers hold handle roots).
  NodeIndex ite_rec(NodeIndex f, NodeIndex g, NodeIndex h);
  NodeIndex and_rec(NodeIndex f, NodeIndex g);
  /// De Morgan: `!and(!f, !g)`; shares the AND cache.
  NodeIndex or_rec(NodeIndex f, NodeIndex g) {
    return edge_not(and_rec(edge_not(f), edge_not(g)));
  }
  NodeIndex xor_rec(NodeIndex f, NodeIndex g);
  NodeIndex exists_rec(NodeIndex f, NodeIndex cube);
  NodeIndex and_exists_rec(NodeIndex f, NodeIndex g, NodeIndex cube);

  NodeIndex compose_rec(NodeIndex f, Var v, NodeIndex g, unsigned v_level);
  NodeIndex simplify_rec(NodeIndex f, NodeIndex care);
  NodeIndex permute_rec(NodeIndex f, const std::vector<Var>& perm);

  double sat_count_rec(NodeIndex slot);

  void sift_var_to(Var v, unsigned target_level);

  // Data members.
  std::array<std::unique_ptr<Node[]>, kMaxSegments> node_segs_;
  /// External reference counts, parallel to the node segments.
  std::array<std::unique_ptr<std::uint32_t[]>, kMaxSegments> ref_segs_;
  /// Base-adjusted segment pointers for the hot accessors above
  /// (`node_base_[s] == node_segs_[s].get() - seg_base(s)`).
  std::array<Node*, kMaxSegments> node_base_{};
  std::array<std::uint32_t*, kMaxSegments> ref_base_{};
  unsigned num_segments_ = 0;
  std::size_t pool_capacity_ = 0;
  std::uint32_t allocated_ = 0;  ///< Slots handed out so far.
  std::vector<Subtable> subtables_;
  std::vector<unsigned> var_to_level_;
  std::vector<Var> level_to_var_;
  std::vector<std::string> var_names_;
  std::vector<CacheEntry> cache_;
  std::size_t cache_mask_;
  std::size_t cache_max_size_;
  std::size_t cache_stores_since_grow_ = 0;
  std::uint32_t cache_epoch_ = 1;  ///< 0 is reserved for "never valid".
  NodeIndex free_head_ = kInvalidIndex;
  std::size_t free_count_ = 0;
  std::size_t gc_floor_ = kGcFloor;
  std::size_t gc_threshold_ = kGcFloor;
  std::size_t max_live_nodes_ = 0;  ///< 0 = unbudgeted (see setter).
  /// Thread-affinity guard: `make_node` asserts (debug builds) that node
  /// construction happens on this thread. See `rebind_to_current_thread`.
  std::thread::id owner_thread_ = std::this_thread::get_id();
  BddStats stats_;
  Scratch scratch_;  ///< Traversal scratch (generation-stamp protocol).
};

}  // namespace covest::bdd
