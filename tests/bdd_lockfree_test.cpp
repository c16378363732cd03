// Direct battery for the shared-mode tables (bdd.h shared mode, striped
// locks): the unique table under same-variable `make_node` bursts, the
// one computed cache that exclusive and shared mode both read, the hard
// (throwing) form of the exclusive-only structural-mutation contract,
// and epoch churn over a real model (repeated epochs plateau; a new
// manager never inherits a dead one's thread-local context cache).
// Built for the sanitizer CI matrix alongside shared_shard_stress_test:
// every assertion here runs under TSan and ASan+UBSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.h"
#include "circuits/circuits.h"
#include "fsm/symbolic_fsm.h"

namespace covest::bdd {
namespace {

// --------------------------------------------------------------------------
// Unique table: same-variable bursts stay canonical
// --------------------------------------------------------------------------

/// A formula family deliberately dense in a *tiny* variable set, so every
/// thread's make_node calls land in the same few subtables and contend
/// for the same stripes. Different lanes build overlapping functions in
/// different orders, which maximizes equal-key insertion races.
Bdd dense_family(BddManager& mgr, const std::vector<Bdd>& vars,
                 std::size_t lane, std::size_t rounds) {
  Bdd acc = lane % 2 == 0 ? mgr.bdd_false() : mgr.bdd_true();
  Bdd parity = mgr.bdd_false();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < vars.size(); ++i) {
      const Bdd& a = vars[(i + lane) % vars.size()];
      const Bdd& b = vars[(i + r) % vars.size()];
      parity ^= a;
      acc = ite(a, acc ^ b, acc | (a & !b));
    }
  }
  return acc ^ parity;
}

TEST(BddSharedTableTest, SameVariableBurstsStayCanonicalAndMatchExclusive) {
  constexpr unsigned kVars = 6;  // Tiny on purpose: maximal collisions.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 40;
  BddManager mgr(kVars);
  std::vector<Bdd> vars;
  for (unsigned i = 0; i < kVars; ++i) vars.push_back(mgr.var(i));

  std::vector<Bdd> shared_results(kThreads);
  mgr.begin_shared(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        mgr.register_shard_thread();
        shared_results[t] = dense_family(mgr, vars, t, kRounds);
        // Lanes also rebuild each other's functions, so equal-key
        // insertion races are certain, not probabilistic.
        const Bdd twin = dense_family(mgr, vars, (t + 1) % kThreads, kRounds);
        (void)twin;
      });
    }
    for (std::thread& th : threads) th.join();
  }
  mgr.end_shared();

  // Canonicity is global: no stored complemented high edge, no low==high,
  // anywhere in the pool the burst built.
  EXPECT_TRUE(mgr.check_canonical());
  // Exclusive recomputation lands on the identical edge for every lane:
  // the shared epoch deduplicated exactly like an exclusive table.
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(shared_results[t], dense_family(mgr, vars, t, kRounds))
        << "lane " << t;
  }
  // And the structures survive a GC with every root intact.
  mgr.gc();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(shared_results[t], dense_family(mgr, vars, t, kRounds))
        << "post-gc lane " << t;
  }
}

// --------------------------------------------------------------------------
// Computed cache: one table across the mode switch
// --------------------------------------------------------------------------

TEST(BddSharedTableTest, ExclusiveMemoIsOneLookupAwayInsideASharedEpoch) {
  // The verify phase memoizes in exclusive mode; the estimator threads
  // that follow run in a shared epoch. A shared epoch must read the
  // same table, so recomputing a memoized `f & g` there is one lookup
  // and one hit — not a cold recursion through a separate cache.
  BddManager mgr(6);
  std::vector<Bdd> x;
  for (unsigned i = 0; i < 6; ++i) x.push_back(mgr.var(i));
  const Bdd f = (x[0] & x[1]) | (x[2] ^ x[4]);
  const Bdd g = (x[1] | x[3]) & (x[5] ^ x[0]);
  const Bdd memoized = f & g;  // Exclusive mode: stored in the cache.

  const std::size_t lookups_before = mgr.stats().cache_lookups;
  const std::size_t hits_before = mgr.stats().cache_hits;
  Bdd recomputed;
  mgr.begin_shared(1);
  mgr.register_shard_thread();
  recomputed = f & g;
  mgr.end_shared();  // Merges the thread's counters into stats().

  EXPECT_EQ(mgr.stats().cache_lookups - lookups_before, 1u);
  EXPECT_EQ(mgr.stats().cache_hits - hits_before, 1u);
  EXPECT_EQ(recomputed, memoized);
}

TEST(BddSharedTableTest, CacheEntriesFromBeforeClearCacheStopMatching) {
  // clear_cache's O(1) epoch bump must invalidate entries stored inside
  // a shared epoch exactly like exclusive ones.
  BddManager mgr(1, /*cache_size_log2=*/2);
  mgr.begin_shared(1);
  mgr.register_shard_thread();
  mgr.debug_cache_store(9, 1, 2, 3, 42);
  NodeIndex out = 0;
  EXPECT_TRUE(mgr.debug_cache_find(9, 1, 2, 3, &out));
  EXPECT_EQ(out, 42u);
  mgr.end_shared();

  mgr.clear_cache();

  mgr.begin_shared(1);
  mgr.register_shard_thread();
  EXPECT_FALSE(mgr.debug_cache_find(9, 1, 2, 3, &out));
  mgr.end_shared();
}

// --------------------------------------------------------------------------
// Affinity guard and the exclusive-only contract
// --------------------------------------------------------------------------

TEST(BddSharedTableTest, UnregisteredThreadIsRejectedInSharedMode) {
  BddManager mgr(2);
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(1);
  mgr.begin_shared(2);
  std::thread outsider([&] {
    // Structured failure, not pool corruption.
    EXPECT_THROW((void)(a & b), std::logic_error);
  });
  outsider.join();
  mgr.register_shard_thread();
  const Bdd conj = a & b;
  mgr.end_shared();
  EXPECT_FALSE(conj.is_false());
  EXPECT_TRUE(mgr.check_canonical());
}

TEST(BddSharedTableTest, StructuralMutationThrowsWhileShared) {
  // The remaining exclusive-only entry points are hard errors in release
  // builds too: nothing may move or relabel nodes under a shared epoch.
  // gc() and clear_cache() are legal since the epoch-based reclamation
  // landed — they collect through the stop-the-world-at-op-boundaries
  // protocol instead of throwing.
  BddManager mgr(4);
  const Bdd keep = mgr.var(0) & mgr.var(1);
  mgr.begin_shared(1);
  mgr.register_shard_thread();
  EXPECT_NO_THROW(mgr.gc());
  EXPECT_NO_THROW(mgr.clear_cache());
  EXPECT_FALSE((mgr.var(0) & mgr.var(1)).is_false());  // Still operable.
  EXPECT_THROW(mgr.new_var(), std::logic_error);
  EXPECT_THROW(mgr.live_node_count(), std::logic_error);
  EXPECT_THROW(mgr.reorder_sift(), std::logic_error);
  EXPECT_THROW(mgr.swap_adjacent_levels(0), std::logic_error);
  EXPECT_THROW(mgr.set_order({0, 1, 2, 3}), std::logic_error);
  EXPECT_THROW(mgr.begin_shared(2), std::logic_error);
  mgr.end_shared();
  // And everything works again once the epoch is over.
  EXPECT_THROW(mgr.end_shared(), std::logic_error);
  mgr.gc();
  mgr.clear_cache();
  (void)mgr.new_var();
  (void)mgr.live_node_count();
  (void)mgr.reorder_sift();
  EXPECT_FALSE(keep.is_false());
  EXPECT_TRUE(mgr.check_canonical());
}

TEST(BddSharedTableTest, TraversalsRunConcurrentlyWithBursts) {
  // Mixed load: half the threads build (unique-table pressure), half
  // traverse shared roots (sat_count / support / node_count, which size
  // their stamp arrays from the atomic allocation counter while the
  // pool grows under them).
  constexpr unsigned kVars = 8;
  constexpr std::size_t kThreads = 4;
  BddManager mgr(kVars);
  std::vector<Bdd> vars;
  std::vector<Var> over;
  for (unsigned i = 0; i < kVars; ++i) {
    vars.push_back(mgr.var(i));
    over.push_back(i);
  }
  Bdd root = mgr.bdd_false();
  for (unsigned i = 0; i + 1 < kVars; i += 2) {
    root |= vars[i] & !vars[i + 1];
  }
  const double expected = mgr.sat_count(root, over);

  mgr.begin_shared(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        mgr.register_shard_thread();
        if (t % 2 == 0) {
          (void)dense_family(mgr, vars, t, 20);
        } else {
          for (int i = 0; i < 50; ++i) {
            EXPECT_DOUBLE_EQ(mgr.sat_count(root, over), expected);
            (void)mgr.support(root);
            (void)mgr.node_count(root);
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  mgr.end_shared();
  EXPECT_TRUE(mgr.check_canonical());
}

// --------------------------------------------------------------------------
// Epoch churn over a real model
// --------------------------------------------------------------------------

/// One result per shared-mode entry point class, plus the fix-point that
/// chains them. Handles stay valid across epochs (no gc runs between).
struct Battery {
  Bdd conj;       ///< apply_and
  Bdd parity;     ///< apply_xor
  Bdd mux;        ///< apply_ite
  Bdd projected;  ///< exists
  Bdd rel_prod;   ///< and_exists
  Bdd reachable;  ///< the fix-point built from all of the above
};

/// Runs the battery on operands derived from the FSM's own transition
/// parts — real model structure, not toy formulas.
Battery run_battery(fsm::SymbolicFsm& fsm) {
  BddManager& mgr = fsm.mgr();
  const std::vector<Bdd>& parts = fsm.transition_parts();
  Bdd a = mgr.bdd_true();
  Bdd b = mgr.bdd_true();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    (i % 2 == 0 ? a : b) &= parts[i];
  }
  Bdd cube = mgr.bdd_true();
  for (const Var v : fsm.next_vars()) cube &= mgr.var(v);

  Battery out;
  out.conj = mgr.apply_and(a, b);
  out.parity = mgr.apply_xor(a, b);
  out.mux = mgr.apply_ite(fsm.initial_states(), a, b);
  out.projected = mgr.exists(out.conj, cube);
  out.rel_prod = mgr.and_exists(a, b, cube);
  out.reachable = fsm.reachable(fsm.initial_states());
  return out;
}

/// The same battery inside a one-thread shared epoch. The
/// computed cache is cleared first so every recursion genuinely re-runs
/// through the shared-mode paths instead of replaying cache hits.
Battery run_shared(fsm::SymbolicFsm& fsm) {
  BddManager& mgr = fsm.mgr();
  mgr.clear_cache();
  mgr.begin_shared(1);
  mgr.register_shard_thread();
  Battery out = run_battery(fsm);
  mgr.end_shared();
  return out;
}

void expect_identical(const Battery& got, const Battery& want,
                      const std::string& label) {
  EXPECT_EQ(got.conj, want.conj) << label << ": and";
  EXPECT_EQ(got.parity, want.parity) << label << ": xor";
  EXPECT_EQ(got.mux, want.mux) << label << ": ite";
  EXPECT_EQ(got.projected, want.projected) << label << ": exists";
  EXPECT_EQ(got.rel_prod, want.rel_prod) << label << ": and_exists";
  EXPECT_EQ(got.reachable, want.reachable) << label << ": reachable";
}

TEST(BddSharedTableTest, RepeatedSharedEpochsOverAModelDoNotGrowThePool) {
  circuits::TokenRingSpec spec;
  spec.cells = 16;
  fsm::SymbolicFsm fsm(circuits::make_token_ring(spec));
  const Battery first = run_shared(fsm);
  fsm.mgr().live_node_count();  // Refreshes stats().allocated_nodes.
  const std::size_t after_first = fsm.mgr().stats().allocated_nodes;
  for (int epoch = 0; epoch < 3; ++epoch) {
    expect_identical(run_shared(fsm), first,
                     "epoch " + std::to_string(epoch));
  }
  // Every recomputation canonicalizes onto already-allocated nodes; the
  // slack is one arena block.
  fsm.mgr().live_node_count();
  EXPECT_LE(fsm.mgr().stats().allocated_nodes, after_first + 256);
  EXPECT_TRUE(fsm.mgr().check_canonical());
}

// Regression: the per-thread shard-ctx cache was keyed on (manager
// address, per-manager epoch counter). A new manager allocated at a
// dead manager's address false-hit once its counter climbed back to
// the cached value, returning a ThreadCtx* into freed memory. The
// epoch token is process-global now; this loop is the use-after-free
// reproducer (each round's first epoch collided with the previous
// round's cached epoch), kept hot for ASan/TSan.
TEST(BddSharedTableTest, ManagerChurnDoesNotAliasThreadCtxCaches) {
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(round);
    circuits::TokenRingSpec spec;
    spec.cells = 8;
    auto fsm = std::make_unique<fsm::SymbolicFsm>(
        circuits::make_token_ring(spec));
    const Battery baseline = run_battery(*fsm);
    expect_identical(run_shared(*fsm), baseline,
                     "round " + std::to_string(round));
    EXPECT_TRUE(fsm->mgr().check_canonical());
  }
}

}  // namespace
}  // namespace covest::bdd
