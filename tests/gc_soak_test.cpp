// The reclamation soak battery: concurrent shared-mode collections at
// the BDD layer (stop-the-world pauses, immediate slot reuse, forced
// collections racing working threads) and the server-shaped executor
// soak — 100+ warm-cache requests with model churn, sharded estimation
// epochs and periodic stop-the-world maintenance windows, held to
// byte-identical replies and a live-node plateau.
// Built for the sanitizer CI matrix: every assertion here runs under
// TSan and ASan+UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "engine/result_json.h"
#include "engine/session_cache.h"

namespace covest {
namespace {

using engine::CoverageRequest;
using engine::Engine;
using engine::Executor;
using engine::ExecutorOptions;
using engine::JobHandle;
using engine::SuiteResult;

const char* kModels[] = {"counter.cov", "arbiter.cov", "handshake.cov",
                         "shift.cov", "traffic.cov"};
constexpr std::size_t kModelCount = sizeof(kModels) / sizeof(kModels[0]);

std::string model_path(const char* name) {
  return std::string(COVEST_SOURCE_DIR) + "/examples/models/" + name;
}

std::string canonical(const SuiteResult& r) {
  engine::JsonOptions opts;
  opts.include_stats = false;
  return engine::to_json(r, opts);
}

// --------------------------------------------------------------------------
// bdd.h shared-mode reclamation, driven directly
// --------------------------------------------------------------------------

/// Deterministic per-(lane, round) formula over `vars`; every round's
/// intermediates die when the next round overwrites the handle —
/// exactly the garbage collections must reclaim.
bdd::Bdd family(bdd::BddManager& m, const std::vector<bdd::Bdd>& vars,
                std::size_t lane, int round) {
  bdd::Bdd acc = (round % 2) != 0 ? m.bdd_true() : m.bdd_false();
  for (std::size_t i = 0; i < vars.size(); ++i) {
    const bdd::Bdd& v = vars[(i * (lane + 1) + round) % vars.size()];
    if ((round % 2) != 0) {
      acc &= v ^ vars[i];
    } else {
      acc = ite(v, acc, !vars[i] | acc);
    }
  }
  return acc;
}

TEST(SharedGcSoakTest, ConcurrentCollectionsReclaimAndStayCanonical) {
  constexpr unsigned kVars = 14;
  constexpr std::size_t kWorkers = 3;
  constexpr int kRounds = 60;
  bdd::BddManager mgr(kVars);
  // Low threshold: the allocator raises gc_requested_ as soon as the
  // free list runs dry, so collections genuinely interleave with the
  // working threads below instead of never firing.
  mgr.set_gc_threshold(2048);
  std::vector<bdd::Bdd> vars;
  for (unsigned i = 0; i < kVars; ++i) vars.push_back(mgr.var(i));

  std::vector<bdd::Bdd> finals(kWorkers);
  mgr.begin_shared(kWorkers + 1);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kWorkers; ++t) {
      threads.emplace_back([&, t] {
        mgr.register_shard_thread();
        for (int round = 0; round < kRounds; ++round) {
          finals[t] = family(mgr, vars, t, round);
        }
      });
    }
    // A collector thread forces full collections while the workers
    // are mid-build: every one of them must park at its next
    // operation gate and resume with its handles intact.
    threads.emplace_back([&] {
      mgr.register_shard_thread();
      for (int i = 0; i < 8; ++i) {
        mgr.gc();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    for (std::thread& th : threads) th.join();
  }
  mgr.end_shared();

  const bdd::BddStats stats = mgr.stats();
  EXPECT_GT(stats.shared_gc_runs, 0u);
  // The plateau: with reclamation working, the pool stays near the
  // collection threshold instead of absorbing every round's garbage
  // (3 workers x 60 rounds would otherwise pile up tens of
  // thousands of dead slots).
  EXPECT_LT(stats.allocated_nodes, 32768u);

  // Collections must not have touched live structure: exclusive-mode
  // recomputation lands on the identical canonical edge.
  EXPECT_TRUE(mgr.check_canonical());
  for (std::size_t t = 0; t < kWorkers; ++t) {
    EXPECT_EQ(finals[t], family(mgr, vars, t, kRounds - 1))
        << "lane " << t;
  }
}

TEST(SharedGcSoakTest, SweptSlotsAreReusedWhileAnotherThreadIdles) {
  // A shared collection frees what it sweeps: a registered thread that
  // sits idle between operations must not hold swept slots back from
  // reuse. Rebuilding the same garbage after a collection therefore
  // lands in the freed slots instead of growing the pool.
  constexpr unsigned kVars = 16;
  constexpr int kRounds = 20;
  // Slots per arena refill (BddManager::kArenaBlock): the only slack a
  // thread's allocation granularity can add between two readings.
  constexpr std::size_t kArenaBlock = 256;
  bdd::BddManager mgr(kVars);
  mgr.set_gc_threshold(1u << 30);  // Only the explicit gc() calls run.
  std::vector<bdd::Bdd> vars;
  for (unsigned i = 0; i < kVars; ++i) vars.push_back(mgr.var(i));

  std::mutex mu;
  std::condition_variable cv;
  bool idle_ready = false;
  bool main_done = false;
  mgr.begin_shared(2);
  mgr.register_shard_thread();
  std::thread idle([&] {
    mgr.register_shard_thread();
    const bdd::Bdd touched = vars[0] & vars[1];  // One operation.
    std::unique_lock<std::mutex> lock(mu);
    idle_ready = true;
    cv.notify_all();
    cv.wait(lock, [&] { return main_done; });
    EXPECT_FALSE(touched.is_false());
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return idle_ready; });
  }

  const auto build_garbage = [&] {
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t lane = 0; lane < 4; ++lane) {
        (void)family(mgr, vars, lane, round);
      }
    }
  };
  build_garbage();
  EXPECT_GT(mgr.gc(), 0u);
  const std::size_t first = mgr.stats().allocated_nodes;
  build_garbage();
  EXPECT_GT(mgr.gc(), 0u);
  const std::size_t second = mgr.stats().allocated_nodes;

  {
    std::lock_guard<std::mutex> lock(mu);
    main_done = true;
  }
  cv.notify_all();
  idle.join();
  mgr.end_shared();

  EXPECT_LE(second, first + 2 * kArenaBlock)
      << "pool grew from " << first << " to " << second << " slots";
  EXPECT_TRUE(mgr.check_canonical());
}

// --------------------------------------------------------------------------
// The server-shaped soak: warm cache, churn, maintenance windows
// --------------------------------------------------------------------------

TEST(GcSoakTest, HundredWarmRequestsWithMaintenanceStayByteIdentical) {
  // Low collection threshold for every manager elaborated below, so the
  // sharded estimation epochs actually collect concurrently (the
  // exclusive-mode threshold adapts back up on its own).
  ::setenv("COVEST_GC_THRESHOLD", "32", 1);
  struct RestoreEnv {
    ~RestoreEnv() { ::unsetenv("COVEST_GC_THRESHOLD"); }
  } restore;

  // Serial cold ground truth, computed once per model.
  std::vector<std::string> expected;
  for (const char* m : kModels) {
    CoverageRequest req;
    req.model_path = model_path(m);
    expected.push_back(canonical(Engine().run(req)));
  }

  // Capacity below the model count: every round churns the cache
  // (evictions + re-elaborations), the worst case for reclamation.
  auto cache = std::make_shared<engine::SessionCache>(4);
  ExecutorOptions options;
  options.workers = 2;
  options.session_cache = cache;
  Executor ex{options};

  constexpr int kRounds = 12;
  constexpr int kPerRound = 10;
  std::size_t total = 0;
  std::size_t max_shared_gc_runs = 0;
  std::vector<std::size_t> plateau;  ///< live_nodes after each window.
  for (int round = 0; round < kRounds; ++round) {
    std::vector<JobHandle> handles;
    std::vector<std::size_t> which;
    for (int k = 0; k < kPerRound; ++k) {
      const std::size_t idx = (round + k) % kModelCount;
      CoverageRequest req;
      req.model_path = model_path(kModels[idx]);
      req.shards = 2;  // Shared estimation epochs inside every job.
      which.push_back(idx);
      handles.push_back(ex.submit(req));
    }
    // The stop-the-world window races the in-flight batch: it must
    // drain active tasks, GC the parked sessions and hand the queue
    // back without perturbing a single reply byte.
    const engine::MaintenanceStats window = ex.maintenance();
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const SuiteResult r = handles[i].take();
      ASSERT_TRUE(r.error.empty()) << kModels[which[i]] << ": " << r.error;
      EXPECT_EQ(canonical(r), expected[which[i]])
          << "round " << round << " " << kModels[which[i]];
      max_shared_gc_runs =
          std::max(max_shared_gc_runs, r.estimate.shared_gc_runs);
      ++total;
    }
    (void)window;
    plateau.push_back(cache->stats().live_nodes);
  }
  EXPECT_GE(total, 100u);
  // Some job's manager really collected inside a shared epoch.
  EXPECT_GT(max_shared_gc_runs, 0u);

  // The plateau: once every model has been seen (round 3 on), parked
  // live nodes stop growing — maintenance plus in-epoch reclamation
  // keep the resident set flat across another ~100 requests.
  ASSERT_GE(plateau.size(), 4u);
  const std::size_t baseline = plateau[2];
  EXPECT_GT(baseline, 0u);
  const std::size_t worst =
      *std::max_element(plateau.begin() + 3, plateau.end());
  EXPECT_LE(worst, baseline * 2);
}

}  // namespace
}  // namespace covest
