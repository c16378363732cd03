// The reclamation soak: the server-shaped executor workload — 100+
// warm-cache requests with model churn and frequent collections, held
// to byte-identical replies and a live-node plateau.
// Built for the sanitizer CI matrix: every assertion here runs under
// TSan and ASan+UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

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
// The server-shaped soak: warm cache, churn, in-run collections
// --------------------------------------------------------------------------

TEST(GcSoakTest, HundredWarmRequestsStayByteIdentical) {
  // Low collection floor for every manager elaborated below, so every
  // job collects while it runs (each collection re-arms the trigger at
  // twice the live set it leaves).
  ::setenv("COVEST_GC_THRESHOLD", "32", 1);
  struct RestoreEnv {
    ~RestoreEnv() { ::unsetenv("COVEST_GC_THRESHOLD"); }
  } restore;

  // Serial cold ground truth, computed once per model. The floor must
  // bite: beyond the one sweep that ends elaboration's reordering, the
  // models collect again.
  std::vector<std::string> expected;
  std::size_t cold_collections = 0;
  for (const char* m : kModels) {
    CoverageRequest req;
    req.model_path = model_path(m);
    const SuiteResult r = Engine().run(req);
    EXPECT_GE(r.estimate.gc_runs, 1u) << m;
    cold_collections += r.estimate.gc_runs;
    expected.push_back(canonical(r));
  }
  EXPECT_GT(cold_collections, 2 * kModelCount);

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
  std::vector<std::size_t> plateau;  ///< live_nodes after each round.
  for (int round = 0; round < kRounds; ++round) {
    std::vector<JobHandle> handles;
    std::vector<std::size_t> which;
    for (int k = 0; k < kPerRound; ++k) {
      const std::size_t idx = (round + k) % kModelCount;
      CoverageRequest req;
      req.model_path = model_path(kModels[idx]);
      which.push_back(idx);
      handles.push_back(ex.submit(req));
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const SuiteResult r = handles[i].take();
      ASSERT_TRUE(r.error.empty()) << kModels[which[i]] << ": " << r.error;
      EXPECT_GE(r.estimate.gc_runs, 1u) << kModels[which[i]];
      EXPECT_EQ(canonical(r), expected[which[i]])
          << "round " << round << " " << kModels[which[i]];
      ++total;
    }
    plateau.push_back(cache->stats().live_nodes);
  }
  EXPECT_GE(total, 100u);

  // The plateau: once every model has been seen (round 3 on), parked
  // live nodes stop growing — each manager collects by itself once its
  // pool reaches twice the live set its last collection left, which
  // keeps the resident set flat across another ~100 requests.
  ASSERT_GE(plateau.size(), 4u);
  const std::size_t baseline = plateau[2];
  EXPECT_GT(baseline, 0u);
  const std::size_t worst =
      *std::max_element(plateau.begin() + 3, plateau.end());
  EXPECT_LE(worst, baseline * 2);
}

}  // namespace
}  // namespace covest
