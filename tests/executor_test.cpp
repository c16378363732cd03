// The async multi-worker executor: submit/wait round-trips, deterministic
// ordering, bit-identical parity with the serial engine (including
// signal-sharded suites), streaming job events, cancellation, structured
// per-job errors, and the BDD thread-affinity hand-off.
#include <gtest/gtest.h>
#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "engine/ndjson_driver.h"
#include "engine/result_json.h"
#include "engine/session_cache.h"
#include "model/model_parser.h"
#include "util/governance.h"

namespace covest {
namespace {

using engine::CoverageRequest;
using engine::Engine;
using engine::Executor;
using engine::ExecutorOptions;
using engine::JobEvent;
using engine::JobHandle;
using engine::JobHooks;
using engine::Progress;
using engine::SuiteResult;

std::string model_path(const char* name) {
  return std::string(COVEST_SOURCE_DIR) + "/examples/models/" + name;
}

/// Deterministic serialization (no stats) — the byte-level identity the
/// sharded and parallel paths are held to.
std::string canonical(const SuiteResult& r) {
  engine::JsonOptions opts;
  opts.include_stats = false;
  return engine::to_json(r, opts);
}

CoverageRequest path_request(const char* name) {
  CoverageRequest req;
  req.model_path = model_path(name);
  return req;
}

// --------------------------------------------------------------------------
// Parity and ordering
// --------------------------------------------------------------------------

TEST(ExecutorTest, SubmitWaitMatchesSerialEngine) {
  CoverageRequest req = path_request("arbiter.cov");
  const SuiteResult serial = Engine().run(req);

  Executor ex{ExecutorOptions{2, nullptr}};
  JobHandle handle = ex.submit(req);
  handle.wait();
  EXPECT_TRUE(handle.done());
  const SuiteResult parallel = handle.take();

  EXPECT_TRUE(parallel.error.empty()) << parallel.error;
  EXPECT_EQ(canonical(parallel), canonical(serial));
}

TEST(ExecutorTest, RunAllReturnsResultsInSubmitOrder) {
  const char* models[] = {"counter.cov", "arbiter.cov", "handshake.cov",
                          "shift.cov",   "traffic.cov", "counter.cov",
                          "arbiter.cov", "shift.cov"};
  std::vector<CoverageRequest> requests;
  std::vector<std::string> expected;
  for (const char* m : models) {
    requests.push_back(path_request(m));
    expected.push_back(canonical(Engine().run(requests.back())));
  }

  Executor ex{ExecutorOptions{4, nullptr}};
  const std::vector<SuiteResult> results = ex.run_all(requests);
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(canonical(results[i]), expected[i]) << "request " << i;
  }
}

TEST(ExecutorTest, FourWorkersMatchOneWorkerByteForByte) {
  // The satellite determinism contract: --jobs 4 rows == --jobs 1 rows
  // for counter.cov and arbiter.cov.
  for (const char* m : {"counter.cov", "arbiter.cov"}) {
    std::vector<CoverageRequest> requests(4, path_request(m));
    Executor one{ExecutorOptions{1, nullptr}};
    Executor four{ExecutorOptions{4, nullptr}};
    const std::vector<SuiteResult> serial = one.run_all(requests);
    const std::vector<SuiteResult> parallel = four.run_all(requests);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(canonical(parallel[i]), canonical(serial[i])) << m;
    }
  }
}

// --------------------------------------------------------------------------
// Signal sharding
// --------------------------------------------------------------------------

TEST(ExecutorShardingTest, ShardedSuiteIsBitIdenticalToSerial) {
  for (const std::size_t shards : {2u, 3u, 8u}) {
    CoverageRequest req = path_request("arbiter.cov");
    req.want_traces = true;
    const std::string serial = canonical(Engine().run(req));

    req.shards = shards;
    Executor ex{ExecutorOptions{4, nullptr}};
    const SuiteResult sharded = ex.submit(req).take();
    EXPECT_TRUE(sharded.error.empty()) << sharded.error;
    EXPECT_EQ(canonical(sharded), serial) << "shards=" << shards;
  }
}

TEST(ExecutorShardingTest, ShardedCoveredHandlesStayLive) {
  // Rows estimated on different shard threads keep their covered-set
  // handles valid: the merged result retains the (single, shared)
  // session, and take() rebinds its manager to the consuming thread.
  CoverageRequest req = path_request("arbiter.cov");
  req.shards = 2;
  Executor ex{ExecutorOptions{2, nullptr}};
  const SuiteResult r = ex.submit(req).take();
  ASSERT_EQ(r.signals.size(), 2u);
  for (const engine::SignalRow& row : r.signals) {
    ASSERT_TRUE(row.covered.valid());
    EXPECT_FALSE(row.covered.is_false());
    // Composing with the handle exercises node construction on this
    // thread — the debug affinity guard must accept it after rebind.
    const bdd::Bdd complement = !row.covered;
    EXPECT_FALSE((row.covered & complement).is_true());
  }
}

TEST(ExecutorShardingTest, MoreShardsThanSignalsIsHarmless) {
  CoverageRequest req = path_request("counter.cov");  // One signal row.
  req.shards = 6;
  Executor ex{ExecutorOptions{2, nullptr}};
  const SuiteResult r = ex.submit(req).take();
  EXPECT_TRUE(r.error.empty()) << r.error;
  ASSERT_EQ(r.signals.size(), 1u);
  EXPECT_DOUBLE_EQ(r.signals[0].percent, 80.0);
}

TEST(ExecutorShardingTest, AbsurdShardCountsAreClampedToThePool) {
  // An untrusted NDJSON request must not translate a huge shards value
  // into unbounded thread creation: effective_shards clamps to the
  // signal-row count (and kMaxEstimatorThreads), so the job still runs
  // and still matches the serial result byte for byte.
  CoverageRequest req = path_request("arbiter.cov");
  req.shards = 1000000000;
  Executor ex{ExecutorOptions{2, nullptr}};
  const SuiteResult r = ex.submit(req).take();
  EXPECT_TRUE(r.error.empty()) << r.error;
  ASSERT_EQ(r.signals.size(), 2u);
  EXPECT_EQ(canonical(r), canonical(Engine().run(path_request("arbiter.cov"))));
}

// --------------------------------------------------------------------------
// Events
// --------------------------------------------------------------------------

TEST(ExecutorEventsTest, LifecycleEventsArriveInOrder) {
  std::mutex mu;
  std::vector<JobEvent> events;
  JobHooks hooks;
  hooks.on_event = [&](const JobEvent& e) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(e);
  };

  Executor ex{ExecutorOptions{1, nullptr}};
  ex.submit(path_request("handshake.cov"), hooks).take();

  std::lock_guard<std::mutex> lock(mu);
  // queued, started, 3 properties, estimating, 1 row, finished.
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events[0].kind, JobEvent::Kind::kQueued);
  EXPECT_EQ(events[1].kind, JobEvent::Kind::kStarted);
  for (int i = 2; i <= 4; ++i) {
    EXPECT_EQ(events[i].kind, JobEvent::Kind::kVerifying);
    EXPECT_EQ(events[i].progress.index, static_cast<std::size_t>(i - 1));
    EXPECT_EQ(events[i].progress.total, 3u);
    EXPECT_TRUE(events[i].progress.ok);
  }
  EXPECT_EQ(events[5].kind, JobEvent::Kind::kEstimating);
  EXPECT_EQ(events[6].kind, JobEvent::Kind::kRowDone);
  EXPECT_EQ(events[6].progress.item, "ack");
  EXPECT_DOUBLE_EQ(events[6].progress.percent, 100.0);
  EXPECT_EQ(events[7].kind, JobEvent::Kind::kFinished);
  EXPECT_FALSE(events[7].cancelled);
  EXPECT_TRUE(events[7].error.empty());
  for (const JobEvent& e : events) EXPECT_EQ(e.job, events[0].job);
}

TEST(ExecutorEventsTest, ThrowingEventCallbacksAreSwallowed) {
  // An event tap is fire-and-forget: a throwing callback must neither
  // kill a worker thread nor fail the job.
  JobHooks hooks;
  hooks.on_event = [](const JobEvent&) { throw std::runtime_error("tap"); };
  ExecutorOptions options;
  options.workers = 2;
  options.on_event = [](const JobEvent&) { throw 42; };
  Executor ex(std::move(options));
  const SuiteResult r = ex.submit(path_request("counter.cov"), hooks).take();
  EXPECT_TRUE(r.error.empty()) << r.error;
  ASSERT_EQ(r.signals.size(), 1u);
  EXPECT_DOUBLE_EQ(r.signals[0].percent, 80.0);
}

TEST(ExecutorEventsTest, ExecutorWideTapSeesEveryJob) {
  std::mutex mu;
  std::size_t queued = 0, finished = 0;
  ExecutorOptions options;
  options.workers = 2;
  options.on_event = [&](const JobEvent& e) {
    std::lock_guard<std::mutex> lock(mu);
    if (e.kind == JobEvent::Kind::kQueued) ++queued;
    if (e.kind == JobEvent::Kind::kFinished) ++finished;
  };
  Executor ex(std::move(options));
  ex.run_all({path_request("counter.cov"), path_request("shift.cov"),
              path_request("traffic.cov")});
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(queued, 3u);
  EXPECT_EQ(finished, 3u);
}

// --------------------------------------------------------------------------
// Cancellation
// --------------------------------------------------------------------------

TEST(ExecutorCancelTest, CancellingAQueuedJobSkipsItsRun) {
  Executor ex{ExecutorOptions{1, nullptr}};

  // Job A blocks the single worker until job B has been cancelled, so
  // B is deterministically still queued when the cancel lands.
  std::atomic<bool> b_cancelled{false};
  JobHooks gate;
  gate.on_progress = [&](const Progress&) {
    while (!b_cancelled.load()) std::this_thread::yield();
    return true;
  };
  JobHandle a = ex.submit(path_request("counter.cov"), gate);
  JobHandle b = ex.submit(path_request("arbiter.cov"));
  b.cancel();
  b_cancelled.store(true);

  const SuiteResult rb = b.take();
  EXPECT_TRUE(rb.cancelled);
  EXPECT_TRUE(rb.signals.empty());
  const SuiteResult ra = a.take();
  EXPECT_FALSE(ra.cancelled);
  EXPECT_EQ(ra.signals.size(), 1u);
}

TEST(ExecutorCancelTest, ProgressHookCancelsLikeTheFacade) {
  JobHooks hooks;
  hooks.on_progress = [](const Progress& p) {
    return p.phase != Progress::Phase::kEstimate;
  };
  Executor ex{ExecutorOptions{2, nullptr}};
  const SuiteResult r = ex.submit(path_request("handshake.cov"), hooks).take();
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.properties.size(), 3u);  // Verification completed.
  EXPECT_EQ(r.signals.size(), 1u);     // First row, then stopped.
}

TEST(ExecutorCancelTest, CancelAllReachesQueuedJobs) {
  Executor ex{ExecutorOptions{1, nullptr}};
  std::atomic<bool> release{false};
  JobHooks gate;
  gate.on_progress = [&](const Progress&) {
    while (!release.load()) std::this_thread::yield();
    return true;
  };
  JobHandle first = ex.submit(path_request("counter.cov"), gate);
  std::vector<JobHandle> rest;
  for (int i = 0; i < 3; ++i) rest.push_back(ex.submit(path_request("arbiter.cov")));

  EXPECT_GE(ex.cancel_all(), 3u);
  release.store(true);

  for (const JobHandle& h : rest) {
    EXPECT_TRUE(h.take().cancelled);
  }
  first.take();  // Gated job finishes too (cancelled mid-run or not).
}

// --------------------------------------------------------------------------
// Structured per-job errors (never a throw out of a worker)
// --------------------------------------------------------------------------

TEST(ExecutorErrorTest, MissingModelSourceIsAStructuredError) {
  Executor ex{ExecutorOptions{1, nullptr}};
  const SuiteResult r = ex.submit(CoverageRequest{}).take();
  EXPECT_FALSE(r.error.empty());
  EXPECT_NE(r.error.find("model"), std::string::npos);
  EXPECT_FALSE(r.all_passed());
}

TEST(ExecutorErrorTest, UnknownSignalNameIsAStructuredError) {
  CoverageRequest req = path_request("counter.cov");
  req.signals = {"count", "bogus_signal"};
  Executor ex{ExecutorOptions{2, nullptr}};
  const SuiteResult r = ex.submit(req).take();
  EXPECT_FALSE(r.error.empty());
  EXPECT_NE(r.error.find("bogus_signal"), std::string::npos) << r.error;
}

TEST(ExecutorErrorTest, ShardedErrorsAreErrorOnlyLikeSerial) {
  // A defect in any shard's rows makes the whole job error-only: no
  // partial rows from sibling shards, byte-identical to the serial
  // error result (the documented sharding determinism contract).
  CoverageRequest req = path_request("counter.cov");
  req.signals = {"count", "count", "bogus_signal"};

  Executor serial{ExecutorOptions{1, nullptr}};
  CoverageRequest serial_req = req;
  const SuiteResult expect = serial.submit(serial_req).take();
  ASSERT_FALSE(expect.error.empty());
  EXPECT_TRUE(expect.signals.empty());

  req.shards = 3;
  Executor ex{ExecutorOptions{4, nullptr}};
  const SuiteResult r = ex.submit(req).take();
  EXPECT_FALSE(r.error.empty());
  EXPECT_TRUE(r.signals.empty());
  EXPECT_FALSE(r.cancelled);  // An aborted sibling is not a user cancel.
  EXPECT_EQ(canonical(r), canonical(expect));
}

TEST(ExecutorErrorTest, UnparsableCtlTextIsAStructuredError) {
  CoverageRequest req = path_request("counter.cov");
  req.properties = {engine::PropertySpec::text("AG ((count ==")};
  Executor ex{ExecutorOptions{1, nullptr}};
  const SuiteResult r = ex.submit(req).take();
  EXPECT_FALSE(r.error.empty());
  EXPECT_NE(r.error.find("AG ((count =="), std::string::npos) << r.error;
}

TEST(ExecutorErrorTest, UnreadableModelFileIsAStructuredError) {
  CoverageRequest req;
  req.model_path = "/nonexistent/model.cov";
  Executor ex{ExecutorOptions{1, nullptr}};
  const SuiteResult r = ex.submit(req).take();
  EXPECT_FALSE(r.error.empty());
}

TEST(ExecutorErrorTest, BadInlineModelSourceIsAStructuredError) {
  CoverageRequest req;
  req.model_source = "MODULE broken; VAR x :";
  Executor ex{ExecutorOptions{1, nullptr}};
  const SuiteResult r = ex.submit(req).take();
  EXPECT_FALSE(r.error.empty());
}

TEST(ExecutorErrorTest, ErrorSurvivesJsonSerialization) {
  Executor ex{ExecutorOptions{1, nullptr}};
  const SuiteResult r = ex.submit(CoverageRequest{}).take();
  const std::string json = canonical(r);
  std::string err;
  EXPECT_TRUE(engine::validate_json(json, &err)) << err;
  EXPECT_NE(json.find("\"error\""), std::string::npos);
}

// --------------------------------------------------------------------------
// Model-source precedence and the inline source path
// --------------------------------------------------------------------------

TEST(ExecutorTest, InlineModelSourceRunsLikeAFile) {
  CoverageRequest req;
  req.model_source = R"(
MODULE inline_counter;
VAR   x : bool;
IVAR  t : bool;
INIT  x := false;
NEXT  x := t ? !x : x;
SPEC AG (x & !t -> AX x) OBSERVE x;
)";
  Executor ex{ExecutorOptions{1, nullptr}};
  const SuiteResult r = ex.submit(req).take();
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.model_name, "inline_counter");
  ASSERT_EQ(r.signals.size(), 1u);
  EXPECT_GT(r.signals[0].percent, 0.0);
}

// --------------------------------------------------------------------------
// Warm session cache
// --------------------------------------------------------------------------

engine::ExecutorOptions cached_options(
    std::shared_ptr<engine::SessionCache> cache, std::size_t workers) {
  ExecutorOptions options;
  options.workers = workers;
  options.session_cache = std::move(cache);
  return options;
}

TEST(ExecutorCacheTest, WarmHitSkipsElaborateAndVerify) {
  auto cache = std::make_shared<engine::SessionCache>(4);
  Executor ex{cached_options(cache, 1)};
  const SuiteResult cold = ex.submit(path_request("counter.cov")).take();
  const SuiteResult warm = ex.submit(path_request("counter.cov")).take();
  ASSERT_TRUE(cold.error.empty()) << cold.error;
  EXPECT_EQ(cold.elaborate.passes, 1u);
  EXPECT_EQ(cold.verify.passes, 1u);
  // The repeat leases the parked session (skipping parse/elaborate) and
  // replays its verified-suite record (skipping verify)...
  EXPECT_EQ(warm.elaborate.passes, 0u);
  EXPECT_EQ(warm.verify.passes, 0u);
  // ...but the payload is byte-identical to the cold run.
  EXPECT_EQ(canonical(cold), canonical(warm));

  const engine::SessionCacheStats stats = cache->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 2u);  // Parked again after each lease.
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.live_nodes, 0u);
}

TEST(ExecutorCacheTest, CachedResultsMatchAnUncachedExecutorByteForByte) {
  const char* sequence[] = {"counter.cov", "arbiter.cov", "counter.cov",
                            "traffic.cov", "arbiter.cov"};
  Executor plain{ExecutorOptions{}};
  Executor cached{cached_options(std::make_shared<engine::SessionCache>(8), 1)};
  for (const char* name : sequence) {
    const SuiteResult expected = plain.submit(path_request(name)).take();
    const SuiteResult actual = cached.submit(path_request(name)).take();
    EXPECT_EQ(canonical(expected), canonical(actual)) << name;
  }
}

TEST(ExecutorCacheTest, CapacityOneEvictsTheOldestSession) {
  auto cache = std::make_shared<engine::SessionCache>(1);
  Executor ex{cached_options(cache, 1)};
  // A/B/A with room for one parked session: every acquire misses, each
  // release evicts the previous tenant.
  ex.submit(path_request("counter.cov")).take();
  ex.submit(path_request("arbiter.cov")).take();
  const SuiteResult third = ex.submit(path_request("counter.cov")).take();
  EXPECT_EQ(third.elaborate.passes, 1u);  // Re-elaborated: it was evicted.

  const engine::SessionCacheStats stats = cache->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ExecutorCacheTest, ElaborationOptionsShapeTheCacheKey) {
  // Same bytes, different CoverageOptions → different sessions (the
  // BDDs they elaborate differ), so the key must separate them.
  auto cache = std::make_shared<engine::SessionCache>(8);
  Executor ex{cached_options(cache, 1)};
  CoverageRequest defaults = path_request("arbiter.cov");
  CoverageRequest unrestricted = path_request("arbiter.cov");
  unrestricted.options.restrict_to_fair = false;
  ex.submit(defaults).take();
  const SuiteResult r = ex.submit(unrestricted).take();
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(cache->stats().misses, 2u);
  EXPECT_EQ(cache->stats().entries, 2u);
}

TEST(ExecutorCacheTest, HashCollisionMissesInsteadOfServingTheWrongModel) {
  // Two different model sources forced onto one 64-bit hash via the
  // SessionKey test seam. Before keys carried their exact inputs the
  // cache matched on the hash alone, so the collision below leased
  // model A's elaborated session to a model-B request.
  const std::string source_a = R"(
MODULE model_a;
VAR   x : bool;
IVAR  t : bool;
INIT  x := false;
NEXT  x := t ? !x : x;
SPEC AG (x & !t -> AX x) OBSERVE x;
)";
  const std::string source_b = R"(
MODULE model_b;
VAR   y : bool;
IVAR  u : bool;
INIT  y := true;
NEXT  y := u ? y : !y;
SPEC AG (y & u -> AX y) OBSERVE y;
)";
  engine::SessionKey key_a = engine::SessionCache::key_of(source_a, {}, 0);
  engine::SessionKey key_b = engine::SessionCache::key_of(source_b, {}, 0);
  ASSERT_NE(key_a.hash, key_b.hash);  // Honest keys differ...
  key_b.hash = key_a.hash;            // ...until the seam makes them collide.
  EXPECT_FALSE(key_a.matches(key_b));
  EXPECT_FALSE(key_b.matches(key_a));
  EXPECT_TRUE(key_a.matches(key_a));

  engine::SessionCache cache(4);
  auto parked =
      std::make_shared<engine::Session>(model::parse_model(source_a));
  cache.release(key_a, std::move(parked), 1);

  // The colliding key must miss (and count as a miss), not lease A.
  EXPECT_EQ(cache.acquire(key_b), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  // The honest key still hits and gets the right model back.
  std::shared_ptr<engine::Session> hit = cache.acquire(key_a);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->model().name(), "model_a");
  EXPECT_EQ(cache.stats().hits, 1u);
}

// --------------------------------------------------------------------------
// Thread-affinity guard
// --------------------------------------------------------------------------

TEST(ThreadAffinityTest, TakeRebindsManagersToTheConsumer) {
  Executor ex{ExecutorOptions{2, nullptr}};
  const SuiteResult r = ex.submit(path_request("arbiter.cov")).take();
  ASSERT_FALSE(r.signals.empty());
  const bdd::Bdd& covered = r.signals[0].covered;
  ASSERT_TRUE(covered.valid());
  EXPECT_EQ(covered.manager()->owner_thread(), std::this_thread::get_id());
  // Node construction on the consuming thread is now legal.
  const bdd::Bdd sum = covered | !covered;
  EXPECT_TRUE(sum.is_true());
}

// --------------------------------------------------------------------------
// Resource governance: deadlines, admission control, bounded waits
// --------------------------------------------------------------------------

/// The phase a limited result stopped in, from its status_detail prefix
/// ("verify: ..." -> "verify").
std::string stage_of(const SuiteResult& r) {
  const std::size_t colon = r.status_detail.find(':');
  return colon == std::string::npos ? r.status_detail
                                    : r.status_detail.substr(0, colon);
}

/// Asserts that `partial` is a governed prefix of `base`: completed
/// properties match the baseline's in order, and every signal row is an
/// in-order subsequence of the baseline rows, byte-equal field by field
/// (the chunk-prefix determinism contract for partial results).
void expect_governed_prefix(const SuiteResult& partial,
                            const SuiteResult& base) {
  ASSERT_LE(partial.properties.size(), base.properties.size());
  for (std::size_t i = 0; i < partial.properties.size(); ++i) {
    EXPECT_EQ(partial.properties[i].ctl_text, base.properties[i].ctl_text);
    EXPECT_EQ(partial.properties[i].holds, base.properties[i].holds);
  }
  std::size_t cursor = 0;
  for (const engine::SignalRow& row : partial.signals) {
    while (cursor < base.signals.size() &&
           base.signals[cursor].name != row.name) {
      ++cursor;
    }
    ASSERT_LT(cursor, base.signals.size())
        << "row '" << row.name << "' is not a baseline row in order";
    EXPECT_EQ(row.num_properties, base.signals[cursor].num_properties);
    EXPECT_DOUBLE_EQ(row.covered_count, base.signals[cursor].covered_count);
    EXPECT_DOUBLE_EQ(row.percent, base.signals[cursor].percent);
    EXPECT_EQ(row.uncovered, base.signals[cursor].uncovered);
    ++cursor;
  }
}

TEST(ExecutorGovernanceTest, DeadlineExpiryCoversEveryPhaseBoundary) {
  // Serial runs tick deterministically, so driving the kDeadline
  // injection site tick by tick walks the expiry through parse,
  // elaborate, verify and estimate; every partial result must be a
  // clean prefix and the next uninjected run must be byte-identical.
  struct Disarm {
    ~Disarm() { FaultInjector::disarm(); }
  } disarm;
  const CoverageRequest req = path_request("arbiter.cov");
  const SuiteResult base = Engine().run(req);
  const std::string baseline = canonical(base);

  FaultInjector::arm(FaultInjector::Site::kDeadline, std::uint64_t{1} << 60);
  ASSERT_EQ(canonical(Engine().run(req)), baseline);  // Armed-idle: no effect.
  const std::uint64_t total = FaultInjector::trigger_count();
  FaultInjector::disarm();
  ASSERT_GT(total, 4u);

  const auto expire_at = [&](std::uint64_t n) {
    FaultInjector::arm(FaultInjector::Site::kDeadline, n);
    const SuiteResult r = Engine().run(req);
    FaultInjector::disarm();
    EXPECT_EQ(r.status, engine::ResultStatus::kDeadlineExceeded) << n;
    expect_governed_prefix(r, base);
    return stage_of(r);
  };

  EXPECT_EQ(expire_at(1), "parse");
  EXPECT_EQ(expire_at(2), "elaborate");
  // Elaboration ticks once per transition partial while clustering the
  // relation, so its tick count tracks the model; walk past it to the
  // first in-Session tick, the verify loop. The run's very last tick
  // happens while estimating the final signal row.
  std::uint64_t boundary = 3;
  std::string stage = expire_at(boundary);
  while (stage == "elaborate" && boundary < total) {
    stage = expire_at(++boundary);
  }
  EXPECT_EQ(stage, "verify");
  EXPECT_EQ(expire_at(total), "estimate");
  EXPECT_EQ(canonical(Engine().run(req)), baseline);
}

TEST(ExecutorGovernanceTest, ShardedDeadlinePartialsKeepChunkPrefixes) {
  // Under both table modes, an expiry mid-fan-out must stop every shard
  // at its next tick and merge only whole rows — each surviving row
  // byte-equal to its serial twin, in order.
  struct Disarm {
    ~Disarm() { FaultInjector::disarm(); }
  } disarm;
  for (const bdd::TableMode mode :
       {bdd::TableMode::kLockFree, bdd::TableMode::kStriped}) {
    CoverageRequest req = path_request("arbiter.cov");
    req.shards = 2;
    req.table_mode = mode;
    const SuiteResult base = Engine().run(req);
    const std::string baseline = canonical(base);

    for (const std::uint64_t n : {1ull, 2ull, 4ull, 8ull, 16ull, 64ull}) {
      FaultInjector::arm(FaultInjector::Site::kDeadline, n);
      Executor ex{ExecutorOptions{2, nullptr}};
      const SuiteResult r = ex.submit(req).take();
      FaultInjector::disarm();
      if (r.status == engine::ResultStatus::kOk) {
        // Tick n never fired (shared-cache warm paths tick less often);
        // then the run must be untouched.
        EXPECT_EQ(canonical(r), baseline) << "mode " << static_cast<int>(mode);
      } else {
        ASSERT_EQ(r.status, engine::ResultStatus::kDeadlineExceeded) << n;
        EXPECT_TRUE(r.error.empty()) << r.error;
        EXPECT_FALSE(r.cancelled);  // Expiry is not a user cancel.
        expect_governed_prefix(r, base);
      }
      // Recovery including a full sharded pass on a fresh manager.
      Executor again{ExecutorOptions{2, nullptr}};
      EXPECT_EQ(canonical(again.submit(req).take()), baseline)
          << "mode " << static_cast<int>(mode) << " after tick " << n;
    }
  }
}

TEST(ExecutorGovernanceTest, GenerousDeadlineThroughExecutorChangesNothing) {
  CoverageRequest req = path_request("handshake.cov");
  const std::string baseline = canonical(Engine().run(req));
  req.deadline_ms = 3'600'000;
  req.shards = 2;
  Executor ex{ExecutorOptions{2, nullptr}};
  const SuiteResult r = ex.submit(req).take();
  EXPECT_EQ(r.status, engine::ResultStatus::kOk);
  EXPECT_EQ(canonical(r), baseline);
}

TEST(ExecutorAdmissionTest, RejectPolicyBoundsTheQueueDeterministically) {
  ExecutorOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  options.admission = engine::AdmissionPolicy::kReject;
  Executor ex(std::move(options));

  // Gate job A on the worker so B (queued) fills the bound and C must
  // be turned away at the door.
  std::atomic<bool> a_started{false};
  std::atomic<bool> release{false};
  JobHooks gate;
  gate.on_progress = [&](const Progress&) {
    a_started.store(true);
    while (!release.load()) std::this_thread::yield();
    return true;
  };
  JobHandle a = ex.submit(path_request("counter.cov"), gate);
  while (!a_started.load()) std::this_thread::yield();
  JobHandle b = ex.submit(path_request("counter.cov"));
  JobHandle c = ex.submit(path_request("counter.cov"));

  // The rejection is synchronous: no worker ever sees the job.
  EXPECT_TRUE(c.done());
  const SuiteResult rc = c.take();
  EXPECT_EQ(rc.status, engine::ResultStatus::kAdmissionRejected);
  EXPECT_TRUE(rc.error.empty()) << rc.error;
  EXPECT_TRUE(rc.signals.empty());
  EXPECT_NE(rc.status_detail.find("max_queue_depth=1"), std::string::npos)
      << rc.status_detail;

  release.store(true);
  EXPECT_EQ(a.take().status, engine::ResultStatus::kOk);
  EXPECT_EQ(b.take().status, engine::ResultStatus::kOk);
  // With the queue drained, admission is open again.
  EXPECT_EQ(ex.submit(path_request("counter.cov")).take().status,
            engine::ResultStatus::kOk);
}

TEST(ExecutorAdmissionTest, RejectedJobEmitsASingleFinishedEvent) {
  std::mutex mu;
  std::vector<JobEvent> events;
  ExecutorOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  options.admission = engine::AdmissionPolicy::kReject;
  options.on_event = [&](const JobEvent& e) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(e);
  };
  Executor ex(std::move(options));

  // As above: A must be on the worker before B fills the queue, or the
  // worker could pop A between B's and C's submits and admit C.
  std::atomic<bool> a_started{false};
  std::atomic<bool> release{false};
  JobHooks gate;
  gate.on_progress = [&](const Progress&) {
    a_started.store(true);
    while (!release.load()) std::this_thread::yield();
    return true;
  };
  JobHandle a = ex.submit(path_request("counter.cov"), gate);
  while (!a_started.load()) std::this_thread::yield();
  JobHandle b = ex.submit(path_request("counter.cov"));
  JobHandle c = ex.submit(path_request("counter.cov"));
  const std::uint64_t rejected_job = c.id();
  ASSERT_TRUE(c.done());
  release.store(true);
  a.wait();
  b.wait();

  std::lock_guard<std::mutex> lock(mu);
  std::size_t rejected_events = 0;
  for (const JobEvent& e : events) {
    if (e.job != rejected_job) continue;
    ++rejected_events;
    EXPECT_EQ(e.kind, JobEvent::Kind::kFinished);
    EXPECT_EQ(e.status, engine::ResultStatus::kAdmissionRejected);
  }
  EXPECT_EQ(rejected_events, 1u);
}

TEST(ExecutorAdmissionTest, BlockPolicyAppliesBackpressure) {
  ExecutorOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  options.admission = engine::AdmissionPolicy::kBlock;
  Executor ex(std::move(options));

  std::atomic<bool> a_started{false};
  std::atomic<bool> release{false};
  JobHooks gate;
  gate.on_progress = [&](const Progress&) {
    a_started.store(true);
    while (!release.load()) std::this_thread::yield();
    return true;
  };
  JobHandle a = ex.submit(path_request("counter.cov"), gate);
  while (!a_started.load()) std::this_thread::yield();
  JobHandle b = ex.submit(path_request("counter.cov"));  // Fills the queue.

  // C's submit must block until the worker frees a slot: the submitting
  // thread can only set `c_admitted` after the gate is released.
  std::atomic<bool> c_admitted{false};
  std::thread submitter([&] {
    JobHandle c = ex.submit(path_request("counter.cov"));
    c_admitted.store(true);
    EXPECT_EQ(c.take().status, engine::ResultStatus::kOk);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(c_admitted.load());

  release.store(true);
  submitter.join();
  EXPECT_TRUE(c_admitted.load());
  EXPECT_EQ(a.take().status, engine::ResultStatus::kOk);
  EXPECT_EQ(b.take().status, engine::ResultStatus::kOk);
}

// --------------------------------------------------------------------------
// Completion hook (JobHooks::on_ready)
// --------------------------------------------------------------------------

/// One job's `on_ready` observations. `handle` is assigned before the job
/// can finish; the fields are read only once the executor is gone, since
/// the hook may still be running when `take()` returns.
struct ReadyProbe {
  JobHandle handle;
  std::atomic<int> fired{0};
  std::atomic<bool> finished_seen{false};
  std::atomic<bool> after_finished{false};
  std::atomic<bool> done_in_hook{false};
  std::thread::id thread;

  JobHooks hooks() {
    JobHooks h;
    h.on_event = [this](const JobEvent& e) {
      if (e.kind == JobEvent::Kind::kFinished) finished_seen.store(true);
    };
    h.on_ready = [this] {
      ++fired;
      after_finished.store(finished_seen.load());
      done_in_hook.store(handle.valid() && handle.done());
      thread = std::this_thread::get_id();
    };
    return h;
  }
};

TEST(ExecutorReadyHookTest, FiresOnceAfterTheResultIsTakeable) {
  ReadyProbe probe;
  std::atomic<bool> published{false};
  {
    Executor ex(1);
    JobHooks hooks = probe.hooks();
    // Hold the run until the handle is visible to the hook.
    hooks.on_progress = [&](const Progress&) {
      while (!published.load()) std::this_thread::yield();
      return true;
    };
    probe.handle = ex.submit(path_request("counter.cov"), hooks);
    published.store(true);
    EXPECT_EQ(probe.handle.take().status, engine::ResultStatus::kOk);
  }
  EXPECT_EQ(probe.fired.load(), 1);
  EXPECT_TRUE(probe.done_in_hook.load());
  EXPECT_TRUE(probe.after_finished.load());
  EXPECT_NE(probe.thread, std::this_thread::get_id());  // A worker.
}

TEST(ExecutorReadyHookTest, FiresOnceForAJobCancelledWhileQueued) {
  ReadyProbe probe;
  std::atomic<bool> release{false};
  {
    Executor ex(1);
    JobHooks gate;
    gate.on_progress = [&](const Progress&) {
      while (!release.load()) std::this_thread::yield();
      return true;
    };
    JobHandle a = ex.submit(path_request("counter.cov"), gate);
    probe.handle = ex.submit(path_request("arbiter.cov"), probe.hooks());
    probe.handle.cancel();
    release.store(true);
    EXPECT_TRUE(probe.handle.take().cancelled);
    a.take();
  }
  EXPECT_EQ(probe.fired.load(), 1);
  EXPECT_TRUE(probe.done_in_hook.load());
  EXPECT_TRUE(probe.after_finished.load());
}

TEST(ExecutorReadyHookTest, FiresOnceForAReplicatedShardedJob) {
  // Three worker tasks, one job: only the task that completes the merge
  // publishes the result, so the hook fires once.
  ReadyProbe probe;
  std::atomic<bool> published{false};
  {
    Executor ex(3);
    CoverageRequest req = path_request("arbiter.cov");
    req.shards = 3;
    req.shard_mode = engine::ShardMode::kReplicated;
    JobHooks hooks = probe.hooks();
    hooks.on_progress = [&](const Progress&) {
      while (!published.load()) std::this_thread::yield();
      return true;
    };
    probe.handle = ex.submit(req, hooks);
    published.store(true);
    EXPECT_EQ(probe.handle.take().status, engine::ResultStatus::kOk);
  }
  EXPECT_EQ(probe.fired.load(), 1);
  EXPECT_TRUE(probe.done_in_hook.load());
}

TEST(ExecutorReadyHookTest, FiresOnceOnTheSubmitterForAnAdmissionReject) {
  // A refused job never reaches a worker: the hook runs inside `submit`,
  // after the single kFinished event, and `submit` returns a done handle.
  ReadyProbe probe;
  ExecutorOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  options.admission = engine::AdmissionPolicy::kReject;
  std::atomic<bool> release{false};
  {
    Executor ex(std::move(options));
    std::atomic<bool> a_started{false};
    JobHooks gate;
    gate.on_progress = [&](const Progress&) {
      a_started.store(true);
      while (!release.load()) std::this_thread::yield();
      return true;
    };
    JobHandle a = ex.submit(path_request("counter.cov"), gate);
    while (!a_started.load()) std::this_thread::yield();
    JobHandle b = ex.submit(path_request("counter.cov"));  // Fills the queue.
    JobHandle c = ex.submit(path_request("counter.cov"), probe.hooks());
    EXPECT_TRUE(c.done());
    EXPECT_EQ(probe.fired.load(), 1);
    release.store(true);
    EXPECT_EQ(c.take().status, engine::ResultStatus::kAdmissionRejected);
    a.take();
    b.take();
  }
  EXPECT_EQ(probe.fired.load(), 1);
  EXPECT_TRUE(probe.after_finished.load());
  EXPECT_EQ(probe.thread, std::this_thread::get_id());
}

TEST(ExecutorReadyHookTest, ThrowingReadyHooksAreSwallowed) {
  JobHooks throwing;
  throwing.on_ready = [] { throw std::runtime_error("ready"); };
  ExecutorOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  options.admission = engine::AdmissionPolicy::kReject;
  Executor ex(std::move(options));

  // Worker path: the job still delivers, and the worker survives to run
  // the next one.
  EXPECT_EQ(ex.submit(path_request("counter.cov"), throwing).take().status,
            engine::ResultStatus::kOk);
  EXPECT_EQ(ex.submit(path_request("counter.cov"), throwing).take().status,
            engine::ResultStatus::kOk);

  // Admission path: the throw must not escape `submit`.
  std::atomic<bool> a_started{false}, release{false};
  JobHooks gate;
  gate.on_progress = [&](const Progress&) {
    a_started.store(true);
    while (!release.load()) std::this_thread::yield();
    return true;
  };
  JobHandle a = ex.submit(path_request("counter.cov"), gate);
  while (!a_started.load()) std::this_thread::yield();
  JobHandle b = ex.submit(path_request("counter.cov"));
  JobHandle c = ex.submit(path_request("counter.cov"), throwing);
  EXPECT_EQ(c.take().status, engine::ResultStatus::kAdmissionRejected);
  release.store(true);
  EXPECT_EQ(a.take().status, engine::ResultStatus::kOk);
  EXPECT_EQ(b.take().status, engine::ResultStatus::kOk);
}

TEST(ExecutorReadyHookTest, DispatcherReadyFdSignalsFinishedJobs) {
  // The event-loop contract the server relies on: ask for the fd before
  // the first push, sleep in poll, flush when it turns readable.
  Executor ex(1);
  std::vector<std::string> lines;
  engine::NdjsonDispatcher dispatch(
      ex, 4, [&](const SuiteResult& r) { lines.push_back(canonical(r)); });
  const int fd = dispatch.ready_fd();
  ASSERT_GE(fd, 0);
  EXPECT_EQ(dispatch.ready_fd(), fd);  // Created once.
  pollfd p{fd, POLLIN, 0};
  EXPECT_EQ(::poll(&p, 1, 0), 0);  // Nothing has finished yet.

  engine::ParsedLine line;
  line.request = path_request("counter.cov");
  dispatch.push(std::move(line));
  ASSERT_EQ(::poll(&p, 1, 10000), 1);
  EXPECT_EQ(dispatch.flush_ready(), 1u);
  EXPECT_EQ(::poll(&p, 1, 0), 0);  // flush_ready consumed the signal.
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], canonical(Engine().run(path_request("counter.cov"))));
}

TEST(ExecutorGovernanceTest, WaitForTimesOutThenDelivers) {
  Executor ex{ExecutorOptions{1, nullptr}};
  std::atomic<bool> release{false};
  JobHooks gate;
  gate.on_progress = [&](const Progress&) {
    while (!release.load()) std::this_thread::yield();
    return true;
  };
  JobHandle h = ex.submit(path_request("counter.cov"), gate);
  EXPECT_FALSE(h.wait_for(std::chrono::milliseconds(10)));
  EXPECT_FALSE(h.done());
  release.store(true);
  EXPECT_TRUE(h.wait_for(std::chrono::milliseconds(10000)));
  EXPECT_TRUE(h.done());
  EXPECT_EQ(h.take().status, engine::ResultStatus::kOk);
}

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
TEST(ThreadAffinityDeathTest, ForeignThreadNodeConstructionAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        bdd::BddManager mgr(2);
        std::thread misuse([&mgr] { (void)(mgr.var(0) & mgr.var(1)); });
        misuse.join();
      },
      "foreign thread");
}
#endif

}  // namespace
}  // namespace covest
