// The async multi-worker executor: submit/wait round-trips, deterministic
// ordering, bit-identical parity with the serial engine, streaming job
// events, cancellation, structured per-job errors, and the hand-off:
// detached results, wakeups under a blocking queue, and BDD thread
// affinity.
#include <gtest/gtest.h>
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "expr/lexer.h"
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
using engine::JobEventFn;
using engine::JobHandle;
using engine::ResultStatus;
using engine::SuiteResult;

std::string model_path(const char* name) {
  return std::string(COVEST_SOURCE_DIR) + "/examples/models/" + name;
}

/// Deterministic serialization (no stats) — the byte-level identity the
/// multi-worker paths are held to.
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

/// Holds one job on its worker: the executor-wide tap blocks inside that
/// job's kStarted event until `release()`, so a test can fill the queue
/// or cancel behind a running job deterministically. Job ids count
/// submits from 1; the first job is gated unless told otherwise.
struct StartGate {
  std::uint64_t job = 1;
  std::atomic<bool> started{false};
  std::atomic<bool> released{false};

  JobEventFn tap() {
    return [this](const JobEvent& e) {
      if (e.kind != JobEvent::Kind::kStarted || e.job != job) return;
      started.store(true);
      while (!released.load()) std::this_thread::yield();
    };
  }
  void wait_started() const {
    while (!started.load()) std::this_thread::yield();
  }
  void release() { released.store(true); }
};

ExecutorOptions gated_options(StartGate& gate, std::size_t workers = 1) {
  ExecutorOptions options;
  options.workers = workers;
  options.on_event = gate.tap();
  return options;
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

TEST(ExecutorTest, RandomizedInterleavedBatchesRunEachPhaseOnce) {
  // Several rounds of a shuffled deck of every example model, all in
  // flight on one 4-worker executor at once (traces included), so jobs
  // interleave on the workers. Every result matches the one-shot engine
  // byte for byte, and each job parsed, verified and estimated exactly
  // once. Fixed seed: reproducible runs.
  const char* models[] = {"counter.cov", "arbiter.cov", "handshake.cov",
                          "shift.cov", "traffic.cov"};
  std::vector<std::string> deck;
  std::map<std::string, std::string> expected;
  for (const char* m : models) {
    CoverageRequest req = path_request(m);
    req.want_traces = true;
    expected.emplace(m, canonical(Engine().run(req)));
    for (int copy = 0; copy < 3; ++copy) deck.push_back(m);
  }
  std::mt19937 rng(0x5eed5eed);
  for (int round = 0; round < 3; ++round) {
    std::shuffle(deck.begin(), deck.end(), rng);
    Executor ex{ExecutorOptions{4, nullptr}};
    std::vector<JobHandle> handles;
    for (const std::string& m : deck) {
      CoverageRequest req = path_request(m.c_str());
      req.want_traces = true;
      handles.push_back(ex.submit(req));
    }
    for (std::size_t i = 0; i < deck.size(); ++i) {
      const SuiteResult r = handles[i].take();
      EXPECT_TRUE(r.error.empty()) << deck[i] << ": " << r.error;
      EXPECT_EQ(canonical(r), expected.at(deck[i]))
          << "round " << round << " " << deck[i];
      EXPECT_EQ(r.elaborate.passes, 1u) << deck[i];
      EXPECT_EQ(r.verify.passes, 1u) << deck[i];
      EXPECT_EQ(r.estimate.passes, 1u) << deck[i];
    }
  }
}

// --------------------------------------------------------------------------
// Events
// --------------------------------------------------------------------------

TEST(ExecutorEventsTest, LifecycleEventsArriveInOrder) {
  std::mutex mu;
  std::vector<JobEvent> events;
  ExecutorOptions options;
  options.workers = 1;
  options.on_event = [&](const JobEvent& e) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(e);
  };

  Executor ex(std::move(options));
  ex.submit(path_request("handshake.cov")).take();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, JobEvent::Kind::kQueued);
  EXPECT_EQ(events[1].kind, JobEvent::Kind::kStarted);
  EXPECT_EQ(events[2].kind, JobEvent::Kind::kFinished);
  EXPECT_EQ(events[2].status, ResultStatus::kOk);
  for (const JobEvent& e : events) EXPECT_EQ(e.job, events[0].job);
}

TEST(ExecutorEventsTest, ThrowingEventCallbacksAreSwallowed) {
  // An event tap is fire-and-forget: a throwing callback must neither
  // kill a worker thread nor fail the job.
  ExecutorOptions options;
  options.workers = 2;
  options.on_event = [](const JobEvent&) { throw 42; };
  Executor ex(std::move(options));
  const SuiteResult r = ex.submit(path_request("counter.cov")).take();
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
  // Job A holds the single worker until job B has been cancelled, so B
  // is deterministically still queued when the cancel lands.
  StartGate gate;
  Executor ex(gated_options(gate));
  JobHandle a = ex.submit(path_request("counter.cov"));
  JobHandle b = ex.submit(path_request("arbiter.cov"));
  b.cancel();
  gate.release();

  const SuiteResult rb = b.take();
  EXPECT_EQ(rb.status, ResultStatus::kCancelled);
  EXPECT_TRUE(rb.signals.empty());
  const SuiteResult ra = a.take();
  EXPECT_EQ(ra.status, ResultStatus::kOk);
  EXPECT_EQ(ra.signals.size(), 1u);
}

TEST(ExecutorCancelTest, CancelLandsAtTheNextTickOfAStartedJob) {
  // A cancel sent while the job sits at its start lands at the parse
  // boundary: no phase runs, and the status says where it stopped.
  StartGate gate;
  Executor ex(gated_options(gate));
  JobHandle h = ex.submit(path_request("handshake.cov"));
  gate.wait_started();
  h.cancel();
  gate.release();
  const SuiteResult r = h.take();
  EXPECT_EQ(r.status, ResultStatus::kCancelled);
  EXPECT_EQ(r.status_detail, "parse: cancelled");
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.properties.empty());
  EXPECT_TRUE(r.signals.empty());
}

/// A counter whose reachability fixpoint takes one image step per state:
/// 2^width steps before the first property can be checked.
CoverageRequest long_fixpoint_request(unsigned width) {
  CoverageRequest req;
  req.model_source = "MODULE spin;\nVAR x : uint<" + std::to_string(width) +
                     ">;\nVAR f : bool;\nINIT x := 0;\nINIT f := false;\n"
                     "NEXT x := x + 1;\nNEXT f := f;\n"
                     "SPEC AG (!f) OBSERVE f;\n";
  return req;
}

/// Runs `long_fixpoint_request` to the end and returns its wall time in
/// ms: the yardstick a cancelled run is measured against, taken in the
/// same build (Release, Debug or a sanitizer) as the cancelled run.
double uncancelled_ms(const CoverageRequest& req) {
  Executor ex(1);
  const auto t0 = std::chrono::steady_clock::now();
  const SuiteResult r = ex.submit(req).take();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_EQ(r.status, ResultStatus::kOk) << r.error;
  EXPECT_TRUE(r.all_passed());
  return ms;
}

constexpr unsigned kLongFixpointWidth = 18;

TEST(ExecutorCancelTest, CancelLandsInsideALongFixpoint) {
  // The job is cancelled a few ms after it starts, while the reachability
  // fixpoint runs; it must come back long before that fixpoint could
  // have finished, with a completed (here: empty) prefix.
  const CoverageRequest req = long_fixpoint_request(kLongFixpointWidth);
  const double full_ms = uncancelled_ms(req);

  std::atomic<bool> started{false};
  ExecutorOptions options;
  options.workers = 1;
  options.on_event = [&](const JobEvent& e) {
    if (e.kind == JobEvent::Kind::kStarted) started.store(true);
  };
  Executor ex(std::move(options));
  JobHandle h = ex.submit(req);
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto t_cancel = std::chrono::steady_clock::now();
  h.cancel();
  const SuiteResult r = h.take();
  const double cancel_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t_cancel)
                               .count();

  EXPECT_EQ(r.status, ResultStatus::kCancelled);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_NE(r.status_detail.find(": cancelled"), std::string::npos)
      << r.status_detail;
  EXPECT_TRUE(r.properties.empty());  // Stopped inside reachability.
  EXPECT_TRUE(r.signals.empty());
  EXPECT_LT(cancel_ms, full_ms / 4)
      << "cancel took " << cancel_ms << " ms; the whole run takes "
      << full_ms << " ms";
}

TEST(ExecutorCancelTest, DestroyingADispatcherCancelsItsJobMidFixpoint) {
  // The server-disconnect path: a connection's dispatcher dies with a
  // job inside a long fixpoint; its destructor cancels and absorbs the
  // job, and must return as promptly as a direct cancel.
  const CoverageRequest req = long_fixpoint_request(kLongFixpointWidth);
  const double full_ms = uncancelled_ms(req);

  std::atomic<bool> started{false};
  ExecutorOptions options;
  options.workers = 1;
  options.on_event = [&](const JobEvent& e) {
    if (e.kind == JobEvent::Kind::kStarted) started.store(true);
  };
  Executor ex(std::move(options));
  std::size_t emitted = 0;
  std::optional<engine::NdjsonDispatcher> dispatch;
  dispatch.emplace(ex, 4, [&emitted](const SuiteResult&) { ++emitted; });
  engine::ParsedLine line;
  line.request = req;
  dispatch->push(std::move(line));
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto t_destroy = std::chrono::steady_clock::now();
  dispatch.reset();
  const double destroy_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t_destroy)
                                .count();
  EXPECT_EQ(emitted, 0u);  // An abandoned dispatcher emits nothing.
  EXPECT_LT(destroy_ms, full_ms / 4)
      << "destruction took " << destroy_ms << " ms; the whole run takes "
      << full_ms << " ms";
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

TEST(ExecutorErrorTest, LaterRowErrorsAreErrorOnly) {
  // A defect in a later row makes the whole job error-only: no partial
  // rows from the valid rows before it, on one worker or four.
  CoverageRequest req = path_request("counter.cov");
  req.signals = {"count", "count", "bogus_signal"};

  Executor serial{ExecutorOptions{1, nullptr}};
  const SuiteResult expect = serial.submit(req).take();
  ASSERT_FALSE(expect.error.empty());
  EXPECT_TRUE(expect.signals.empty());

  Executor ex{ExecutorOptions{4, nullptr}};
  const SuiteResult r = ex.submit(req).take();
  EXPECT_FALSE(r.error.empty());
  EXPECT_TRUE(r.signals.empty());
  EXPECT_EQ(r.status, ResultStatus::kError);  // A defect is not a cancel.
  EXPECT_EQ(canonical(r), canonical(expect));
}

TEST(ExecutorErrorTest, UnparsableCtlTextIsAStructuredError) {
  CoverageRequest req = path_request("counter.cov");
  req.properties = {engine::PropertySpec::text("AG (count < 5)"),
                    engine::PropertySpec::text("AG ((count ==")};
  Executor ex{ExecutorOptions{1, nullptr}};
  const SuiteResult r = ex.submit(req).take();
  EXPECT_FALSE(r.error.empty());
  EXPECT_NE(r.error.find("AG ((count =="), std::string::npos) << r.error;
  // The job parses each property once, before elaboration, and the
  // error names the property: "property '<text>': <parse error>".
  EXPECT_EQ(r.error,
            "property 'AG ((count ==': syntax error at line 1, column 14: "
            "expected an expression (found '<end>')");
  EXPECT_EQ(r.status, engine::ResultStatus::kError);
  EXPECT_EQ(r.elaborate.passes, 0u);
}

TEST(ExecutorTest, ParseMsSplitsTheFrontEndOutOfElaborate) {
  auto cache = std::make_shared<engine::SessionCache>(4);
  ExecutorOptions options{1, nullptr};
  options.session_cache = cache;
  Executor ex{options};
  const SuiteResult cold = ex.submit(path_request("arbiter.cov")).take();
  const SuiteResult warm = ex.submit(path_request("arbiter.cov")).take();
  ASSERT_TRUE(cold.error.empty()) << cold.error;
  EXPECT_GT(cold.elaborate.parse_ms, 0.0);
  EXPECT_LE(cold.elaborate.parse_ms, cold.elaborate.ms);
  EXPECT_EQ(warm.elaborate.passes, 0u);
  EXPECT_EQ(warm.elaborate.parse_ms, 0.0);  // The model parse never ran.
  // Only the elaborate phase carries it, and only with stats on.
  EXPECT_EQ(cold.verify.parse_ms, 0.0);
  EXPECT_EQ(cold.estimate.parse_ms, 0.0);
  EXPECT_EQ(canonical(cold).find("parse_ms"), std::string::npos);
  engine::JsonOptions compact;
  compact.pretty = false;
  const std::string with_stats = engine::to_json(cold, compact);
  EXPECT_NE(with_stats.find("\"stats\":{\"elaborate\":{\"ms\":"),
            std::string::npos);
  const std::size_t first = with_stats.find("\"parse_ms\"");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(with_stats.find("\"parse_ms\"", first + 1), std::string::npos);
}

TEST(ExecutorTest, DeepestAcceptedSyntaxRunsEndToEndOnAWorker) {
  // Inputs at kMaxSyntaxDepth, in every shape, go through parse,
  // elaboration (bit-blasting), verification, the estimator's flip and
  // DEFINE expansion, and destruction on an executor worker's stack.
  // The sanitizer builds run this too.
  const unsigned d = expr::kMaxSyntaxDepth;
  const auto repeat = [](const std::string& s, unsigned n) {
    std::string out;
    for (unsigned i = 0; i < n; ++i) out += s;
    return out;
  };
  const auto chain = [](const std::string& term, const std::string& op,
                        unsigned terms) {
    std::string out = term;
    for (unsigned i = 1; i < terms; ++i) out += op + term;
    return out;
  };
  CoverageRequest req;
  req.model_source =
      "MODULE deep;\nVAR x : bool;\nVAR y : bool;\nIVAR i : bool;\n"
      "DEFINE deep_x := " + chain("x", " ^ ", d) + ";\n"
      "NEXT x := " + repeat("!", d - 1) + "i;\n"
      "NEXT y := " + repeat("(", d) + chain("y", " & ", d) + repeat(")", d) +
      ";\n";
  req.properties = {
      // Nesting and tree depth both exactly at the bound.
      engine::PropertySpec::text(repeat("!", d - 2) + "AG x"),
      engine::PropertySpec::text(repeat("AX ", d - 3) + "(deep_x | !x)"),
      engine::PropertySpec::text(chain("AG (y -> y)", " & ", d / 2)),
      engine::PropertySpec::text("AG (" + chain("deep_x", " | ", d - 2) + ")"),
  };
  req.signals = {"x", "y"};
  req.want_traces = true;
  Executor ex{ExecutorOptions{2, nullptr}};
  const SuiteResult r = ex.submit(req).take();
  ASSERT_TRUE(r.error.empty()) << r.error.substr(0, 300);
  EXPECT_EQ(r.status, engine::ResultStatus::kOk);
  EXPECT_EQ(r.properties.size(), 4u);
  EXPECT_EQ(r.signals.size(), 2u);
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
// Hand-off: detached executor results, live handles from Engine::run
// --------------------------------------------------------------------------

/// True when no row of `r` holds a live BDD handle and nothing pins a
/// session.
bool detached(const SuiteResult& r) {
  if (r.retain != nullptr) return false;
  for (const engine::SignalRow& row : r.signals) {
    if (row.covered.valid()) return false;
  }
  return true;
}

TEST(ExecutorHandOffTest, ResultsAreDetachedAndOutliveTheExecutor) {
  // Cold, cached and failed jobs alike hand back plain data: the worker
  // strips every `covered` handle and keeps the session, so the results
  // read the same after the executor (and every session) is gone.
  CoverageRequest bad_signal = path_request("arbiter.cov");
  bad_signal.signals = {"no_such_signal"};
  const std::vector<CoverageRequest> requests = {
      path_request("arbiter.cov"), path_request("counter.cov"),
      path_request("arbiter.cov"), bad_signal};
  std::vector<std::string> serial;  // Every job but the failing last one.
  for (std::size_t i = 0; i + 1 < requests.size(); ++i) {
    serial.push_back(canonical(Engine().run(requests[i])));
  }

  for (const bool cached : {false, true}) {
    std::vector<SuiteResult> results;
    {
      ExecutorOptions options;
      options.workers = 2;
      if (cached) {
        options.session_cache = std::make_shared<engine::SessionCache>(4);
      }
      Executor ex(std::move(options));
      results = ex.run_all(requests);
    }
    ASSERT_EQ(results.size(), requests.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_TRUE(detached(results[i])) << "cached=" << cached << " job " << i;
    }
    for (std::size_t i = 0; i + 1 < results.size(); ++i) {
      ASSERT_FALSE(results[i].signals.empty());
      EXPECT_EQ(canonical(results[i]), serial[i]) << "cached=" << cached;
    }
    EXPECT_EQ(results.back().status, ResultStatus::kError);
    EXPECT_NE(results.back().error.find("no_such_signal"), std::string::npos);
  }
}

TEST(ThreadAffinityTest, EngineRunResultsComposeOnTheCaller) {
  // `Engine::run` runs the pipeline on the calling thread and parks the
  // session in `retain`: the caller owns the manager and may keep
  // composing with the covered sets.
  const SuiteResult r = Engine().run(path_request("arbiter.cov"));
  ASSERT_FALSE(r.signals.empty());
  ASSERT_NE(r.retain, nullptr);
  const bdd::Bdd& covered = r.signals[0].covered;
  ASSERT_TRUE(covered.valid());
  EXPECT_EQ(covered.manager()->owner_thread(), std::this_thread::get_id());
  const bdd::Bdd sum = covered | !covered;
  EXPECT_TRUE(sum.is_true());
}

TEST(ExecutorHandOffTest, BlockedSubmittersAndIdleWorkersMissNoWakeup) {
  // One wake per submit and one per freed slot: three submitters share
  // a depth-1 blocking queue in front of four workers. A lost wakeup
  // would hang a submitter or strand a queued job; every result must
  // arrive, equal to the serial run of its model.
  constexpr int kModels = 4;
  constexpr int kSubmitters = 3;
  constexpr int kJobsPerSubmitter = 700;
  std::vector<CoverageRequest> models;
  std::vector<std::string> serial;
  for (int m = 0; m < kModels; ++m) {
    CoverageRequest req;
    req.model_source = "MODULE tiny" + std::to_string(m) + R"(;
VAR   x : bool;
IVAR  t : bool;
INIT  x := )" + (m % 2 == 0 ? "false" : "true") + R"(;
NEXT  x := t ? !x : x;
SPEC AG (x & !t -> AX x) OBSERVE x;
)";
    if (m >= 2) req.model_source += "SPEC AG (!x & !t -> AX !x) OBSERVE x;\n";
    serial.push_back(canonical(Engine().run(req)));
    models.push_back(std::move(req));
  }

  ExecutorOptions options;
  options.workers = 4;
  options.max_queue_depth = 1;
  options.admission = engine::AdmissionPolicy::kBlock;
  Executor ex(std::move(options));
  std::vector<std::vector<JobHandle>> handles(kSubmitters);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int j = 0; j < kJobsPerSubmitter; ++j) {
        handles[s].push_back(ex.submit(models[(s + j) % kModels]));
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  int taken = 0;
  for (int s = 0; s < kSubmitters; ++s) {
    ASSERT_EQ(handles[s].size(), static_cast<std::size_t>(kJobsPerSubmitter));
    for (int j = 0; j < kJobsPerSubmitter; ++j) {
      ASSERT_TRUE(handles[s][j].wait_for(std::chrono::seconds(60)))
          << "submitter " << s << " job " << j << " never finished";
      EXPECT_EQ(canonical(handles[s][j].take()), serial[(s + j) % kModels]);
      ++taken;
    }
  }
  EXPECT_EQ(taken, kSubmitters * kJobsPerSubmitter);
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

TEST(ExecutorGovernanceTest, DeadlinePartialsOnAWorkerPoolArePrefixes) {
  // An expiry on a multi-worker executor keeps only whole rows — each
  // surviving row byte-equal to its uninterrupted twin, in order — and
  // the next run on a fresh manager is byte-identical again.
  struct Disarm {
    ~Disarm() { FaultInjector::disarm(); }
  } disarm;
  const CoverageRequest req = path_request("arbiter.cov");
  const SuiteResult base = Engine().run(req);
  const std::string baseline = canonical(base);

  for (const std::uint64_t n : {1ull, 2ull, 4ull, 8ull, 16ull, 64ull}) {
    FaultInjector::arm(FaultInjector::Site::kDeadline, n);
    Executor ex{ExecutorOptions{2, nullptr}};
    const SuiteResult r = ex.submit(req).take();
    FaultInjector::disarm();
    if (r.status == engine::ResultStatus::kOk) {
      // Tick n never fired; then the run must be untouched.
      EXPECT_EQ(canonical(r), baseline) << "tick " << n;
    } else {
      ASSERT_EQ(r.status, engine::ResultStatus::kDeadlineExceeded) << n;
      EXPECT_TRUE(r.error.empty()) << r.error;
      expect_governed_prefix(r, base);
    }
    // Recovery: a full pass on a fresh manager.
    Executor again{ExecutorOptions{2, nullptr}};
    EXPECT_EQ(canonical(again.submit(req).take()), baseline)
        << "after tick " << n;
  }
}

TEST(ExecutorGovernanceTest, GenerousDeadlineThroughExecutorChangesNothing) {
  CoverageRequest req = path_request("handshake.cov");
  const std::string baseline = canonical(Engine().run(req));
  req.deadline_ms = 3'600'000;
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
  StartGate gate;
  options.on_event = gate.tap();
  Executor ex(std::move(options));

  // Gate job A on the worker so B (queued) fills the bound and C must
  // be turned away at the door.
  JobHandle a = ex.submit(path_request("counter.cov"));
  gate.wait_started();
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

  gate.release();
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
  StartGate gate;
  options.on_event = [&, gated = gate.tap()](const JobEvent& e) {
    {
      std::lock_guard<std::mutex> lock(mu);
      events.push_back(e);
    }
    gated(e);
  };
  Executor ex(std::move(options));

  // As above: A must be on the worker before B fills the queue, or the
  // worker could pop A between B's and C's submits and admit C.
  JobHandle a = ex.submit(path_request("counter.cov"));
  gate.wait_started();
  JobHandle b = ex.submit(path_request("counter.cov"));
  JobHandle c = ex.submit(path_request("counter.cov"));
  const std::uint64_t rejected_job = c.id();
  ASSERT_TRUE(c.done());
  gate.release();
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
  StartGate gate;
  options.on_event = gate.tap();
  Executor ex(std::move(options));

  JobHandle a = ex.submit(path_request("counter.cov"));
  gate.wait_started();
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

  gate.release();
  submitter.join();
  EXPECT_TRUE(c_admitted.load());
  EXPECT_EQ(a.take().status, engine::ResultStatus::kOk);
  EXPECT_EQ(b.take().status, engine::ResultStatus::kOk);
}

// --------------------------------------------------------------------------
// Completion hook (`on_ready`)
// --------------------------------------------------------------------------

/// One job's `on_ready` observations. `job` is the probed job's id
/// (submits count from 1); `handle` is assigned before the job can
/// finish. The fields are read only once the executor is gone, since the
/// hook may still be running when `take()` returns.
struct ReadyProbe {
  std::uint64_t job = 1;
  JobHandle handle;
  std::atomic<int> fired{0};
  std::atomic<bool> finished_seen{false};
  std::atomic<bool> after_finished{false};
  std::atomic<bool> done_in_hook{false};
  std::thread::id thread;

  /// Records the probed job's kFinished, then passes every event on.
  JobEventFn tap(JobEventFn next = {}) {
    return [this, next](const JobEvent& e) {
      if (e.kind == JobEvent::Kind::kFinished && e.job == job) {
        finished_seen.store(true);
      }
      if (next) next(e);
    };
  }
  std::function<void()> on_ready() {
    return [this] {
      ++fired;
      after_finished.store(finished_seen.load());
      done_in_hook.store(handle.valid() && handle.done());
      thread = std::this_thread::get_id();
    };
  }
};

TEST(ExecutorReadyHookTest, FiresOnceAfterTheResultIsTakeable) {
  ReadyProbe probe;
  StartGate gate;
  {
    ExecutorOptions options;
    options.workers = 1;
    options.on_event = probe.tap(gate.tap());
    Executor ex(std::move(options));
    // Hold the run until the handle is visible to the hook.
    probe.handle = ex.submit(path_request("counter.cov"), probe.on_ready());
    gate.release();
    EXPECT_EQ(probe.handle.take().status, engine::ResultStatus::kOk);
  }
  EXPECT_EQ(probe.fired.load(), 1);
  EXPECT_TRUE(probe.done_in_hook.load());
  EXPECT_TRUE(probe.after_finished.load());
  EXPECT_NE(probe.thread, std::this_thread::get_id());  // A worker.
}

TEST(ExecutorReadyHookTest, FiresOnceForAJobCancelledWhileQueued) {
  ReadyProbe probe;
  probe.job = 2;
  StartGate gate;
  {
    ExecutorOptions options;
    options.workers = 1;
    options.on_event = probe.tap(gate.tap());
    Executor ex(std::move(options));
    JobHandle a = ex.submit(path_request("counter.cov"));
    probe.handle = ex.submit(path_request("arbiter.cov"), probe.on_ready());
    probe.handle.cancel();
    gate.release();
    EXPECT_EQ(probe.handle.take().status, ResultStatus::kCancelled);
    a.take();
  }
  EXPECT_EQ(probe.fired.load(), 1);
  EXPECT_TRUE(probe.done_in_hook.load());
  EXPECT_TRUE(probe.after_finished.load());
}

TEST(ExecutorReadyHookTest, FiresOnceOnTheSubmitterForAnAdmissionReject) {
  // A refused job never reaches a worker: the hook runs inside `submit`,
  // after the single kFinished event, and `submit` returns a done handle.
  ReadyProbe probe;
  probe.job = 3;
  StartGate gate;
  ExecutorOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  options.admission = engine::AdmissionPolicy::kReject;
  options.on_event = probe.tap(gate.tap());
  {
    Executor ex(std::move(options));
    JobHandle a = ex.submit(path_request("counter.cov"));
    gate.wait_started();
    JobHandle b = ex.submit(path_request("counter.cov"));  // Fills the queue.
    JobHandle c = ex.submit(path_request("counter.cov"), probe.on_ready());
    EXPECT_TRUE(c.done());
    EXPECT_EQ(probe.fired.load(), 1);
    gate.release();
    EXPECT_EQ(c.take().status, engine::ResultStatus::kAdmissionRejected);
    a.take();
    b.take();
  }
  EXPECT_EQ(probe.fired.load(), 1);
  EXPECT_TRUE(probe.after_finished.load());
  EXPECT_EQ(probe.thread, std::this_thread::get_id());
}

TEST(ExecutorReadyHookTest, ThrowingReadyHooksAreSwallowed) {
  const auto throwing = [] { throw std::runtime_error("ready"); };
  StartGate gate;
  gate.job = 3;  // The first job after the two worker-path jobs.
  ExecutorOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  options.admission = engine::AdmissionPolicy::kReject;
  options.on_event = gate.tap();
  Executor ex(std::move(options));

  // Worker path: the job still delivers, and the worker survives to run
  // the next one.
  EXPECT_EQ(ex.submit(path_request("counter.cov"), throwing).take().status,
            engine::ResultStatus::kOk);
  EXPECT_EQ(ex.submit(path_request("counter.cov"), throwing).take().status,
            engine::ResultStatus::kOk);

  // Admission path: the throw must not escape `submit`.
  JobHandle a = ex.submit(path_request("counter.cov"));
  gate.wait_started();
  JobHandle b = ex.submit(path_request("counter.cov"));
  JobHandle c = ex.submit(path_request("counter.cov"), throwing);
  EXPECT_EQ(c.take().status, engine::ResultStatus::kAdmissionRejected);
  gate.release();
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
  StartGate gate;
  Executor ex(gated_options(gate));
  JobHandle h = ex.submit(path_request("counter.cov"));
  EXPECT_FALSE(h.wait_for(std::chrono::milliseconds(10)));
  EXPECT_FALSE(h.done());
  gate.release();
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
