// Deterministic chaos battery for the resource-governance layer: the
// covest::FaultInjector fires allocation failures, deadline expiries and
// admission rejections at exact trigger points, across all five example
// models, and every single one must surface as a structured
// `ResultStatus` — no crash, no hang, no corrupted pool — after which
// the same manager (and the same session) must complete a clean run
// whose bytes match an uninjected baseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/executor.h"
#include "engine/result_json.h"
#include "image/image.h"
#include "util/governance.h"

namespace covest {
namespace {

using engine::CoverageRequest;
using engine::Engine;
using engine::Executor;
using engine::ExecutorOptions;
using engine::JobHandle;
using engine::ResultStatus;
using engine::Session;
using engine::SuiteResult;

constexpr const char* kModels[] = {"counter.cov", "arbiter.cov",
                                   "handshake.cov", "shift.cov",
                                   "traffic.cov"};

std::string model_path(const char* name) {
  return std::string(COVEST_SOURCE_DIR) + "/examples/models/" + name;
}

/// The deterministic serialization (no stats) every injection round is
/// compared against: successful runs must not change by a byte.
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

/// Every test disarms on every exit path: a leaked armed injector would
/// poison every later test in the binary (the injector is process-wide).
struct InjectorGuard {
  InjectorGuard() { FaultInjector::disarm(); }
  ~InjectorGuard() { FaultInjector::disarm(); }
};

/// Arm-with-huge-fire_at calibration: counts the trigger points of
/// `site` during one clean run of `req` (the injector never fires at
/// ~2^60), and doubles as the zero-interference check — an armed but
/// non-firing injector must not change a byte of the result.
std::uint64_t calibrate(FaultInjector::Site site, const CoverageRequest& req,
                        const std::string& baseline) {
  FaultInjector::arm(site, std::uint64_t{1} << 60);
  const SuiteResult r = Engine().run(req);
  const std::uint64_t triggers = FaultInjector::trigger_count();
  FaultInjector::disarm();
  EXPECT_EQ(canonical(r), baseline);
  return triggers;
}

/// Sweep points for an injection site with `total` observed triggers:
/// the first few (boundaries bite earliest), a spread through the
/// middle, and the very last one. Small enough to stay fast under TSan.
std::vector<std::uint64_t> sweep_points(std::uint64_t total) {
  std::vector<std::uint64_t> points;
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{5}, std::uint64_t{10}, total / 4, total / 2,
        (3 * total) / 4, total}) {
    if (n >= 1 && n <= total &&
        (points.empty() || n > points.back())) {
      points.push_back(n);
    }
  }
  return points;
}

// ---------------------------------------------------------------------------
// Allocation failures
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, AllocationSweepAcrossAllModels) {
  InjectorGuard guard;
  for (const char* model : kModels) {
    const CoverageRequest req = path_request(model);
    const std::string baseline = canonical(Engine().run(req));
    const std::uint64_t total =
        calibrate(FaultInjector::Site::kAllocation, req, baseline);
    ASSERT_GT(total, 0u) << model;

    for (const std::uint64_t n : sweep_points(total)) {
      FaultInjector::arm(FaultInjector::Site::kAllocation, n);
      const SuiteResult r = Engine().run(req);
      FaultInjector::disarm();
      EXPECT_EQ(r.status, ResultStatus::kResourceExhausted)
          << model << " @ allocation " << n << ": " << canonical(r);
      EXPECT_TRUE(r.error.empty()) << r.error;
      EXPECT_FALSE(r.status_detail.empty());

      // Recovery: the very next uninjected run is byte-identical.
      EXPECT_EQ(canonical(Engine().run(req)), baseline)
          << model << " after allocation " << n;
    }
  }
}

TEST(FaultInjectionTest, SameSessionRecoversAfterAllocationFailure) {
  InjectorGuard guard;
  // An allocation failure mid-run leaves the pool consistent: the SAME
  // session (and manager) then completes a clean, whole run. The
  // allocation sweep above only checks fresh engines.
  const CoverageRequest req = path_request("arbiter.cov");
  const std::string fresh = canonical(Engine().run(req));

  Session session(Engine::load_model(req));
  bool injected_one = false;
  for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{40}}) {
    FaultInjector::arm(FaultInjector::Site::kAllocation, n);
    const SuiteResult r = session.run(req);
    FaultInjector::disarm();
    if (r.status == ResultStatus::kResourceExhausted) injected_one = true;
    // A warm session may satisfy everything from its caches; either
    // the failure surfaced structurally or the run finished clean.
    EXPECT_TRUE(r.status == ResultStatus::kResourceExhausted ||
                canonical(r) == fresh)
        << canonical(r);
    // Same manager, next run, no injection: must be clean and whole.
    EXPECT_EQ(canonical(session.run(req)), fresh) << "after " << n;
  }
  EXPECT_TRUE(injected_one) << "sweep never hit an allocation";
}

// ---------------------------------------------------------------------------
// Deadline expiries
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, DeadlineSweepAcrossAllModels) {
  InjectorGuard guard;
  for (const char* model : kModels) {
    const CoverageRequest req = path_request(model);
    const SuiteResult base = Engine().run(req);
    const std::string baseline = canonical(base);
    const std::uint64_t total =
        calibrate(FaultInjector::Site::kDeadline, req, baseline);
    ASSERT_GT(total, 0u) << model;

    for (const std::uint64_t n : sweep_points(total)) {
      FaultInjector::arm(FaultInjector::Site::kDeadline, n);
      const SuiteResult r = Engine().run(req);
      FaultInjector::disarm();
      ASSERT_EQ(r.status, ResultStatus::kDeadlineExceeded)
          << model << " @ tick " << n;
      EXPECT_TRUE(r.error.empty()) << r.error;
      // The partial result is a clean prefix: completed properties
      // match the baseline's in order.
      ASSERT_LE(r.properties.size(), base.properties.size());
      for (std::size_t i = 0; i < r.properties.size(); ++i) {
        EXPECT_EQ(r.properties[i].ctl_text, base.properties[i].ctl_text);
        EXPECT_EQ(r.properties[i].holds, base.properties[i].holds);
      }
      EXPECT_EQ(canonical(Engine().run(req)), baseline)
          << model << " after tick " << n;
    }
  }
}

TEST(FaultInjectionTest, DeadlineInReachabilityStopsVerifyAndRecovers) {
  InjectorGuard guard;
  // A cold run's first ticks land in the session's one reachability
  // fixpoint, which opens the verify phase: the stop is a verify stop
  // with no property checked, the care set stays uninstalled, and the
  // same session's next run is byte-identical to a fresh one.
  for (const image::ImageStrategy strategy :
       {image::ImageStrategy::kPartitioned, image::ImageStrategy::kChaining}) {
    for (const char* model : kModels) {
      CoverageRequest req = path_request(model);
      req.options.image_strategy = strategy;
      const std::string baseline = canonical(Engine().run(req));
      for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{2}}) {
        Session session(Engine::load_model(req), req.options);
        FaultInjector::arm(FaultInjector::Site::kDeadline, n);
        const SuiteResult r = session.run(req);
        FaultInjector::disarm();
        ASSERT_EQ(r.status, ResultStatus::kDeadlineExceeded)
            << image::to_string(strategy) << " " << model << " @ tick " << n;
        EXPECT_EQ(r.status_detail.rfind("verify: ", 0), 0u)
            << r.status_detail;
        EXPECT_TRUE(r.properties.empty());
        EXPECT_TRUE(r.signals.empty());
        EXPECT_EQ(canonical(session.run(req)), baseline)
            << image::to_string(strategy) << " " << model << " after tick "
            << n;
      }
    }
  }
}

TEST(FaultInjectionTest, GenerousRealLimitsChangeNothing) {
  InjectorGuard guard;
  for (const char* model : kModels) {
    const std::string baseline =
        canonical(Engine().run(path_request(model)));
    CoverageRequest req = path_request(model);
    req.deadline_ms = 3'600'000;  // One hour: can't expire here.
    req.max_live_nodes = 100'000'000;
    EXPECT_EQ(canonical(Engine().run(req)), baseline) << model;
  }
}

TEST(FaultInjectionTest, TinyRealBudgetSurfacesStructurally) {
  InjectorGuard guard;
  CoverageRequest req = path_request("arbiter.cov");
  req.max_live_nodes = 16;  // Elaboration needs far more.
  const SuiteResult r = Engine().run(req);
  EXPECT_EQ(r.status, ResultStatus::kResourceExhausted);
  EXPECT_TRUE(r.error.empty()) << r.error;
  // The failing phase records where the budget bit.
  EXPECT_EQ(r.elaborate.node_budget, 16u);
  EXPECT_GE(r.elaborate.live_nodes, 16u);
}

// ---------------------------------------------------------------------------
// Chaining-order sweeps
// ---------------------------------------------------------------------------

/// Deadline and node-budget injection under the chaining reference
/// order. Its clusters run in another order with other intermediates,
/// so the sweep recalibrates its trigger points — and holds every
/// interruption to the same contract as the default engine: a
/// structured status, no error string, and a byte-exact
/// completed-property prefix of its own baseline. The baseline itself
/// must match the default engine's bytes (canonical sets don't depend
/// on how the image was scheduled).
TEST(FaultInjectionTest, StrategySweepsKeepStructuredStatusesAndPrefixes) {
  InjectorGuard guard;
  for (const char* model : {"arbiter.cov", "traffic.cov"}) {
    CoverageRequest req = path_request(model);
    req.options.image_strategy = image::ImageStrategy::kChaining;
    const SuiteResult base = Engine().run(req);
    const std::string baseline = canonical(base);
    EXPECT_EQ(baseline, canonical(Engine().run(path_request(model))))
        << "chaining diverged on " << model;

    const std::uint64_t deadline_total =
        calibrate(FaultInjector::Site::kDeadline, req, baseline);
    ASSERT_GT(deadline_total, 0u) << model;
    for (const std::uint64_t n : sweep_points(deadline_total)) {
      FaultInjector::arm(FaultInjector::Site::kDeadline, n);
      const SuiteResult r = Engine().run(req);
      FaultInjector::disarm();
      ASSERT_EQ(r.status, ResultStatus::kDeadlineExceeded)
          << "chaining " << model << " @ tick " << n;
      EXPECT_TRUE(r.error.empty()) << r.error;
      ASSERT_LE(r.properties.size(), base.properties.size());
      for (std::size_t i = 0; i < r.properties.size(); ++i) {
        EXPECT_EQ(r.properties[i].ctl_text, base.properties[i].ctl_text);
        EXPECT_EQ(r.properties[i].holds, base.properties[i].holds);
      }
      EXPECT_EQ(canonical(Engine().run(req)), baseline)
          << "chaining " << model << " after tick " << n;
    }

    const std::uint64_t alloc_total =
        calibrate(FaultInjector::Site::kAllocation, req, baseline);
    ASSERT_GT(alloc_total, 0u) << model;
    for (const std::uint64_t n :
         {std::uint64_t{1}, alloc_total / 2, alloc_total}) {
      if (n < 1) continue;
      FaultInjector::arm(FaultInjector::Site::kAllocation, n);
      const SuiteResult r = Engine().run(req);
      FaultInjector::disarm();
      EXPECT_EQ(r.status, ResultStatus::kResourceExhausted)
          << "chaining " << model << " @ allocation " << n;
      EXPECT_TRUE(r.error.empty()) << r.error;
      EXPECT_FALSE(r.status_detail.empty());
      EXPECT_EQ(canonical(Engine().run(req)), baseline)
          << "chaining " << model << " after allocation " << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Admission rejections
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, InjectedAdmissionRejectionThenCleanResubmit) {
  InjectorGuard guard;
  const CoverageRequest req = path_request("counter.cov");
  const std::string baseline = canonical(Engine().run(req));

  Executor ex{ExecutorOptions{2, nullptr}};
  FaultInjector::arm(FaultInjector::Site::kAdmission, 1);
  JobHandle rejected = ex.submit(req);
  FaultInjector::disarm();
  ASSERT_TRUE(rejected.wait_for(std::chrono::milliseconds(5000)));
  const SuiteResult r = rejected.take();
  EXPECT_EQ(r.status, ResultStatus::kAdmissionRejected);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.signals.empty());

  // The rejection left the executor fully serviceable.
  EXPECT_EQ(canonical(ex.submit(req).take()), baseline);
}

// ---------------------------------------------------------------------------
// Taxonomy round-trips
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, StatusSurvivesJsonSerialization) {
  InjectorGuard guard;
  FaultInjector::arm(FaultInjector::Site::kDeadline, 1);
  const SuiteResult r = Engine().run(path_request("traffic.cov"));
  FaultInjector::disarm();
  ASSERT_EQ(r.status, ResultStatus::kDeadlineExceeded);
  const std::string json = canonical(r);
  EXPECT_NE(json.find("\"status\": \"deadline_exceeded\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"status_detail\": "), std::string::npos) << json;
  std::string err;
  EXPECT_TRUE(engine::validate_json(json, &err)) << err;
}

TEST(FaultInjectionTest, StatusStringsAreTheJsonContractSpellings) {
  // The `status` member of every result line carries one of these six
  // spellings; clients match on them, so none may change.
  EXPECT_STREQ(engine::to_string(ResultStatus::kOk), "ok");
  EXPECT_STREQ(engine::to_string(ResultStatus::kCancelled), "cancelled");
  EXPECT_STREQ(engine::to_string(ResultStatus::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(engine::to_string(ResultStatus::kResourceExhausted),
               "resource_exhausted");
  EXPECT_STREQ(engine::to_string(ResultStatus::kAdmissionRejected),
               "admission_rejected");
  EXPECT_STREQ(engine::to_string(ResultStatus::kError), "error");
}

}  // namespace
}  // namespace covest
