// The engine facade: declarative CoverageRequest -> SuiteResult runs,
// governed stops (cancel), equivalence with the core estimator API, and
// golden-file tests for the JSON serializer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "circuits/circuits.h"
#include "core/coverage.h"
#include "ctl/ctl_parser.h"
#include "engine/engine.h"
#include "engine/result_json.h"
#include "engine/result_text.h"
#include "model/model_parser.h"
#include "util/governance.h"

namespace covest {
namespace {

using engine::CoverageRequest;
using engine::Engine;
using engine::PropertySpec;
using engine::ResultStatus;
using engine::Session;
using engine::SuiteResult;

constexpr const char* kHandshakeSource = R"(
MODULE handshake;
VAR  req_r : bool;
VAR  ack   : bool;
IVAR req   : bool;
IVAR grant : bool;
INIT req_r := false;
INIT ack := false;
NEXT req_r := req;
NEXT ack := req_r & grant;
SPEC AG (!req_r -> AX (!ack)) OBSERVE ack;
SPEC AG (req_r & grant -> AX ack) OBSERVE ack;
)";

// The first SPEC fails (x flips to 1 whenever in=1); the second holds.
constexpr const char* kBrokenSource = R"(
MODULE broken;
VAR  x : bool;
IVAR in : bool;
INIT x := false;
NEXT x := in;
SPEC AG (!x) OBSERVE x;
SPEC AG (in -> AX x) OBSERVE x;
)";

// --------------------------------------------------------------------------
// Facade end-to-end
// --------------------------------------------------------------------------

TEST(EngineTest, ModelSpecsDriveTheWholeSuite) {
  CoverageRequest req;
  req.model = model::parse_model(kHandshakeSource);
  const SuiteResult r = Engine().run(req);

  EXPECT_EQ(r.model_name, "handshake");
  EXPECT_EQ(r.state_bits, 2u);
  ASSERT_EQ(r.properties.size(), 2u);
  EXPECT_TRUE(r.all_passed());
  EXPECT_EQ(r.status, ResultStatus::kOk);
  ASSERT_EQ(r.signals.size(), 1u);
  EXPECT_EQ(r.signals[0].name, "ack");
  EXPECT_EQ(r.signals[0].num_properties, 2u);
  EXPECT_DOUBLE_EQ(r.signals[0].percent, 100.0);
  EXPECT_TRUE(r.signals[0].uncovered.empty());
  EXPECT_GT(r.space_count, 0.0);
  EXPECT_GT(r.reachable_states, 0.0);
}

TEST(EngineTest, MissingModelSourceThrows) {
  EXPECT_THROW(Engine().run(CoverageRequest{}), std::runtime_error);
}

TEST(EngineTest, RowsMatchTheCoreEstimator) {
  // The facade's per-signal rows must equal CoverageEstimator::report's
  // (both delegate to the same group aggregation).
  const model::Model m = model::parse_model(kHandshakeSource);

  CoverageRequest req;
  req.model = m;
  auto session = Engine().open(req);
  const SuiteResult r = session->run(req);

  fsm::SymbolicFsm fsm(m);
  ctl::ModelChecker checker(fsm);
  core::CoverageEstimator est(checker);
  std::vector<ctl::Formula> props;
  for (const auto& spec : m.specs()) {
    props.push_back(ctl::parse_ctl(spec.ctl_text));
  }
  const core::CoverageReport rep =
      est.report(props, {core::observe_all_bits(m, "ack")});

  ASSERT_EQ(rep.signals.size(), 1u);
  ASSERT_EQ(r.signals.size(), 1u);
  EXPECT_DOUBLE_EQ(r.signals[0].percent, rep.signals[0].percent);
  EXPECT_DOUBLE_EQ(r.signals[0].covered_count, rep.signals[0].covered_count);
  EXPECT_EQ(r.signals[0].num_properties, rep.signals[0].num_properties);
}

/// Renders a trace the way SuiteResult carries it: values in
/// declaration order.
engine::TraceResult render_trace(const fsm::SymbolicFsm& fsm,
                                 const fsm::Trace& trace) {
  engine::TraceResult out;
  for (const fsm::TraceStep& step : trace.steps) {
    engine::TraceResult::Step rendered;
    for (const fsm::SignalLayout& l : fsm.layouts()) {
      const auto it = step.values.find(l.name);
      if (it != step.values.end()) rendered.emplace_back(l.name, it->second);
    }
    out.steps.push_back(std::move(rendered));
  }
  out.text = trace.to_string(fsm);
  return out;
}

/// The suite result of `req` rebuilt from a full-space ModelChecker and a
/// CoverageEstimator on a fresh FSM, the way Session::run composes them
/// but without its reachable care set (request properties given as
/// formulas, empty observe lists, no skip_failing).
SuiteResult unrestricted_reference(const CoverageRequest& req) {
  const model::Model& m = *req.model;
  fsm::SymbolicFsm fsm(m, 0, req.options.image_strategy);
  ctl::ModelChecker checker(fsm);
  core::CoverageOptions options = req.options;
  options.require_holds = false;
  core::CoverageEstimator est(checker, options);

  SuiteResult r;
  r.model_name = m.name();
  r.state_bits = m.state_bit_count();
  std::vector<ctl::Formula> eligible;
  for (const PropertySpec& spec : req.properties) {
    const ctl::Formula f = ctl::collapse_propositional(spec.formula);
    const ctl::CheckResult check = checker.check(f);
    engine::PropertyResult pr;
    pr.ctl_text = ctl::to_string(f);
    pr.holds = check.holds;
    pr.skipped = !check.holds;
    if (check.counterexample) {
      pr.counterexample = render_trace(fsm, *check.counterexample);
    }
    if (check.holds) {
      eligible.push_back(f);
    } else {
      ++r.failures;
    }
    r.properties.push_back(std::move(pr));
  }
  r.reachable_states = fsm.count_states(fsm.reachable(fsm.initial_states()));
  r.space_count = fsm.count_states(est.coverage_space());
  for (const std::string& name : req.signals) {
    const core::SignalCoverage sc =
        est.coverage(eligible, core::observe_all_bits(m, name));
    engine::SignalRow row;
    row.name = name;
    row.num_properties = sc.num_properties;
    row.covered_count = sc.covered_count;
    row.percent = sc.percent;
    row.uncovered = est.uncovered_examples(sc.covered, req.uncovered_limit);
    if (const auto trace = est.trace_to_uncovered(sc.covered)) {
      row.trace = render_trace(fsm, *trace);
    }
    r.signals.push_back(std::move(row));
  }
  return r;
}

std::string no_stats_json(const SuiteResult& r) {
  engine::JsonOptions opts;
  opts.include_stats = false;
  return engine::to_json(r, opts);
}

TEST(EngineTest, ReachableCareSetKeepsRingSuitesByteIdentical) {
  // Session::run confines the checker to the reachable states; a
  // full-space checker must produce the very same bytes, counterexample
  // of the failing property and hole traces included.
  for (const unsigned cells : {12u, 24u}) {
    const circuits::TokenRingSpec spec{cells, 2};
    for (const image::ImageStrategy strategy :
         {image::ImageStrategy::kPartitioned,
          image::ImageStrategy::kChaining}) {
      CoverageRequest req;
      req.model = circuits::make_token_ring(spec);
      req.options.image_strategy = strategy;
      for (const auto& f : circuits::ring_safety_properties(spec)) {
        req.properties.push_back(PropertySpec::of(f));
      }
      // Fails three steps in, once the token reaches station 3 and moves
      // on; the counterexample is read off the complement of a temporal
      // body's satisfaction set.
      req.properties.push_back(
          PropertySpec::of(ctl::parse_ctl("AG (tok3 -> AX tok3)")));
      req.signals = {"tok0", "tok1", "v0"};
      req.want_traces = true;

      const std::string want = no_stats_json(unrestricted_reference(req));
      const SuiteResult got = Engine().run(req);
      EXPECT_EQ(got.failures, 1u);
      EXPECT_EQ(no_stats_json(got), want)
          << "cells " << cells << " strategy " << static_cast<int>(strategy);

      // A warm repeat in one session replays verify and re-estimates.
      auto session = Engine().open(req);
      session->run(req);
      const SuiteResult warm = session->run(req);
      EXPECT_EQ(warm.verify.passes, 0u);
      EXPECT_EQ(no_stats_json(warm), want);
    }
  }
}

TEST(EngineTest, CollectionAtEveryBoundaryKeepsRingRepliesByteIdentical) {
  // A floor of one collects at the first operation boundary and then
  // whenever the pool doubles its live set; collections never touch
  // reachable structure, so the reply bytes match the default run's.
  const circuits::TokenRingSpec spec{16, 2};
  CoverageRequest req;
  req.model = circuits::make_token_ring(spec);
  for (const auto& f : circuits::ring_safety_properties(spec)) {
    req.properties.push_back(PropertySpec::of(f));
  }
  req.properties.push_back(
      PropertySpec::of(ctl::parse_ctl("AG (tok3 -> AX tok3)")));
  req.signals = {"tok0", "tok1", "v0", "v1"};
  req.want_traces = true;
  req.skip_failing = true;

  const SuiteResult baseline = Engine().run(req);
  ::setenv("COVEST_GC_THRESHOLD", "1", 1);
  struct RestoreEnv {
    ~RestoreEnv() { ::unsetenv("COVEST_GC_THRESHOLD"); }
  } restore;
  const SuiteResult stressed = Engine().run(req);

  const std::string want = no_stats_json(baseline);
  EXPECT_NE(want.find("\"uncovered\""), std::string::npos);
  EXPECT_NE(want.find("\"trace\""), std::string::npos);
  EXPECT_EQ(no_stats_json(stressed), want);
  EXPECT_GT(stressed.estimate.gc_runs, baseline.estimate.gc_runs);
  EXPECT_GT(stressed.estimate.gc_runs, stressed.elaborate.gc_runs);
}

TEST(EngineTest, FairnessKeepsItsOwnCoverageSpace) {
  // Every initial state has a fair path, but once x is set it stays set,
  // so the reachable x states have none: the fair coverage space, though
  // traversed from the very initial states the session's reachable set
  // starts from, is smaller than that set and must not be replaced by it.
  CoverageRequest req;
  req.model = model::parse_model(R"(
MODULE latch;
VAR  x : bool;
VAR  y : bool;
IVAR in : bool;
INIT x := false;
INIT y := false;
NEXT x := x | (y & in);
NEXT y := in;
FAIRNESS !x;
SPEC AG (in -> AX y) OBSERVE y;
)");
  // States count the input bit too: all 8 are reachable, and the fair
  // ones are the x=0 states bar y & in (whose successor sets x).
  const SuiteResult fair = Engine().run(req);
  EXPECT_DOUBLE_EQ(fair.reachable_states, 8.0);
  EXPECT_DOUBLE_EQ(fair.space_count, 3.0);

  req.options.restrict_to_fair = false;
  const SuiteResult unfair = Engine().run(req);
  EXPECT_DOUBLE_EQ(unfair.reachable_states, 8.0);
  EXPECT_DOUBLE_EQ(unfair.space_count, 8.0);
}

TEST(EngineTest, FailingPropertiesAreSkippedByDefault) {
  CoverageRequest req;
  req.model = model::parse_model(kBrokenSource);
  const SuiteResult r = Engine().run(req);

  ASSERT_EQ(r.properties.size(), 2u);
  EXPECT_EQ(r.failures, 1u);
  EXPECT_FALSE(r.all_passed());

  const engine::PropertyResult& failing = r.properties[0];
  EXPECT_FALSE(failing.holds);
  EXPECT_TRUE(failing.skipped);
  ASSERT_TRUE(failing.counterexample.has_value());
  EXPECT_FALSE(failing.counterexample->steps.empty());

  const engine::PropertyResult& passing = r.properties[1];
  EXPECT_TRUE(passing.holds);
  EXPECT_FALSE(passing.skipped);
  EXPECT_FALSE(passing.counterexample.has_value());

  // The row reflects only the passing property.
  ASSERT_EQ(r.signals.size(), 1u);
  EXPECT_EQ(r.signals[0].num_properties, 1u);
}

TEST(EngineTest, SkipFailingKeepsFailingPropertiesInTheSuite) {
  CoverageRequest req;
  req.model = model::parse_model(kBrokenSource);
  req.skip_failing = true;
  const SuiteResult r = Engine().run(req);

  EXPECT_EQ(r.failures, 1u);
  for (const auto& p : r.properties) EXPECT_FALSE(p.skipped);
  // The failing property stays in the suite but contributes an empty
  // covered set (Definition 3 presupposes M |= f), so both count toward
  // the row without changing its covered states.
  ASSERT_EQ(r.signals.size(), 1u);
  EXPECT_EQ(r.signals[0].num_properties, 2u);
}

TEST(EngineTest, ExplicitSuiteAndSignalsBypassModelSpecs) {
  const circuits::CounterSpec spec{3, 5};
  CoverageRequest req;
  req.model = circuits::make_mod_counter(spec);
  for (const auto& f : circuits::counter_increment_properties(spec)) {
    req.properties.push_back(PropertySpec::of(f));
  }
  req.signals = {"count"};
  req.want_traces = true;

  const SuiteResult r = Engine().run(req);
  ASSERT_EQ(r.signals.size(), 1u);
  EXPECT_GT(r.signals[0].percent, 0.0);
  EXPECT_LT(r.signals[0].percent, 100.0);  // The reset/stall hole.
  EXPECT_FALSE(r.signals[0].uncovered.empty());
  ASSERT_TRUE(r.signals[0].trace.has_value());
  EXPECT_FALSE(r.signals[0].trace->steps.empty());
  // The covered handle stays valid: `retain` parks the session.
  EXPECT_TRUE(r.retain != nullptr);
  EXPECT_FALSE(r.signals[0].covered.is_false());
}

TEST(EngineTest, TextSuiteMatchesThePreParsedSuiteByteForByte) {
  // The job parses each text property once and runs the formulas; a
  // suite handed over already parsed, with the same ctl_text, must
  // give the very same bytes (traces and holes included).
  const model::Model m = model::parse_model(kHandshakeSource);
  CoverageRequest text;
  text.model = m;
  text.want_traces = true;
  CoverageRequest parsed = text;
  for (const model::SpecEntry& spec : m.specs()) {
    text.properties.push_back(PropertySpec::text(spec.ctl_text, spec.observed));
    PropertySpec p = PropertySpec::of(ctl::parse_ctl(spec.ctl_text),
                                      spec.observed);
    p.ctl_text = spec.ctl_text;
    parsed.properties.push_back(std::move(p));
  }
  engine::JsonOptions opts;
  opts.include_stats = false;
  const std::string from_text = engine::to_json(Engine().run(text), opts);
  EXPECT_EQ(from_text, engine::to_json(Engine().run(parsed), opts));
  // The model's own SPEC entries resolve to the same suite too.
  CoverageRequest specs;
  specs.model = m;
  specs.want_traces = true;
  EXPECT_EQ(from_text, engine::to_json(Engine().run(specs), opts));
  // And so does a library Session run.
  auto session = Engine().open(specs);
  EXPECT_EQ(from_text, engine::to_json(session->run(parsed), opts));
}

TEST(EngineTest, ResolveSuiteParsesEveryPropertyAndNamesTheBadOne) {
  const model::Model m = model::parse_model(kHandshakeSource);
  CoverageRequest req;
  const engine::ResolvedSuite suite = engine::resolve_suite(req, m);
  ASSERT_EQ(suite.properties.size(), 2u);
  for (const PropertySpec& p : suite.properties) {
    EXPECT_TRUE(p.formula.valid());
    EXPECT_FALSE(p.ctl_text.empty());
  }
  EXPECT_EQ(suite.signals, std::vector<std::string>{"ack"});
  req.properties = {PropertySpec::text("AG ack"), PropertySpec::text("AX (")};
  try {
    engine::resolve_suite(req, m);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "property 'AX (': syntax error at line 1, column 5: "
                 "expected an expression (found '<end>')");
  }
}

TEST(EngineTest, SessionReuseSharesWorkAcrossSuites) {
  const circuits::CircularQueueSpec spec{3};
  CoverageRequest base;
  base.model = circuits::make_circular_queue(spec);
  auto session = Engine().open(base);

  auto suite = circuits::queue_wrap_properties_initial(spec);
  CoverageRequest phase1;
  for (const auto& f : suite) phase1.properties.push_back(PropertySpec::of(f));
  phase1.signals = {"wrap"};
  const double pct1 = session->run(phase1).signals.front().percent;

  const std::size_t memo_after_first = session->checker().memo_size();
  // Re-running the same suite hits the structural memo: no new entries.
  session->run(phase1);
  EXPECT_EQ(session->checker().memo_size(), memo_after_first);

  // A grown suite is monotone.
  suite.push_back(circuits::queue_wrap_stall_property(spec));
  CoverageRequest phase2 = phase1;
  phase2.properties.clear();
  for (const auto& f : suite) phase2.properties.push_back(PropertySpec::of(f));
  EXPECT_GE(session->run(phase2).signals.front().percent, pct1);
}

// --------------------------------------------------------------------------
// Cancellation: a latch on the run governor
// --------------------------------------------------------------------------
// `JobHandle::cancel` latches the job's governor (executor_test covers
// the handle); here the latch is set on a governor installed around
// `Session::run`, which adopts it, so the landing point is deterministic.

TEST(EngineCancelTest, CancelDuringVerifyReturnsAnEmptyPrefix) {
  CoverageRequest req;
  req.model = model::parse_model(kHandshakeSource);
  const std::unique_ptr<Session> session = Engine().open(req);

  RunGovernor governor(0);
  const RunGovernor::Scope scope(&governor);
  governor.cancel();
  const SuiteResult r = session->run(req);
  EXPECT_EQ(r.status, ResultStatus::kCancelled);
  EXPECT_EQ(r.status_detail, "verify: cancelled");
  EXPECT_TRUE(r.properties.empty());  // Stopped before the first check.
  EXPECT_TRUE(r.signals.empty());     // Never reached estimation.
  EXPECT_NE(engine::to_json(r).find("\"cancelled\": true"),
            std::string::npos);
}

TEST(EngineCancelTest, CancelDuringEstimateKeepsTheVerifiedSuite) {
  CoverageRequest req;
  req.model = model::parse_model(kHandshakeSource);
  const std::unique_ptr<Session> session = Engine().open(req);
  const SuiteResult full = session->run(req);
  ASSERT_EQ(full.status, ResultStatus::kOk);

  // The warm run replays the verified suite without ticking, so the
  // latched cancel lands at the first row.
  RunGovernor governor(0);
  const RunGovernor::Scope scope(&governor);
  governor.cancel();
  const SuiteResult r = session->run(req);
  EXPECT_EQ(r.status, ResultStatus::kCancelled);
  EXPECT_EQ(r.status_detail, "estimate: cancelled");
  EXPECT_EQ(r.properties.size(), 2u);  // Verification completed.
  EXPECT_TRUE(r.signals.empty());
  EXPECT_EQ(r.verify.passes, 0u);
}

TEST(EngineCancelTest, TheFirstLatchedStopWins) {
  RunGovernor governor(0);
  governor.cancel();
  EXPECT_TRUE(governor.cancelled());
  EXPECT_THROW(governor.tick(), Cancelled);
  EXPECT_THROW(governor.tick(), Cancelled);  // Latched.

  struct Disarm {
    ~Disarm() { FaultInjector::disarm(); }
  } disarm;
  RunGovernor expired(0);
  FaultInjector::arm(FaultInjector::Site::kDeadline, 1);
  EXPECT_THROW(expired.tick(), DeadlineExceeded);
  FaultInjector::disarm();
  expired.cancel();  // A later cancel does not replace the expiry.
  EXPECT_FALSE(expired.cancelled());
  EXPECT_THROW(expired.tick(), DeadlineExceeded);
}

// --------------------------------------------------------------------------
// JSON serializer
// --------------------------------------------------------------------------

TEST(ResultJsonTest, ValidatorAcceptsAndRejects) {
  std::string err;
  EXPECT_TRUE(engine::validate_json(R"({"a": [1, 2.5e-3], "b": "x\n"})",
                                    &err));
  EXPECT_TRUE(engine::validate_json("[]", &err));
  EXPECT_TRUE(engine::validate_json("null", &err));
  EXPECT_FALSE(engine::validate_json("", &err));
  EXPECT_FALSE(engine::validate_json("{", &err));
  EXPECT_FALSE(engine::validate_json("{\"a\": 1,}", &err));
  EXPECT_FALSE(engine::validate_json("[1 2]", &err));
  EXPECT_FALSE(engine::validate_json("{\"a\": 01}", &err));
  EXPECT_FALSE(engine::validate_json("\"unterminated", &err));
  EXPECT_FALSE(engine::validate_json("[1] trailing", &err));
}

TEST(ResultJsonTest, OutputValidatesAndEscapes) {
  CoverageRequest req;
  req.model = model::parse_model(kHandshakeSource);
  SuiteResult r = Engine().run(req);
  r.model_name = "quoted\"name\nwith\tescapes\\";

  for (const bool pretty : {true, false}) {
    engine::JsonOptions opts;
    opts.pretty = pretty;
    const std::string json = engine::to_json(r, opts);
    std::string err;
    EXPECT_TRUE(engine::validate_json(json, &err)) << err << "\n" << json;
  }
}

TEST(ResultJsonTest, WideStateCountsAreExactIntegerTokens) {
  // A uint<20> latch loaded from a uint<20> input: 2^40 reachable
  // (state, input) valuations — past the ten significant digits that
  // `%.10g` keeps, which would print 1.099511628e+12.
  CoverageRequest req;
  req.model_source =
      "MODULE wide;\nVAR w : uint<20>;\nIVAR d : uint<20>;\n"
      "INIT w := 0;\nNEXT w := d;\n"
      "SPEC AG (d == 0 -> AX w == 0) OBSERVE w;\n";
  const SuiteResult r = Engine().run(req);
  ASSERT_EQ(r.reachable_states, 1099511627776.0);
  engine::JsonOptions opts;
  opts.pretty = false;
  opts.include_stats = false;
  const std::string json = engine::to_json(r, opts);
  EXPECT_NE(json.find("\"reachable_states\":1099511627776,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"coverage_space_states\":1099511627776"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("e+"), std::string::npos) << json;
}

// Golden-file tests: deterministic serializations (include_stats=false)
// compared byte-for-byte. Regenerate with
//   COVEST_REGEN_GOLDEN=1 ./engine_test
class GoldenJsonTest : public ::testing::Test {
 protected:
  static std::string golden_path(const std::string& name) {
    return std::string(COVEST_SOURCE_DIR) + "/tests/golden/" + name;
  }

  static void compare_or_regen(const std::string& name,
                               const std::string& actual) {
    const std::string path = golden_path(name);
    if (std::getenv("COVEST_REGEN_GOLDEN") != nullptr) {
      std::ofstream out(path, std::ios::binary);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << actual;
      GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str()) << "golden mismatch for " << name;
  }
};

TEST_F(GoldenJsonTest, ArbiterSuite) {
  CoverageRequest req;
  req.model_path = std::string(COVEST_SOURCE_DIR) +
                   "/examples/models/arbiter.cov";
  const SuiteResult r = Engine().run(req);

  engine::JsonOptions opts;
  opts.include_stats = false;
  const std::string json = engine::to_json(r, opts);
  std::string err;
  ASSERT_TRUE(engine::validate_json(json, &err)) << err;
  compare_or_regen("arbiter_suite.json", json);
}

TEST_F(GoldenJsonTest, CounterSuiteWithHolesAndTrace) {
  CoverageRequest req;
  req.model_path = std::string(COVEST_SOURCE_DIR) +
                   "/examples/models/counter.cov";
  req.want_traces = true;
  const SuiteResult r = Engine().run(req);

  engine::JsonOptions opts;
  opts.include_stats = false;
  const std::string json = engine::to_json(r, opts);
  std::string err;
  ASSERT_TRUE(engine::validate_json(json, &err)) << err;
  compare_or_regen("counter_suite.json", json);
}

TEST_F(GoldenJsonTest, TextRendererIsStableToo) {
  CoverageRequest req;
  req.model_path = std::string(COVEST_SOURCE_DIR) +
                   "/examples/models/counter.cov";
  req.want_traces = true;
  const SuiteResult r = Engine().run(req);
  compare_or_regen("counter_suite.txt", engine::render_text(r));
}

}  // namespace
}  // namespace covest
