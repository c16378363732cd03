// Integration tests for the coverage_tool CLI: spawns the real binary
// against the example models and checks exit codes, the hardened
// argument parsing, that --json output parses, and that it is
// stats-free (byte-reproducible) unless --stats asks for the timings.
#include <gtest/gtest.h>

#include <string>

#include "cli_harness.h"
#include "engine/result_json.h"

namespace covest {
namespace {

#if defined(COVEST_COVERAGE_TOOL_PATH) && defined(COVEST_SOURCE_DIR)

using testutil::RunOutcome;
using testutil::model_path;

/// stdout + stderr, interleaved.
RunOutcome run_tool(const std::string& args) {
  return testutil::run_shell(std::string(COVEST_COVERAGE_TOOL_PATH) + " " +
                             args + " 2>&1");
}

TEST(CoverageToolCliTest, JsonOutputParses) {
  for (const char* model : {"counter.cov", "arbiter.cov"}) {
    const RunOutcome r = run_tool(model_path(model) + " --json --trace");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    std::string err;
    EXPECT_TRUE(engine::validate_json(r.output, &err))
        << model << ": " << err << "\n" << r.output;
    EXPECT_NE(r.output.find("\"coverage_space_states\""), std::string::npos);
    EXPECT_NE(r.output.find("\"signals\""), std::string::npos);
  }
}

TEST(CoverageToolCliTest, JsonIsStatsFreeAndReproducibleUnlessAsked) {
  const std::string args = model_path("arbiter.cov") + " --json --trace";
  const RunOutcome first = run_tool(args);
  const RunOutcome second = run_tool(args);
  EXPECT_EQ(first.exit_code, 0) << first.output;
  EXPECT_EQ(first.output, second.output);
  EXPECT_EQ(first.output.find("\"stats\""), std::string::npos);
  EXPECT_EQ(first.output.find("\"check_ms\""), std::string::npos);
  EXPECT_EQ(first.output.find("\"parse_ms\""), std::string::npos);

  const RunOutcome with_stats = run_tool(args + " --stats");
  EXPECT_EQ(with_stats.exit_code, 0) << with_stats.output;
  std::string err;
  EXPECT_TRUE(engine::validate_json(with_stats.output, &err)) << err;
  EXPECT_NE(with_stats.output.find("\"stats\""), std::string::npos);
  EXPECT_NE(with_stats.output.find("\"gc_runs\""), std::string::npos);
  // The front end's share of the elaborate phase.
  EXPECT_NE(with_stats.output.find("\"parse_ms\""), std::string::npos);
}

TEST(CoverageToolCliTest, TextReportShowsTheTable) {
  const RunOutcome r = run_tool(model_path("counter.cov"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("[PASS]"), std::string::npos);
  EXPECT_NE(r.output.find("coverage space:"), std::string::npos);
  EXPECT_NE(r.output.find("count"), std::string::npos);
}

TEST(CoverageToolCliTest, RejectsBadUncoveredValues) {
  for (const char* bad : {"12x", "-3", "", "0x10", "nonsense",
                          "99999999999999999999999"}) {
    const RunOutcome r =
        run_tool(model_path("counter.cov") + " --uncovered '" + bad + "'");
    EXPECT_EQ(r.exit_code, 2) << "accepted --uncovered " << bad;
    EXPECT_NE(r.output.find("--uncovered needs a non-negative integer"),
              std::string::npos)
        << r.output;
  }
  // A missing value is rejected too.
  const RunOutcome r = run_tool(model_path("counter.cov") + " --uncovered");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(CoverageToolCliTest, RejectsUnknownOptionsAndExtraModels) {
  EXPECT_EQ(run_tool(model_path("counter.cov") + " --bogus").exit_code, 2);
  EXPECT_EQ(run_tool(model_path("counter.cov") + " " +
                     model_path("arbiter.cov")).exit_code, 2);
  // Bare invocation is a usage error too, not success.
  EXPECT_EQ(run_tool("").exit_code, 2);
}

TEST(CoverageToolCliTest, MissingFileReportsError) {
  const RunOutcome r = run_tool("/nonexistent/model.cov");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

#else

TEST(CoverageToolCliTest, DISABLED_NeedsExampleBinary) {}

#endif

}  // namespace
}  // namespace covest
