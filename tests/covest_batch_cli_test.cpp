// Integration tests for the covest_batch CLI: manifest and stdin NDJSON
// modes, --jobs determinism, byte-level parity of batch lines with the
// serial engine, structured error lines and exit codes.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "cli_harness.h"
#include "engine/engine.h"
#include "engine/result_json.h"

namespace covest {
namespace {

#if defined(COVEST_BATCH_TOOL_PATH) && defined(COVEST_SOURCE_DIR)

using testutil::RunOutcome;
using testutil::model_path;
using testutil::run_shell;
using testutil::split_lines;
using testutil::write_manifest;

/// stdout only (stderr discarded keeps the captured NDJSON pure).
RunOutcome run_batch(const std::string& args) {
  return run_shell(std::string(COVEST_BATCH_TOOL_PATH) + " " + args +
                   " 2>/dev/null");
}

TEST(CovestBatchCliTest, ManifestModeEmitsOneValidJsonLinePerModel) {
  const std::string manifest = write_manifest(
      {model_path("counter.cov"), model_path("arbiter.cov"),
       model_path("handshake.cov"), model_path("shift.cov"),
       model_path("traffic.cov")});
  const RunOutcome r = run_batch("--jobs 2 " + manifest);
  EXPECT_EQ(r.exit_code, 0) << r.output;

  const std::vector<std::string> lines = split_lines(r.output);
  ASSERT_EQ(lines.size(), 5u);
  const char* names[] = {"counter", "arbiter", "handshake", "shift",
                         "traffic"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string err;
    EXPECT_TRUE(engine::validate_json(lines[i] + "\n", &err))
        << err << "\n" << lines[i];
    EXPECT_NE(lines[i].find(std::string("\"name\":\"") + names[i] + "\""),
              std::string::npos)
        << "line " << i << " out of order: " << lines[i];
  }
}

TEST(CovestBatchCliTest, JobsFourIsByteIdenticalToJobsOne) {
  // The CLI face of the determinism satellite: the whole NDJSON stream
  // (rows, percentages, holes) must not depend on the worker count.
  const std::string manifest = write_manifest(
      {model_path("counter.cov"), model_path("arbiter.cov")});
  const RunOutcome serial = run_batch("--jobs 1 " + manifest);
  const RunOutcome parallel = run_batch("--jobs 4 " + manifest);
  EXPECT_EQ(serial.exit_code, 0);
  EXPECT_EQ(parallel.exit_code, 0);
  EXPECT_EQ(serial.output, parallel.output);
}

TEST(CovestBatchCliTest, BatchLinesMatchTheSerialEngineByteForByte) {
  // One NDJSON line == the serial engine's deterministic serialization
  // of the same request: the acceptance parity between covest_batch and
  // coverage_tool's engine output.
  const std::string manifest = write_manifest(
      {model_path("counter.cov"), model_path("traffic.cov")});
  const RunOutcome batch = run_batch("--jobs 4 " + manifest);
  ASSERT_EQ(batch.exit_code, 0);

  std::string expected;
  for (const char* name : {"counter.cov", "traffic.cov"}) {
    engine::CoverageRequest req;
    req.model_path = model_path(name);
    engine::JsonOptions opts;
    opts.pretty = false;
    opts.include_stats = false;
    expected += engine::to_json(engine::Engine().run(req), opts);
  }
  EXPECT_EQ(batch.output, expected);
}

TEST(CovestBatchCliTest, StdinNdjsonRequestsRunInOrder) {
  const std::string requests =
      "{\"model_path\": \"" + model_path("traffic.cov") + "\"}\n" +
      "{\"model_path\": \"" + model_path("counter.cov") + "\", "
      "\"uncovered_limit\": 0}\n";
  const RunOutcome r = run_shell(
      "printf '%s' '" + requests + "' | " + COVEST_BATCH_TOOL_PATH +
      " --jobs 2 2>/dev/null");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::vector<std::string> lines = split_lines(r.output);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"name\":\"traffic\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"name\":\"counter\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"uncovered\":[]"), std::string::npos);
}

TEST(CovestBatchCliTest, StdinKeepsLinePairingForCommentLikeGarbage) {
  // Stdin is a machine contract: a '#' line is not silently skipped (as
  // in hand-written manifests) but answered with an error line, so
  // request i always pairs with output line i.
  const std::string input =
      "# not a comment on stdin\n"
      "{\"model_path\": \"" + model_path("counter.cov") + "\"}\n";
  const RunOutcome r = run_shell(
      "printf '%s' '" + input + "' | " + COVEST_BATCH_TOOL_PATH +
      " 2>/dev/null");
  EXPECT_EQ(r.exit_code, 1);
  const std::vector<std::string> lines = split_lines(r.output);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"error\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"name\":\"counter\""), std::string::npos);
}

TEST(CovestBatchCliTest, RelativePathsResolveAgainstTheManifestDir) {
  // Bare path lines and JSON model_path fields follow the same rule, so
  // one manifest works from any working directory.
  const std::string dir = ::testing::TempDir();
  {
    std::ifstream src(model_path("counter.cov"), std::ios::binary);
    std::ofstream dst(dir + "counter.cov", std::ios::binary);
    dst << src.rdbuf();
  }
  const std::string manifest = dir + "relative_manifest.txt";
  {
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out << "counter.cov\n";
    out << "{\"model_path\": \"counter.cov\"}\n";
  }
  const RunOutcome r = run_batch(manifest);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::vector<std::string> lines = split_lines(r.output);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], lines[1]);  // Same model, same request defaults.
  EXPECT_NE(lines[0].find("\"name\":\"counter\""), std::string::npos);
}

TEST(CovestBatchCliTest, BadJobsAreErrorLinesAndNonzeroExit) {
  // A missing model file and an unparsable request line both produce a
  // structured error line in place, without aborting the other jobs.
  const std::string manifest = write_manifest(
      {"/nonexistent/model.cov", model_path("counter.cov"),
       "{\"this is\": not json"});
  const RunOutcome r = run_batch("--jobs 2 " + manifest);
  EXPECT_EQ(r.exit_code, 1);
  const std::vector<std::string> lines = split_lines(r.output);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"error\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"name\":\"counter\""), std::string::npos);
  EXPECT_EQ(lines[1].find("\"error\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"error\""), std::string::npos) << lines[2];
  for (const std::string& line : lines) {
    std::string err;
    EXPECT_TRUE(engine::validate_json(line + "\n", &err)) << err;
  }
}

TEST(CovestBatchCliTest, RequestValidationErrorsSurfacePerJob) {
  const std::string requests =
      "{\"model_path\": \"" + model_path("counter.cov") +
      "\", \"signals\": [\"bogus\"]}\n";
  const RunOutcome r = run_shell(
      "printf '%s' '" + requests + "' | " + COVEST_BATCH_TOOL_PATH +
      " 2>/dev/null");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("bogus"), std::string::npos) << r.output;
}

TEST(CovestBatchCliTest, SyntaxPastTheDepthBoundIsAnErrorLineNotASignal) {
  // The depth reproductions of tests/golden/fuzz (generate_corpus.py):
  // 100,000 levels of CTL negation, of a flat CTL conjunction, and of a
  // model's NEXT expression used to overflow a worker's stack and kill
  // the batch with SIGSEGV. Each is one located error line now, and the
  // job after it still runs.
  const std::string fuzz =
      std::string(COVEST_SOURCE_DIR) + "/tests/golden/fuzz/";
  const std::string counter =
      "{\"model_path\": \"" + model_path("counter.cov") + "\"}";
  std::vector<std::string> jobs;
  for (const char* name :
       {"bad_job/deep_negation_ctl.json", "bad_job/long_and_chain_ctl.json"}) {
    std::ifstream in(fuzz + name, std::ios::binary);
    std::string line;
    ASSERT_TRUE(std::getline(in, line)) << name;
    jobs.push_back(line);
  }
  for (const char* name :
       {"bad_model/deep_negation_next.cov",
        "bad_model/deep_parentheses_next.cov",
        "bad_model/long_xor_chain_next.cov"}) {
    jobs.push_back(fuzz + name);
  }
  for (const std::string& job : jobs) {
    const RunOutcome r =
        run_batch("--jobs 2 " + write_manifest({job, counter}));
    EXPECT_EQ(r.exit_code, 1) << job.substr(0, 80);
    const std::vector<std::string> lines = split_lines(r.output);
    ASSERT_EQ(lines.size(), 2u) << job.substr(0, 80);
    EXPECT_NE(lines[0].find("\"status\":\"error\""), std::string::npos);
    EXPECT_NE(lines[0].find("nested deeper than 256 levels"),
              std::string::npos)
        << lines[0].substr(0, 200);
    EXPECT_NE(lines[1].find("\"name\":\"counter\""), std::string::npos);
    EXPECT_EQ(lines[1].find("\"error\""), std::string::npos);
  }
}

TEST(CovestBatchCliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(run_batch("--jobs nope /dev/null").exit_code, 2);
  EXPECT_EQ(run_batch("--bogus-flag /dev/null").exit_code, 2);
  EXPECT_EQ(run_batch("/nonexistent/manifest.txt").exit_code, 2);
  EXPECT_EQ(run_batch("a.txt b.txt").exit_code, 2);
  // Governance flags demand positive integers: 0 is spelled by omission.
  EXPECT_EQ(run_batch("--deadline-ms 0 /dev/null").exit_code, 2);
  EXPECT_EQ(run_batch("--deadline-ms soon /dev/null").exit_code, 2);
  EXPECT_EQ(run_batch("--max-nodes nope /dev/null").exit_code, 2);
  EXPECT_EQ(run_batch("--max-nodes 0 /dev/null").exit_code, 2);
  EXPECT_EQ(run_batch("--max-queue 0 /dev/null").exit_code, 2);
}

TEST(CovestBatchCliTest, RemovedShardsFlagIsUnknown) {
  // No intra-suite sharding flag exists: it must fail as an unknown
  // option, never be silently accepted.
  const RunOutcome r = run_shell(std::string(COVEST_BATCH_TOOL_PATH) +
                                 " --shards 2 /dev/null 2>&1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--shards'"), std::string::npos)
      << r.output;
}

TEST(CovestBatchCliTest, RemovedImageStrategyFlagIsUnknown) {
  // Every job runs the partitioned image order: the retired flag fails
  // as an unknown option.
  const RunOutcome r = run_shell(std::string(COVEST_BATCH_TOOL_PATH) +
                                 " --image-strategy chaining /dev/null 2>&1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--image-strategy'"),
            std::string::npos)
      << r.output;
}

TEST(CovestBatchCliTest, ParallelApplyFlagIsUnknown) {
  // No in-operation parallelism flag exists: it must fail as an unknown
  // option, never be silently accepted.
  const RunOutcome r = run_shell(std::string(COVEST_BATCH_TOOL_PATH) +
                                 " --parallel-apply 2 /dev/null 2>&1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--parallel-apply'"),
            std::string::npos)
      << r.output;
}

TEST(CovestBatchCliTest, RemovedTableSelectorFlagIsUnknown) {
  // Shared epochs have one synchronization, so there is nothing to
  // select: the retired flag fails as an unknown option.
  const RunOutcome r = run_shell(std::string(COVEST_BATCH_TOOL_PATH) +
                                 " --table-mode striped /dev/null 2>&1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--table-mode'"), std::string::npos)
      << r.output;
}

TEST(CovestBatchCliTest, ResourceLimitedJobsExitThreeWithStatusLines) {
  // A starved node budget must not abort the batch: the limited job
  // gets a structured status line, the healthy job still completes, and
  // the whole batch exits 3 (resource-limited trumps 1/0).
  const std::string requests =
      "{\"model_path\": \"" + model_path("traffic.cov") +
      "\", \"max_live_nodes\": 8}\n" +
      "{\"model_path\": \"" + model_path("counter.cov") + "\"}\n";
  const RunOutcome r = run_shell(
      "printf '%s' '" + requests + "' | " + COVEST_BATCH_TOOL_PATH +
      " 2>/dev/null");
  EXPECT_EQ(r.exit_code, 3) << r.output;
  const std::vector<std::string> lines = split_lines(r.output);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"status\":\"resource_exhausted\""),
            std::string::npos)
      << lines[0];
  EXPECT_EQ(lines[0].find("\"error\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"name\":\"counter\""), std::string::npos);
  for (const std::string& line : lines) {
    std::string err;
    EXPECT_TRUE(engine::validate_json(line + "\n", &err)) << err;
  }
}

TEST(CovestBatchCliTest, MaxNodesFlagCapsEveryJobInTheBatch) {
  const std::string manifest = write_manifest({model_path("traffic.cov")});
  const RunOutcome r = run_batch("--max-nodes 8 " + manifest);
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("\"status\":\"resource_exhausted\""),
            std::string::npos)
      << r.output;
}

TEST(CovestBatchCliTest, GenerousLimitsAreByteIdenticalToNoLimits) {
  // The zero-cost contract at the CLI face: a batch run under limits it
  // never hits emits exactly the bytes of an unlimited run.
  const std::string manifest = write_manifest(
      {model_path("counter.cov"), model_path("arbiter.cov")});
  const RunOutcome unlimited = run_batch("--jobs 2 " + manifest);
  const RunOutcome governed = run_batch(
      "--jobs 2 --deadline-ms 3600000 --max-nodes 100000000 --max-queue 64 " +
      manifest);
  EXPECT_EQ(unlimited.exit_code, 0);
  EXPECT_EQ(governed.exit_code, 0);
  EXPECT_EQ(unlimited.output, governed.output);
}

TEST(CovestBatchCliTest, EmptyStdinIsAnEmptySuccessfulBatch) {
  const RunOutcome r = run_shell(std::string(": | ") +
                                 COVEST_BATCH_TOOL_PATH + " 2>/dev/null");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_TRUE(r.output.empty()) << r.output;
}

#else

TEST(CovestBatchCliTest, DISABLED_NeedsBatchBinary) {}

#endif

}  // namespace
}  // namespace covest
