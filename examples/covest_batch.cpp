// covest_batch — the batch coverage driver (NDJSON in, NDJSON out).
//
// Reads suite jobs from a manifest file or from stdin, fans them out
// across an `engine::Executor` worker pool, and prints one compact JSON
// `SuiteResult` per input line, in input order:
//
//   covest_batch --jobs 4 manifest.txt
//   printf '%s\n' '{"model_path": "examples/models/counter.cov"}' \
//     | covest_batch --jobs 2
//
// Manifest format: one job per line. A line starting with `{` is a full
// JSON `CoverageRequest` (request_json.h schema); anything else is a
// `.cov` model path (resolved relative to the manifest's directory),
// which becomes a default request for that model. Blank lines and
// `#`/`--` comment lines are skipped. Without a manifest argument,
// stdin is read as NDJSON requests — the same schema, one per line.
//
// The framing, request parsing and bounded-window dispatch live in
// engine/ndjson_driver.h, shared with the long-lived server front-end
// (examples/covest_serve.cpp) so the two binaries speak one contract.
//
// Per-job defects (missing model, parse errors, unknown signals) never
// abort the batch: the failing job's output line carries
// `summary.error` and the driver exits nonzero once the batch is done.
// Resource-limited jobs (deadline, node budget, admission) likewise
// stay in the stream as partial results with `summary.status`.
// Exit codes: 0 = every job ran and every SPEC held, 1 = some job
// errored or some property failed, 2 = usage or manifest I/O error,
// 3 = some job was stopped by a resource limit (deadline exceeded,
// node budget exhausted, or admission rejected); 3 wins over 1.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "engine/executor.h"
#include "engine/ndjson_driver.h"
#include "engine/result_json.h"
#include "util/cli.h"

namespace {

using namespace covest;

void usage(std::FILE* to) {
  std::fprintf(to,
      "usage: covest_batch [options] [manifest]\n"
      "\n"
      "Runs a batch of coverage suites and emits one JSON result per\n"
      "line (NDJSON), in input order. Jobs come from the manifest file,\n"
      "or from stdin (one JSON request per line) when no manifest is\n"
      "given. Manifest lines are model paths or inline JSON requests;\n"
      "'#' and '--' start comments.\n"
      "\n"
      "options:\n"
      "  --jobs N     worker threads (default 1; 0 = hardware threads)\n"
      "  --deadline-ms N\n"
      "               per-job wall-clock budget; an expired job emits a\n"
      "               partial result with status deadline_exceeded\n"
      "  --max-nodes N\n"
      "               per-job BDD node budget; exhaustion emits status\n"
      "               resource_exhausted\n"
      "  --max-queue N\n"
      "               bound the executor queue; submission blocks for\n"
      "               room (backpressure) instead of growing unbounded\n"
      "  --trace      compute hole traces for path-derived requests\n"
      "  --stats      include timing/BDD statistics in the output\n"
      "  --pretty     pretty-print results (not NDJSON)\n");
}

using covest::util::parse_count;

struct BatchOptions {
  std::size_t jobs = 1;
  std::size_t max_queue = 0;  ///< 0 = unbounded admission.
  engine::RequestDefaults defaults;  ///< Flags override request fields.
  bool stats = false;
  bool pretty = false;
  std::string manifest;  ///< Empty = read NDJSON requests from stdin.
};

}  // namespace

int main(int argc, char** argv) {
  BatchOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--jobs") == 0) {
      if (i + 1 >= argc || !parse_count(argv[++i], &options.jobs)) {
        std::fprintf(stderr, "error: --jobs needs a non-negative integer\n\n");
        usage(stderr);
        return 2;
      }
    } else if (std::strcmp(arg, "--deadline-ms") == 0) {
      if (i + 1 >= argc ||
          !parse_count(argv[++i], &options.defaults.deadline_ms) ||
          options.defaults.deadline_ms == 0) {
        std::fprintf(stderr,
                     "error: --deadline-ms needs a positive integer\n\n");
        usage(stderr);
        return 2;
      }
    } else if (std::strcmp(arg, "--max-nodes") == 0) {
      if (i + 1 >= argc ||
          !parse_count(argv[++i], &options.defaults.max_nodes) ||
          options.defaults.max_nodes == 0) {
        std::fprintf(stderr,
                     "error: --max-nodes needs a positive integer\n\n");
        usage(stderr);
        return 2;
      }
    } else if (std::strcmp(arg, "--max-queue") == 0) {
      if (i + 1 >= argc || !parse_count(argv[++i], &options.max_queue) ||
          options.max_queue == 0) {
        std::fprintf(stderr,
                     "error: --max-queue needs a positive integer\n\n");
        usage(stderr);
        return 2;
      }
    } else if (std::strcmp(arg, "--trace") == 0) {
      options.defaults.want_traces = true;
    } else if (std::strcmp(arg, "--stats") == 0) {
      options.stats = true;
    } else if (std::strcmp(arg, "--pretty") == 0) {
      options.pretty = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      usage(stdout);
      return 0;
    } else if (arg[0] == '-' && arg[1] != '\0') {
      std::fprintf(stderr, "error: unknown option '%s'\n\n", arg);
      usage(stderr);
      return 2;
    } else if (options.manifest.empty()) {
      options.manifest = arg;
    } else {
      std::fprintf(stderr, "error: more than one manifest given\n\n");
      usage(stderr);
      return 2;
    }
  }

  // -- Fan out, emit in input order -----------------------------------------
  // The dispatcher runs a bounded submission window ahead of the output
  // cursor: a finished-but-not-yet-printed job still pins its BDD node
  // pools (the result's covered-set handles need them), so submitting a
  // huge manifest all at once would make resident memory grow with the
  // batch instead of with --jobs.
  // --max-queue bounds the executor queue with blocking backpressure:
  // the submission window already paces this driver, so the bound is
  // belt-and-suspenders here, but it exercises the exact admission path
  // the server front-end relies on.
  engine::ExecutorOptions executor_options;
  executor_options.workers = options.jobs;
  executor_options.max_queue_depth = options.max_queue;
  executor_options.admission = engine::AdmissionPolicy::kBlock;
  engine::Executor executor{executor_options};

  engine::JsonOptions json;
  json.pretty = options.pretty;
  json.include_stats = options.stats;
  engine::NdjsonDispatcher dispatch(
      executor, 2 * executor.worker_count(),
      [&json](const engine::SuiteResult& result) {
        std::fputs(engine::to_json(result, json).c_str(), stdout);
        std::fflush(stdout);
      });

  if (!options.manifest.empty()) {
    std::ifstream in(options.manifest);
    if (!in.good()) {
      std::fprintf(stderr, "error: cannot read manifest '%s'\n",
                   options.manifest.c_str());
      return 2;
    }
    const std::string base_dir = engine::ndjson_dirname(options.manifest);
    std::string line;
    while (std::getline(in, line)) {
      if (engine::ndjson_comment_or_blank(line)) continue;
      dispatch.push(
          engine::parse_request_line(line, options.defaults, base_dir, true));
    }
  } else {
    // Stdin is a machine contract — one output line per input line, in
    // order — so only blank lines are skipped; comment-looking garbage
    // becomes an error line rather than silently shifting the pairing.
    std::string line;
    while (std::getline(std::cin, line)) {
      if (engine::ndjson_trimmed(line).empty()) continue;
      dispatch.push(
          engine::parse_request_line(line, options.defaults, "", false));
    }
  }
  dispatch.drain();
  return dispatch.exit_code();
}
