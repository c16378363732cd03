// coverage_tool — the command-line coverage estimator.
//
// A thin adapter from argv to the engine facade: arguments become a
// `engine::CoverageRequest`, `engine::Engine::run` executes the whole
// parse -> verify -> estimate pipeline, and the structured
// `engine::SuiteResult` is rendered as text (default) or JSON (--json).
//
//   coverage_tool examples/models/counter.cov
//   coverage_tool examples/models/arbiter.cov --uncovered 8 --trace
//   coverage_tool examples/models/arbiter.cov --json
//   coverage_tool examples/models/arbiter.cov --json --stats
#include <cstdio>
#include <cstring>
#include <string>

#include "engine/engine.h"
#include "engine/result_json.h"
#include "engine/result_text.h"
#include "util/cli.h"

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
      "usage: coverage_tool <model.cov> [options]\n"
      "\n"
      "options:\n"
      "  --uncovered N   list up to N uncovered states per signal (default 4)\n"
      "  --trace         print a shortest input trace to an uncovered state\n"
      "  --skip-failing  estimate coverage even when some SPECs fail\n"
      "  --json          emit the structured result as JSON\n"
      "  --stats         include timing/BDD statistics in the JSON\n"
      "\n"
      "The model file declares properties and observed signals:\n"
      "  SPEC AG (full -> AX !grant) OBSERVE full;\n");
}

using covest::util::parse_count;

}  // namespace

int main(int argc, char** argv) {
  using namespace covest;

  if (argc < 2) {
    usage(stderr);
    return 2;
  }

  engine::CoverageRequest request;
  bool want_json = false;
  // Off by default, as in covest_batch: without timings two runs of the
  // same request print the same bytes.
  engine::JsonOptions json;
  json.include_stats = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--uncovered") == 0) {
      if (i + 1 >= argc || !parse_count(argv[++i], &request.uncovered_limit)) {
        std::fprintf(stderr,
                     "error: --uncovered needs a non-negative integer\n\n");
        usage(stderr);
        return 2;
      }
    } else if (std::strcmp(arg, "--trace") == 0) {
      request.want_traces = true;
    } else if (std::strcmp(arg, "--skip-failing") == 0) {
      request.skip_failing = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      want_json = true;
    } else if (std::strcmp(arg, "--stats") == 0) {
      json.include_stats = true;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n\n", arg);
      usage(stderr);
      return 2;
    } else if (request.model_path.empty()) {
      request.model_path = arg;
    } else {
      std::fprintf(stderr, "error: more than one model file given\n\n");
      usage(stderr);
      return 2;
    }
  }
  if (request.model_path.empty()) {
    std::fprintf(stderr, "error: no model file given\n\n");
    usage(stderr);
    return 2;
  }

  try {
    const engine::SuiteResult result = engine::Engine().run(request);
    if (want_json) {
      std::fputs(engine::to_json(result, json).c_str(), stdout);
    } else {
      engine::TextOptions text;
      text.cli_hints = true;
      std::fputs(engine::render_text(result, text).c_str(), stdout);
    }
    return result.all_passed() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
