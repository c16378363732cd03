// covest_serve — the long-lived NDJSON coverage server.
//
// Listens on a TCP port and serves the exact wire contract of
// `covest_batch` stdin mode, connection-oriented: clients send one JSON
// `CoverageRequest` per line and receive one compact JSON `SuiteResult`
// line per request, in per-connection submit order. All connections
// share one `engine::Executor` worker pool and one warm model cache
// (engine/session_cache.h), so a fleet of clients re-running suites on
// the same models skips parse/elaborate — and, for repeated suites,
// verification — entirely. A `{"op": "metrics"}` line returns a
// one-line JSON snapshot of throughput, queue depth, per-status counts
// and cache occupancy.
//
//   covest_serve --port 7171 --jobs 4 &
//   printf '%s\n' '{"model_path": "examples/models/counter.cov"}' \
//     | nc -q1 127.0.0.1 7171
//
// The first stdout line is `covest_serve listening on HOST:PORT` (with
// the kernel-assigned port when --port 0), so harnesses can discover
// the endpoint. SIGINT/SIGTERM drain in-flight jobs (flushing their
// result lines) and exit with the batch-compatible code: 0 = every
// suite ran and passed, 1 = some error or property failure, 2 = usage
// or bind error, 3 = some job was stopped by a resource limit.
//
// Test hook: the COVEST_SERVE_FAULT environment variable
// ("deadline:N", "allocation:N" or "admission:N") arms
// covest::FaultInjector before serving, making governance statuses
// deterministic over the wire.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/covest_server.h"
#include "util/cli.h"
#include "util/governance.h"

namespace {

using namespace covest;

server::CovestServer* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

void usage(std::FILE* to) {
  std::fprintf(to,
      "usage: covest_serve [options]\n"
      "\n"
      "Serves coverage suites over TCP: one JSON request per line in,\n"
      "one JSON result per line out, in per-connection submit order —\n"
      "the covest_batch stdin contract, long-lived. A {\"op\":\"metrics\"}\n"
      "line returns a one-line server-state snapshot. SIGINT/SIGTERM\n"
      "drain in-flight jobs and exit with covest_batch's 0/1/3 code.\n"
      "\n"
      "options:\n"
      "  --host A     bind address (default 127.0.0.1)\n"
      "  --port N     TCP port (default 0 = kernel-assigned; the bound\n"
      "               port is printed on the first stdout line)\n"
      "  --jobs N     worker threads (default 1; 0 = hardware threads)\n"
      "  --max-queue N\n"
      "               bound the executor queue; a full queue answers\n"
      "               with status admission_rejected immediately\n"
      "  --deadline-ms N\n"
      "               default per-job wall-clock budget (a request's\n"
      "               own deadline_ms wins)\n"
      "  --max-nodes N\n"
      "               default per-job BDD node budget (a request's own\n"
      "               max_live_nodes wins)\n"
      "  --cache N    warm model cache capacity in parked sessions\n"
      "               (default 8; 0 disables caching)\n"
      "  --max-connections N\n"
      "               concurrent-connection cap; excess connections get\n"
      "               one admission_rejected line (default unbounded)\n"
      "  --max-line-bytes N\n"
      "               per-connection request-line length cap (default\n"
      "               1048576); oversize lines get one\n"
      "               admission_rejected line, the stream resyncs at\n"
      "               the next newline\n"
      "  --drain-ms N\n"
      "               shutdown grace per in-flight job before it is\n"
      "               cancelled (default 30000)\n"
      "  --stats      include timing/BDD statistics in result lines\n");
}

using covest::util::parse_count;

/// COVEST_SERVE_FAULT="deadline:N" | "allocation:N" | "admission:N".
bool arm_fault_from_env() {
  const char* spec = std::getenv("COVEST_SERVE_FAULT");
  if (spec == nullptr || *spec == '\0') return true;
  const std::string text(spec);
  const auto colon = text.find(':');
  if (colon == std::string::npos) return false;
  std::size_t fire_at = 0;
  if (!parse_count(text.substr(colon + 1).c_str(), &fire_at) || fire_at == 0) {
    return false;
  }
  const std::string site = text.substr(0, colon);
  if (site == "deadline") {
    FaultInjector::arm(FaultInjector::Site::kDeadline, fire_at);
  } else if (site == "allocation") {
    FaultInjector::arm(FaultInjector::Site::kAllocation, fire_at);
  } else if (site == "admission") {
    FaultInjector::arm(FaultInjector::Site::kAdmission, fire_at);
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  server::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto count_flag = [&](const char* name, std::size_t* out,
                                bool positive) {
      if (std::strcmp(arg, name) != 0) return false;
      if (i + 1 >= argc || !parse_count(argv[++i], out) ||
          (positive && *out == 0)) {
        std::fprintf(stderr, "error: %s needs a %s integer\n\n", name,
                     positive ? "positive" : "non-negative");
        usage(stderr);
        std::exit(2);
      }
      return true;
    };
    std::size_t port = 0;
    std::size_t drain = 0;
    if (std::strcmp(arg, "--host") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --host needs an address\n\n");
        usage(stderr);
        return 2;
      }
      options.host = argv[++i];
    } else if (count_flag("--port", &port, false)) {
      if (port > 65535) {
        std::fprintf(stderr, "error: --port needs 0..65535\n\n");
        usage(stderr);
        return 2;
      }
      options.port = static_cast<std::uint16_t>(port);
    } else if (count_flag("--jobs", &options.jobs, false) ||
               count_flag("--max-queue", &options.max_queue, true) ||
               count_flag("--deadline-ms", &options.defaults.deadline_ms,
                          true) ||
               count_flag("--max-nodes", &options.defaults.max_nodes, true) ||
               count_flag("--cache", &options.cache_sessions, false) ||
               count_flag("--max-connections", &options.max_connections,
                          true) ||
               count_flag("--max-line-bytes", &options.max_line_bytes, true)) {
      // Parsed by count_flag.
    } else if (count_flag("--drain-ms", &drain, true)) {
      options.drain_ms = drain;
    } else if (std::strcmp(arg, "--stats") == 0) {
      options.stats = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n\n", arg);
      usage(stderr);
      return 2;
    }
  }

  if (!arm_fault_from_env()) {
    std::fprintf(stderr,
                 "error: COVEST_SERVE_FAULT needs "
                 "'deadline:N', 'allocation:N' or 'admission:N'\n");
    return 2;
  }

  server::CovestServer covest_server(options);
  std::string error;
  if (!covest_server.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }

  g_server = &covest_server;
  struct sigaction action{};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  std::printf("covest_serve listening on %s:%u\n", options.host.c_str(),
              static_cast<unsigned>(covest_server.port()));
  std::fflush(stdout);

  covest_server.serve();
  return covest_server.exit_code();
}
