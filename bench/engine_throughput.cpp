// Suite-throughput benchmark for the engine layer: how many coverage
// suites per second the `engine::Executor` sustains at different worker
// counts and over the server loopback.
// `bench/run_bench.sh` runs it over the example-model manifest and
// writes BENCH_engine.json so the engine layer has a perf trajectory PR
// over PR (the BDD layer has had one since PR 1).
//
//   engine_throughput [--repeat N] [--jobs 1,2,4] [--out FILE] model.cov...
//   engine_throughput --list [--jobs 1,2,4]
//
// `--list` prints the benchmark names the given configuration would
// measure, one per line, without touching any model — the staleness
// gate in run_bench.sh compares them against the committed
// BENCH_engine.json the same way bdd_microbench's
// --benchmark_list_tests backs the BENCH_bdd.json gate.
//
// Each configuration runs `N` copies of every model's default suite
// through one executor and measures wall time; the suites are
// independent jobs with worker-local BDD managers, so the jobs=K
// configurations measure the real fan-out path, not a simulation. Every
// entry also records summed verify passes (one per suite). The emitted
// note flags single-core hosts, where jobs=4 can read
// *slower* than jobs=2 on pure scheduling overhead.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/executor.h"
#include "server/covest_server.h"
#include "util/cli.h"

namespace {

using namespace covest;
using util::parse_count;
using Clock = std::chrono::steady_clock;

struct Config {
  std::size_t repeat = 8;
  std::vector<std::size_t> jobs = {1, 2, 4};
  bool list = false;  ///< Print benchmark names and exit.
  std::string out_path;
  std::vector<std::string> models;
};

/// The deterministic benchmark names a configuration produces, in
/// measurement order; `main` consumes them positionally, and the
/// run_bench.sh staleness gate holds BENCH_engine.json to them.
std::vector<std::string> benchmark_names(const Config& config) {
  std::vector<std::string> names;
  for (const std::size_t workers : config.jobs) {
    names.push_back("suite_throughput/jobs:" + std::to_string(workers));
  }
  const std::size_t max_workers =
      *std::max_element(config.jobs.begin(), config.jobs.end());
  const std::string jobs_suffix = "/jobs:" + std::to_string(max_workers);
  names.push_back("server_loopback/cache:off" + jobs_suffix);
  names.push_back("server_loopback/cache:on" + jobs_suffix);
  return names;
}

bool parse_jobs_list(const char* text, std::vector<std::size_t>* out) {
  out->clear();
  std::string item;
  for (const char* p = text;; ++p) {
    if (*p == ',' || *p == '\0') {
      std::size_t n = 0;
      if (!parse_count(item.c_str(), &n) || n == 0) return false;
      out->push_back(n);
      item.clear();
      if (*p == '\0') break;
    } else {
      item.push_back(*p);
    }
  }
  return !out->empty();
}

struct Measurement {
  std::string name;
  std::size_t jobs = 0;
  std::size_t suites = 0;
  double wall_ms = 0.0;
  double suites_per_sec = 0.0;
  std::size_t verify_passes = 0;  ///< Summed over results (0 = not tracked).
};

Measurement measure(const Config& config, std::size_t workers,
                    std::string name) {
  std::vector<engine::CoverageRequest> requests;
  requests.reserve(config.models.size() * config.repeat);
  for (std::size_t r = 0; r < config.repeat; ++r) {
    for (const std::string& path : config.models) {
      engine::CoverageRequest req;
      req.model_path = path;
      req.uncovered_limit = 0;  // Keep the measurement estimation-pure.
      requests.push_back(std::move(req));
    }
  }

  engine::Executor executor{engine::ExecutorOptions{workers, nullptr}};
  const auto t0 = Clock::now();
  const std::vector<engine::SuiteResult> results =
      executor.run_all(std::move(requests));
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  Measurement m;
  for (const engine::SuiteResult& r : results) {
    if (!r.error.empty()) {
      std::fprintf(stderr, "error: %s\n", r.error.c_str());
      std::exit(1);
    }
    m.verify_passes += r.verify.passes;
  }

  m.name = std::move(name);
  m.jobs = workers;
  m.suites = results.size();
  m.wall_ms = wall_ms;
  m.suites_per_sec =
      wall_ms > 0.0 ? static_cast<double>(results.size()) * 1000.0 / wall_ms
                    : 0.0;
  return m;
}

/// The server-loopback configuration: a `CovestServer` on 127.0.0.1
/// served from a background thread, one client streaming the whole
/// request batch over TCP and reading the result lines back. Measures
/// what a fleet client actually sees — framing, socket hops and the
/// warm model cache included (cache:on re-serves parked sessions after
/// the first round; cache:off re-elaborates every suite).
Measurement measure_server(const Config& config, std::size_t workers,
                           bool cache, std::string name) {
  server::ServerOptions options;
  options.jobs = workers;
  options.cache_sessions = cache ? 8 : 0;
  server::CovestServer covest_server(options);
  std::string error;
  if (!covest_server.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    std::exit(1);
  }
  std::thread serving([&covest_server] { covest_server.serve(); });

  std::string batch;
  for (std::size_t r = 0; r < config.repeat; ++r) {
    for (const std::string& path : config.models) {
      batch += "{\"model_path\": \"" + path + "\", \"uncovered_limit\": 0}\n";
    }
  }
  const std::size_t expected = config.repeat * config.models.size();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(covest_server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::fprintf(stderr, "error: loopback connect failed\n");
    std::exit(1);
  }

  const auto t0 = Clock::now();
  for (std::size_t sent = 0; sent < batch.size();) {
    const ::ssize_t n = ::send(fd, batch.data() + sent, batch.size() - sent,
                               MSG_NOSIGNAL);
    if (n <= 0) {
      std::fprintf(stderr, "error: loopback send failed\n");
      std::exit(1);
    }
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::size_t lines = 0;
  char chunk[65536];
  for (::ssize_t n; (n = ::recv(fd, chunk, sizeof chunk, 0)) > 0;) {
    lines += static_cast<std::size_t>(
        std::count(chunk, chunk + n, '\n'));
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  ::close(fd);
  covest_server.request_shutdown();
  serving.join();
  if (lines != expected || covest_server.exit_code() != 0) {
    std::fprintf(stderr, "error: loopback run came back short (%zu/%zu, exit %d)\n",
                 lines, expected, covest_server.exit_code());
    std::exit(1);
  }

  Measurement m;
  m.name = std::move(name);
  m.jobs = workers;
  m.suites = lines;
  m.wall_ms = wall_ms;
  m.suites_per_sec =
      wall_ms > 0.0 ? static_cast<double>(lines) * 1000.0 / wall_ms : 0.0;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--repeat") == 0) {
      if (i + 1 >= argc || !parse_count(argv[++i], &config.repeat) ||
          config.repeat == 0) {
        std::fprintf(stderr, "error: --repeat needs a positive integer\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--jobs") == 0) {
      if (i + 1 >= argc || !parse_jobs_list(argv[++i], &config.jobs)) {
        std::fprintf(stderr, "error: --jobs needs e.g. 1,2,4\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--list") == 0) {
      config.list = true;
    } else if (std::strcmp(arg, "--out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --out needs a path\n");
        return 2;
      }
      config.out_path = argv[++i];
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg);
      return 2;
    } else {
      config.models.push_back(arg);
    }
  }
  if (config.list) {
    for (const std::string& name : benchmark_names(config)) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (config.models.empty()) {
    std::fprintf(stderr,
                 "usage: engine_throughput [--repeat N] [--jobs 1,2,4] "
                 "[--out FILE] model.cov... | --list\n");
    return 2;
  }

  std::vector<Measurement> measurements;
  const std::vector<std::string> names = benchmark_names(config);
  std::size_t name_index = 0;
  for (const std::size_t workers : config.jobs) {
    const Measurement m = measure(config, workers, names[name_index++]);
    std::printf("jobs=%zu: %zu suites in %.1f ms  (%.1f suites/sec)\n",
                m.jobs, m.suites, m.wall_ms, m.suites_per_sec);
    measurements.push_back(m);
  }

  double speedup = 0.0;
  if (measurements.size() >= 2 && measurements.front().jobs == 1 &&
      measurements.front().suites_per_sec > 0.0) {
    speedup = measurements.back().suites_per_sec /
              measurements.front().suites_per_sec;
    std::printf("speedup jobs=%zu vs jobs=1: %.2fx (%u hardware threads)\n",
                measurements.back().jobs, speedup,
                std::thread::hardware_concurrency());
  }

  const std::size_t max_workers =
      *std::max_element(config.jobs.begin(), config.jobs.end());

  // Server loopback: the covest_serve wire path end to end. The cache:on
  // column is the warm-cache story — after round one every suite leases
  // a parked session instead of re-parsing/elaborating/verifying.
  Measurement loop_cold =
      measure_server(config, max_workers, false, names[name_index++]);
  Measurement loop_warm =
      measure_server(config, max_workers, true, names[name_index++]);
  for (const Measurement* m : {&loop_cold, &loop_warm}) {
    std::printf("%s: %.1f suites/sec\n", m->name.c_str(), m->suites_per_sec);
    measurements.push_back(*m);
  }
  const double cache_speedup =
      loop_cold.suites_per_sec > 0.0
          ? loop_warm.suites_per_sec / loop_cold.suites_per_sec
          : 0.0;
  std::printf("warm cache vs cold over loopback: %.2fx\n", cache_speedup);

  if (!config.out_path.empty()) {
    std::FILE* out = std::fopen(config.out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   config.out_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < measurements.size(); ++i) {
      const Measurement& m = measurements[i];
      std::fprintf(out,
                   "    {\"name\": \"%s\", "
                   "\"suites\": %zu, \"wall_ms\": %.3f, "
                   "\"suites_per_sec\": %.3f, \"verify_passes\": %zu}%s\n",
                   m.name.c_str(), m.suites, m.wall_ms, m.suites_per_sec,
                   m.verify_passes, i + 1 < measurements.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 2) {
      // The standing caveat for this repo's 1-core container: parallel
      // configurations measure scheduling overhead, not speedup, so
      // jobs=4 can legitimately read slower than jobs=2 here.
      std::fprintf(out,
                   "  \"note\": \"1 hardware thread: parallel "
                   "configurations (jobs>1) measure scheduling "
                   "overhead, not speedup; jobs=4 may read slower than "
                   "jobs=2.\",\n");
    }
    std::fprintf(out, "  \"speedup_max_jobs_vs_1\": %.3f,\n", speedup);
    std::fprintf(out, "  \"warm_cache_vs_cold_speedup\": %.3f\n}\n",
                 cache_speedup);
    std::fclose(out);
    std::printf("wrote %s\n", config.out_path.c_str());
  }
  return 0;
}
