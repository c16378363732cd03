// covest_bench — the end-to-end benchmark program.
//
// Runs one workload for a fixed time, checks every reply, and prints the
// workload's metrics; the last stdout line is one JSON object. Build and
// run it through run.py, which also records the environment:
//
//   covest_bench --workload corpus_batch|ring_suite|serve_mixed
//                --seed N --seconds S --trace 0|1 --gen PATH --work DIR
//                [--smoke] [--corrupt]
//
// Workloads (all closed loop; this one process generates the load):
//   corpus_batch  a seeded covest_gen corpus of tiny distinct models,
//                 through covest_batch's own path: parse_request_line ->
//                 NdjsonDispatcher -> Executor (4 workers, window 8).
//                 The path has no cache, so cycling the corpus keeps
//                 every suite cold.
//   ring_suite    token_ring(32) with its safety suite, observe left
//                 empty, rows tok1..tok4; one suite in flight on a
//                 4-worker Executor, so intra-suite parallelism shows on
//                 latency.
//   serve_mixed   an in-process CovestServer (jobs=4, default cache of 8)
//                 over loopback; 4 connections with one outstanding
//                 request each. Nine requests in ten draw from 8 hot
//                 models; every 10th is a model not sent before.
// Every request keeps the repository's default options apart from those
// named here, so a changed default shows up in the numbers.
//
// Every reply is compared byte for byte with a reference that does not
// come from the timed path: covest_gen's oracle.ndjson, or for the ring
// a replay under the chaining image strategy. A mismatch, an error line
// or a non-ok status counts as a failed request, and a failed request
// counts as missing every latency figure.
//
// --trace 0 sets up once, runs the load once and reports the end-to-end
// metrics; run.py repeats such runs in fresh processes and reports
// medians. --trace 1 alternates
// untraced and traced slices of the load (JobEvent taps, server stats,
// metrics ops), reports the per-layer metrics and the tracing overhead,
// and prints the attribution table; a serial layer replay of the same
// inputs times the calls inside a suite.
#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "circuits/circuits.h"
#include "engine/executor.h"
#include "engine/json.h"
#include "engine/ndjson_driver.h"
#include "engine/request_json.h"
#include "engine/result_json.h"
#include "image/image.h"
#include "server/covest_server.h"

extern char** environ;

namespace {

using namespace covest;
using covest_bench::Clock;
using covest_bench::ms_between;
using covest_bench::print_attribution;
using covest_bench::ReplaySuite;
using covest_bench::ReplayTotals;
using covest_bench::Span;

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kHotModels = 8;
constexpr unsigned kRingCells = 32;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string gen;   ///< covest_gen binary.
  std::string work;  ///< Scratch directory for generated inputs.
  bool smoke = false;    ///< Tiny inputs: the self-test mode.
  bool corrupt = false;  ///< Flip a byte of the first timed reply.
};

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

/// Process CPU time (user + sys, all threads) from the scheduler's
/// runtime accounting, which is exact where rusage may be tick-sampled.
double cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return 1000.0 * static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Starts a new peak-memory interval: hands the heap's free pages back
/// to the kernel, then resets the resident high-water mark (VmHWM) to
/// the current resident size. The timed run's peak is then the run's
/// own, not that of the set-up passes before it.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;
  if (!clear_refs.good()) {
    throw std::runtime_error("cannot reset the peak RSS (/proc/self/clear_refs)");
  }
}

/// Peak resident memory since the last reset_peak_rss(), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // In kB.
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// Lines of `path`, each with its trailing newline (result lines are
/// compared whole).
std::vector<std::string> read_lines(const std::string& path) {
  std::istringstream in(read_file(path));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line + "\n");
  return lines;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an ascending vector.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// The compact, stats-free result rendering every reference holds.
std::string canonical(const engine::SuiteResult& r) {
  engine::JsonOptions json;
  json.pretty = false;
  json.include_stats = false;
  return engine::to_json(r, json);
}

/// Runs covest_gen for seeds [start, start + count) into `dir`.
void run_gen(const Options& o, std::uint64_t start, std::size_t count,
             const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string seeds = std::to_string(count);
  const std::string first = std::to_string(start);
  std::vector<char*> argv = {const_cast<char*>(o.gen.c_str()),
                             const_cast<char*>("--seeds"),
                             const_cast<char*>(seeds.c_str()),
                             const_cast<char*>("--start"),
                             const_cast<char*>(first.c_str()),
                             const_cast<char*>("--out"),
                             const_cast<char*>(dir.c_str()), nullptr};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  pid_t pid = 0;
  const int rc =
      ::posix_spawn(&pid, o.gen.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot start '" + o.gen +
                             "': " + std::strerror(rc));
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("covest_gen failed for seeds " + first + "+" +
                             seeds);
  }
}

/// JobEvent timestamps by job id, from ExecutorOptions::on_event. Jobs
/// are consumed in submit order, which is the order their results are
/// emitted on both in-process paths.
class JobTap {
 public:
  struct Times {
    Clock::time_point queued, started, finished;
  };

  engine::JobEventFn fn() {
    return [this](const engine::JobEvent& e) { record(e); };
  }

  Times take_next() {
    std::lock_guard<std::mutex> lock(mu_);
    if (order_.empty()) return {};
    const std::uint64_t id = order_.front();
    order_.pop_front();
    const auto it = times_.find(id);
    if (it == times_.end()) return {};
    const Times t = it->second;
    times_.erase(it);
    return t;
  }

 private:
  void record(const engine::JobEvent& e) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    Times& t = times_[e.job];
    switch (e.kind) {
      case engine::JobEvent::Kind::kQueued:
        t.queued = now;
        order_.push_back(e.job);
        break;
      case engine::JobEvent::Kind::kStarted:
        t.started = now;
        break;
      case engine::JobEvent::Kind::kFinished:
        t.finished = now;
        break;
      default:
        break;
    }
  }

  std::mutex mu_;
  std::unordered_map<std::uint64_t, Times> times_;
  std::deque<std::uint64_t> order_;
};

/// The workloads' executor: 4 workers, defaults otherwise; `tap` (the
/// traced run) receives every JobEvent.
engine::ExecutorOptions executor_options(JobTap* tap) {
  engine::ExecutorOptions options;
  options.workers = kWorkers;
  if (tap != nullptr) options.on_event = tap->fn();
  return options;
}

/// One timed suite. `latency_ms` is always measured; the rest is filled
/// only by the traced run, from what the workload's path exposes
/// (zero where it exposes nothing, e.g. queue wait behind a socket).
struct SuiteSample {
  double latency_ms = 0.0;  ///< Submit to finished result line.
  bool ok = true;           ///< Reply matched its reference byte for byte.

  double queue_wait_ms = 0.0;  ///< JobEvent kQueued -> kStarted.
  /// JobEvent kStarted -> kFinished in process; the server's own
  /// `total_ms` over a socket.
  double run_ms = 0.0;
  double elaborate_ms = 0.0;  ///< PhaseStats, as the engine reports them.
  double verify_ms = 0.0;
  double estimate_ms = 0.0;
  double check_ms = 0.0;     ///< Sum of PropertyResult::check_ms.
  double coverage_ms = 0.0;  ///< Sum of SignalRow::estimate_ms.
  double to_json_ms = 0.0;   ///< engine::to_json of the result line.
  double peak_live_nodes = 0.0;
  bool verify_skipped = false;  ///< verify.passes == 0 (warm session).
};

/// Fills the traced fields an in-process result exposes.
void read_result(const engine::SuiteResult& r, const JobTap::Times& t,
                 SuiteSample* s) {
  s->queue_wait_ms = ms_between(t.queued, t.started);
  s->run_ms = ms_between(t.started, t.finished);
  s->elaborate_ms = r.elaborate.ms;
  s->verify_ms = r.verify.ms;
  s->estimate_ms = r.estimate.ms;
  s->verify_skipped = r.verify.passes == 0;
  // A warm session replays the recorded PropertyResults, check_ms
  // included: that time was spent by an earlier request.
  if (!s->verify_skipped) {
    for (const engine::PropertyResult& p : r.properties) {
      s->check_ms += p.check_ms;
    }
  }
  for (const engine::SignalRow& row : r.signals) {
    s->coverage_ms += row.estimate_ms;
  }
  s->peak_live_nodes = static_cast<double>(
      std::max({r.elaborate.peak_live_nodes, r.verify.peak_live_nodes,
                r.estimate.peak_live_nodes}));
}

bool result_ok(const engine::SuiteResult& r) {
  return r.error.empty() && r.status == engine::ResultStatus::kOk;
}

/// One timed suite as the untraced run keeps it: small, so the benchmark's
/// own memory barely moves the peak RSS it reports.
struct Timing {
  float latency_ms = 0.0f;
  bool ok = true;
};

/// What one timed loop measured.
struct RunStats {
  std::vector<Timing> timings;
  std::vector<SuiteSample> samples;  ///< Traced runs only.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  double dispatch_ms = 0.0;    ///< Dispatcher thread inside push/drain.
  double parse_line_ms = 0.0;  ///< engine::parse_request_line.

  /// Server warm-cache counter deltas over the run (traced serve only).
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double cache_evictions = 0.0;

  double suites_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(timings.size()) / wall_s : 0.0;
  }

  /// Appends another run's suites and counters (the traced slices).
  void merge(const RunStats& other) {
    timings.insert(timings.end(), other.timings.begin(), other.timings.end());
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    attempted += other.attempted;
    failed += other.failed;
    wall_s += other.wall_s;
    cpu_ms += other.cpu_ms;
    dispatch_ms += other.dispatch_ms;
    parse_line_ms += other.parse_line_ms;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_evictions += other.cache_evictions;
  }

  void record(const SuiteSample& s, bool traced) {
    timings.push_back({static_cast<float>(s.latency_ms), s.ok});
    if (traced) samples.push_back(s);
    ++attempted;
    if (!s.ok) ++failed;
  }
};

/// A started workload path — executor, dispatcher or server plus its
/// clients — ready to take timed load.
class Rig {
 public:
  virtual ~Rig() = default;
  /// An untimed pass that fills caches and finishes lazy set-up, at the
  /// timed run's concurrency. False when a reply did not match its
  /// reference.
  virtual bool warm_up() = 0;
  /// Closed-loop load for `seconds`; every reply checked.
  virtual RunStats run(double seconds, bool corrupt) = 0;
};

/// One workload: its seeded inputs and the rig that serves them.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from the seed. Rigs from an earlier call must
  /// be gone: they may refer to the inputs.
  virtual void prepare() = 0;
  virtual std::unique_ptr<Rig> make_rig(bool traced) = 0;
  virtual std::uint64_t input_hash() const = 0;
  /// The suites the serial layer replay times.
  virtual std::vector<ReplaySuite> replay_suites() const = 0;
};

// ---------------------------------------------------------------------------
// corpus_batch
// ---------------------------------------------------------------------------

struct Corpus {
  std::string dir;  ///< With a trailing '/': the manifest's base dir.
  std::vector<std::string> manifest;
  std::vector<std::string> oracle;
  std::vector<std::string> sources;
  std::uint64_t hash = kFnvOffset;
};

Corpus make_corpus(const Options& o, std::uint64_t start, std::size_t count,
                   const std::string& dir) {
  run_gen(o, start, count, dir);
  Corpus c;
  c.dir = dir + "/";
  c.manifest = read_lines(c.dir + "manifest.ndjson");
  c.oracle = read_lines(c.dir + "oracle.ndjson");
  if (c.manifest.size() != count || c.oracle.size() != count) {
    throw std::runtime_error("covest_gen wrote a short corpus");
  }
  for (std::size_t i = 0; i < count; ++i) {
    const engine::CoverageRequest req =
        engine::request_from_json(c.manifest[i]);
    c.sources.push_back(read_file(c.dir + req.model_path));
    c.hash = fnv1a(c.hash, c.manifest[i]);
    c.hash = fnv1a(c.hash, c.sources.back());
    c.hash = fnv1a(c.hash, c.oracle[i]);
  }
  return c;
}

/// covest_batch's path over one executor: request lines in, result lines
/// out in input order, a window of 2 x workers in flight.
class CorpusRig : public Rig {
 public:
  CorpusRig(const Corpus& corpus, std::size_t warm_suites, bool traced)
      : corpus_(corpus),
        warm_suites_(warm_suites),
        traced_(traced),
        executor_(executor_options(traced_ ? &tap_ : nullptr)),
        dispatch_(executor_, 2 * executor_.worker_count(),
                  [this](const engine::SuiteResult& r) { on_result(r); }) {}

  bool warm_up() override {
    for (std::size_t i = 0; i < warm_suites_; ++i) {
      submit(i % corpus_.manifest.size());
    }
    dispatch_.drain();
    const bool ok = warm_failed_ == 0;
    warm_failed_ = 0;
    return ok;
  }

  RunStats run(double seconds, bool corrupt) override {
    stats_ = RunStats{};
    // Room for any run's timings up front: a vector that doubled while
    // the run is timed would move the peak RSS by whether the count
    // crossed a power of two. Reserved pages stay untouched until used.
    stats_.timings.reserve(std::size_t{1} << 22);
    timing_ = true;
    corrupt_ = corrupt;
    const double cpu0 = cpu_ms();
    const auto t_start = Clock::now();
    const auto deadline = after(t_start, seconds);
    for (std::size_t i = 0; Clock::now() < deadline; ++i) {
      submit(i % corpus_.manifest.size());
    }
    const double emitted_before = emit_ms_;
    const auto t_drain = Clock::now();
    dispatch_.drain();
    stats_.dispatch_ms +=
        ms_between(t_drain, Clock::now()) - (emit_ms_ - emitted_before);
    stats_.wall_s = ms_between(t_start, Clock::now()) / 1000.0;
    stats_.cpu_ms = cpu_ms() - cpu0;
    timing_ = false;
    return std::move(stats_);
  }

 private:
  void submit(std::size_t index) {
    const auto t0 = Clock::now();
    pending_.push_back({t0, index});
    engine::ParsedLine line = engine::parse_request_line(
        corpus_.manifest[index], defaults_, corpus_.dir, true);
    const auto t1 = Clock::now();
    const double emitted_before = emit_ms_;
    dispatch_.push(std::move(line));
    if (timing_) {
      stats_.parse_line_ms += ms_between(t0, t1);
      stats_.dispatch_ms +=
          ms_between(t1, Clock::now()) - (emit_ms_ - emitted_before);
    }
  }

  void on_result(const engine::SuiteResult& r) {
    const auto t0 = Clock::now();
    const Pending p = pending_.front();
    pending_.pop_front();
    std::string line = canonical(r);
    const auto t_line = Clock::now();
    if (corrupt_) {
      line[line.size() / 2] ^= 1;
      corrupt_ = false;
    }
    const bool ok = result_ok(r) && line == corpus_.oracle[p.index];
    const JobTap::Times times = traced_ ? tap_.take_next() : JobTap::Times{};
    if (timing_) {
      SuiteSample s;
      s.latency_ms = ms_between(p.submitted, t_line);
      s.ok = ok;
      if (traced_) {
        read_result(r, times, &s);
        s.to_json_ms = ms_between(t0, t_line);
      }
      stats_.record(s, traced_);
    } else if (!ok) {
      ++warm_failed_;
    }
    emit_ms_ += ms_between(t0, Clock::now());
  }

  struct Pending {
    Clock::time_point submitted;
    std::size_t index = 0;
  };

  const Corpus& corpus_;
  const std::size_t warm_suites_;
  const bool traced_;
  engine::RequestDefaults defaults_;  ///< covest_batch without flags.
  JobTap tap_;
  engine::Executor executor_;
  engine::NdjsonDispatcher dispatch_;
  std::deque<Pending> pending_;
  RunStats stats_;
  bool timing_ = false;
  bool corrupt_ = false;
  std::size_t warm_failed_ = 0;
  double emit_ms_ = 0.0;  ///< Time inside on_result, so push can subtract it.
};

/// First covest_gen seed of a workload seed's corpus: disjoint corpora
/// for different seeds.
std::uint64_t first_gen_seed(const Options& o) {
  return (o.seed % 1'000'000) * 4096;
}

class CorpusWorkload : public Workload {
 public:
  CorpusWorkload(const Options& o, std::string dir)
      : options_(o), dir_(std::move(dir)) {}

  void prepare() override {
    corpus_.emplace(make_corpus(options_, first_gen_seed(options_),
                                options_.smoke ? 24 : 1024, dir_));
  }
  std::unique_ptr<Rig> make_rig(bool traced) override {
    return std::make_unique<CorpusRig>(*corpus_, options_.smoke ? 8 : 64,
                                       traced);
  }
  std::uint64_t input_hash() const override { return corpus_->hash; }
  std::vector<ReplaySuite> replay_suites() const override {
    std::vector<ReplaySuite> suites;
    const std::size_t n = std::min<std::size_t>(
        corpus_->sources.size(), options_.smoke ? 8 : 128);
    for (std::size_t i = 0; i < n; ++i) {
      ReplaySuite s;
      s.source = corpus_->sources[i];
      s.signals = engine::request_from_json(corpus_->manifest[i]).signals;
      suites.push_back(std::move(s));
    }
    return suites;
  }

 private:
  const Options& options_;
  const std::string dir_;
  std::optional<Corpus> corpus_;
};

// ---------------------------------------------------------------------------
// ring_suite
// ---------------------------------------------------------------------------

engine::CoverageRequest ring_request() {
  circuits::TokenRingSpec spec;
  spec.cells = kRingCells;
  engine::CoverageRequest req;
  req.model = circuits::make_token_ring(spec);
  for (const ctl::Formula& f : circuits::ring_safety_properties(spec)) {
    req.properties.push_back(engine::PropertySpec::of(f));
  }
  req.signals = {"tok1", "tok2", "tok3", "tok4"};
  return req;
}

/// One suite in flight: submit, take, render, compare, repeat.
class RingRig : public Rig {
 public:
  RingRig(const engine::CoverageRequest& request, const std::string& reference,
          bool traced)
      : request_(request),
        reference_(reference),
        traced_(traced),
        executor_(executor_options(traced_ ? &tap_ : nullptr)) {}

  bool warm_up() override {
    bool ok = true;
    for (std::size_t i = 0; i < executor_.worker_count(); ++i) {
      ok = one(false).ok && ok;
    }
    return ok;
  }

  RunStats run(double seconds, bool corrupt) override {
    RunStats stats;
    const double cpu0 = cpu_ms();
    const auto t_start = Clock::now();
    const auto deadline = after(t_start, seconds);
    while (Clock::now() < deadline) {
      stats.record(one(corrupt), traced_);
      corrupt = false;
    }
    stats.wall_s = ms_between(t_start, Clock::now()) / 1000.0;
    stats.cpu_ms = cpu_ms() - cpu0;
    return stats;
  }

 private:
  SuiteSample one(bool corrupt) {
    engine::CoverageRequest request = request_;
    const auto t0 = Clock::now();
    const engine::SuiteResult r = executor_.submit(std::move(request)).take();
    const auto t1 = Clock::now();
    std::string line = canonical(r);
    const auto t_line = Clock::now();
    if (corrupt) line[line.size() / 2] ^= 1;
    SuiteSample s;
    s.latency_ms = ms_between(t0, t_line);
    s.ok = result_ok(r) && line == reference_;
    if (traced_) {
      read_result(r, tap_.take_next(), &s);
      s.to_json_ms = ms_between(t1, t_line);
    }
    return s;
  }

  const engine::CoverageRequest& request_;
  const std::string& reference_;
  const bool traced_;
  JobTap tap_;
  engine::Executor executor_;
};

class RingWorkload : public Workload {
 public:
  /// The reference does not come from the timed path: the one-shot
  /// facade under another image strategy, which must agree byte for
  /// byte. It is built once, before any timed set-up: it is the
  /// benchmark's check, not set-up a user of the suite pays.
  RingWorkload() {
    engine::CoverageRequest chaining = ring_request();
    chaining.options.image_strategy = image::ImageStrategy::kChaining;
    reference_ = canonical(engine::Engine().run(chaining));
  }

  void prepare() override {
    request_ = ring_request();
    hash_ = fnv1a(kFnvOffset, "token_ring cells=" + std::to_string(kRingCells));
    for (const engine::PropertySpec& p : request_.properties) {
      hash_ = fnv1a(hash_, ctl::to_string(p.formula));
    }
    for (const std::string& s : request_.signals) hash_ = fnv1a(hash_, s);
    hash_ = fnv1a(hash_, reference_);
  }
  std::unique_ptr<Rig> make_rig(bool traced) override {
    return std::make_unique<RingRig>(request_, reference_, traced);
  }
  std::uint64_t input_hash() const override { return hash_; }
  std::vector<ReplaySuite> replay_suites() const override {
    ReplaySuite s;
    s.model = *request_.model;
    for (const engine::PropertySpec& p : request_.properties) {
      s.properties.push_back(p.formula);
    }
    s.signals = request_.signals;
    return {s, s};
  }

 private:
  engine::CoverageRequest request_;
  std::string reference_;
  std::uint64_t hash_ = kFnvOffset;
};

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

/// Inline-source request lines and their expected reply lines.
struct ServeInputs {
  std::vector<std::string> hot_requests, hot_oracle;
  std::vector<std::string> cold_requests, cold_oracle;
  std::uint64_t hash = kFnvOffset;
};

/// The hot set is covest_gen seeds [0, 8) for every workload seed: its
/// eight models are a constant of the workload, like the ring, so the
/// spread between seeds measures the system rather than the draw of
/// eight models. The seed picks the 512 cold models and the request
/// order.
ServeInputs make_serve_inputs(const Options& o, const std::string& dir) {
  const Corpus hot = make_corpus(o, 0, kHotModels, dir + "/hot");
  const Corpus cold = make_corpus(o, first_gen_seed(o) + kHotModels,
                                  o.smoke ? 8 : 512, dir + "/cold");
  ServeInputs in;
  engine::JsonOptions compact;
  compact.pretty = false;
  for (const Corpus* c : {&hot, &cold}) {
    for (std::size_t i = 0; i < c->manifest.size(); ++i) {
      // A server client sends the model itself, not a path on its disk.
      engine::CoverageRequest req = engine::request_from_json(c->manifest[i]);
      req.model_path.clear();
      req.model_source = c->sources[i];
      const std::string line = engine::to_json(req, compact);
      (c == &hot ? in.hot_requests : in.cold_requests).push_back(line);
      (c == &hot ? in.hot_oracle : in.cold_oracle).push_back(c->oracle[i]);
      in.hash = fnv1a(fnv1a(in.hash, line), c->oracle[i]);
    }
  }
  return in;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

const engine::json::Value* field(const engine::json::Value& v,
                                 const std::string& key) {
  for (const auto& [k, value] : v.object) {
    if (k == key) return &value;
  }
  return nullptr;
}

double number_at(const engine::json::Value& v,
                 std::initializer_list<const char*> path) {
  const engine::json::Value* at = &v;
  for (const char* key : path) {
    at = field(*at, key);
    if (at == nullptr) return 0.0;
  }
  return at->number;
}

/// A stats-bearing reply (the traced server) with its stats removed:
/// the per-property `check_ms`, per-row `estimate_ms` and trailing
/// `stats` object. What remains must equal the stats-free reference.
std::string strip_stats(std::string reply) {
  for (const std::string key : {",\"check_ms\":", ",\"estimate_ms\":"}) {
    for (std::size_t at; (at = reply.find(key)) != std::string::npos;) {
      std::size_t end = at + key.size();
      while (end < reply.size() &&
             std::strchr("0123456789+-.eE", reply[end]) != nullptr) {
        ++end;
      }
      reply.erase(at, end - at);
    }
  }
  const std::size_t stats = reply.rfind(",\"stats\":");
  if (stats != std::string::npos) reply = reply.substr(0, stats) + "}\n";
  return reply;
}

/// Reads the traced fields a stats-bearing reply carries.
void read_reply_stats(const std::string& reply, SuiteSample* s) {
  const engine::json::Value v = engine::json::parse(reply);
  const engine::json::Value* stats = field(v, "stats");
  if (stats == nullptr) return;
  s->run_ms = number_at(*stats, {"total_ms"});
  s->elaborate_ms = number_at(*stats, {"elaborate", "ms"});
  s->verify_ms = number_at(*stats, {"verify", "ms"});
  s->estimate_ms = number_at(*stats, {"estimate", "ms"});
  s->verify_skipped = number_at(*stats, {"verify", "passes"}) == 0.0;
  s->peak_live_nodes =
      std::max({number_at(*stats, {"elaborate", "peak_live_nodes"}),
                number_at(*stats, {"verify", "peak_live_nodes"}),
                number_at(*stats, {"estimate", "peak_live_nodes"})});
  // As in read_result: a warm session's check_ms is replayed, not spent.
  if (const engine::json::Value* props = field(v, "properties");
      props != nullptr && !s->verify_skipped) {
    for (const engine::json::Value& p : props->array) {
      s->check_ms += number_at(p, {"check_ms"});
    }
  }
  if (const engine::json::Value* rows = field(v, "signals")) {
    for (const engine::json::Value& row : rows->array) {
      s->coverage_ms += number_at(row, {"estimate_ms"});
    }
  }
}

/// An in-process CovestServer plus its client connections, each with
/// one outstanding request at a time.
class ServeRig : public Rig {
 public:
  ServeRig(const ServeInputs& in, std::uint64_t seed, bool traced)
      : in_(in), seed_(seed), traced_(traced), server_(server_options()) {
    std::string error;
    if (!server_.start(&error)) {
      throw std::runtime_error("server start failed: " + error);
    }
    serving_ = std::thread([this] { server_.serve(); });
    for (std::size_t i = 0; i < kConnections; ++i) {
      conns_.push_back(Conn{connect_loopback(), {}});
    }
  }

  ~ServeRig() override {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    server_.request_shutdown();
    serving_.join();
  }

  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  /// Parks every hot model in the warm cache.
  bool warm_up() override {
    bool ok = true;
    for (std::size_t i = 0; i < in_.hot_requests.size(); ++i) {
      SuiteSample s;
      ok = ok && roundtrip(conns_[0], in_.hot_requests[i], in_.hot_oracle[i],
                           false, &s) &&
           s.ok;
    }
    return ok;
  }

  RunStats run(double seconds, bool corrupt) override {
    double counters0[3] = {0.0, 0.0, 0.0};
    if (traced_) cache_counters(counters0);

    std::atomic<std::size_t> next{0};
    std::vector<RunStats> per(conns_.size());
    const double cpu0 = cpu_ms();
    const auto t_start = Clock::now();
    const auto deadline = after(t_start, seconds);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      clients.emplace_back([&, c] {
        bool flip = corrupt && c == 0;
        while (Clock::now() < deadline) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          const bool cold = i % 10 == 9;
          const std::size_t pick =
              cold ? (i / 10) % in_.cold_requests.size()
                   : splitmix64(seed_ ^ (i * 0x9e3779b97f4a7c15ull)) %
                         in_.hot_requests.size();
          const std::string& req =
              cold ? in_.cold_requests[pick] : in_.hot_requests[pick];
          const std::string& ref =
              cold ? in_.cold_oracle[pick] : in_.hot_oracle[pick];
          SuiteSample s;
          const bool alive = roundtrip(conns_[c], req, ref, flip, &s);
          per[c].record(s, traced_);
          flip = false;
          if (!alive) break;
        }
      });
    }
    for (std::thread& t : clients) t.join();

    RunStats stats;
    stats.wall_s = ms_between(t_start, Clock::now()) / 1000.0;
    stats.cpu_ms = cpu_ms() - cpu0;
    for (const RunStats& p : per) stats.merge(p);
    if (traced_) {
      double counters1[3];
      cache_counters(counters1);
      stats.cache_hits = counters1[0] - counters0[0];
      stats.cache_misses = counters1[1] - counters0[1];
      stats.cache_evictions = counters1[2] - counters0[2];
    }
    return stats;
  }

 private:
  struct Conn {
    int fd = -1;
    std::string buffer;
  };

  server::ServerOptions server_options() const {
    server::ServerOptions options;
    options.jobs = kWorkers;
    // Traced replies carry the server's own timings (total_ms, phases).
    options.stats = traced_;
    return options;
  }

  int connect_loopback() const {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  static bool read_line(Conn& c, std::string* line) {
    for (;;) {
      const std::size_t nl = c.buffer.find('\n');
      if (nl != std::string::npos) {
        *line = c.buffer.substr(0, nl + 1);
        c.buffer.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      c.buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// One request/reply exchange. False when the connection died (the
  /// sample then counts as failed).
  bool roundtrip(Conn& c, const std::string& request, const std::string& ref,
                 bool corrupt, SuiteSample* s) {
    std::string reply;
    const auto t0 = Clock::now();
    const bool alive =
        c.fd >= 0 && send_all(c.fd, request) && read_line(c, &reply);
    s->latency_ms = ms_between(t0, Clock::now());
    if (corrupt && !reply.empty()) reply[reply.size() / 2] ^= 1;
    if (traced_ && alive) {
      try {
        read_reply_stats(reply, s);
      } catch (const std::exception&) {
        s->ok = false;  // Not even JSON.
      }
      reply = strip_stats(std::move(reply));
    }
    s->ok = s->ok && alive && reply == ref;
    return alive;
  }

  /// Warm-cache hits, misses and evictions from the `metrics` op.
  void cache_counters(double out[3]) {
    std::string reply;
    out[0] = out[1] = out[2] = 0.0;
    Conn& c = conns_[0];
    if (c.fd < 0 || !send_all(c.fd, "{\"op\":\"metrics\"}\n") ||
        !read_line(c, &reply)) {
      return;
    }
    const engine::json::Value v = engine::json::parse(reply);
    const engine::json::Value* metrics = field(v, "metrics");
    if (metrics == nullptr) return;
    out[0] = number_at(*metrics, {"cache", "hits"});
    out[1] = number_at(*metrics, {"cache", "misses"});
    out[2] = number_at(*metrics, {"cache", "evictions"});
  }

  const ServeInputs& in_;
  const std::uint64_t seed_;
  const bool traced_;
  server::CovestServer server_;
  std::thread serving_;
  std::vector<Conn> conns_;
};

class ServeWorkload : public Workload {
 public:
  ServeWorkload(const Options& o, std::string dir)
      : options_(o), dir_(std::move(dir)) {}

  void prepare() override { inputs_ = make_serve_inputs(options_, dir_); }
  std::unique_ptr<Rig> make_rig(bool traced) override {
    return std::make_unique<ServeRig>(inputs_, options_.seed, traced);
  }
  std::uint64_t input_hash() const override { return inputs_.hash; }
  std::vector<ReplaySuite> replay_suites() const override {
    std::vector<ReplaySuite> suites;
    const std::size_t cold = options_.smoke ? 2 : 8;
    for (std::size_t i = 0; i < kHotModels + cold; ++i) {
      const engine::CoverageRequest req = engine::request_from_json(
          i < kHotModels ? inputs_.hot_requests[i]
                         : inputs_.cold_requests[i - kHotModels]);
      ReplaySuite s;
      s.source = req.model_source;
      s.signals = req.signals;
      suites.push_back(std::move(s));
    }
    return suites;
  }

 private:
  const Options& options_;
  const std::string dir_;
  ServeInputs inputs_;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<Metric> end_to_end_metrics(const RunStats& st, double setup_s,
                                       double peak_rss) {
  std::vector<double> latency;
  for (const Timing& t : st.timings) {
    // A failed request misses every latency figure.
    latency.push_back(t.ok ? t.latency_ms
                           : std::numeric_limits<double>::infinity());
  }
  std::sort(latency.begin(), latency.end());
  const double suites = static_cast<double>(std::max<std::size_t>(
      st.timings.size(), 1));
  const double attempted =
      static_cast<double>(std::max<std::size_t>(st.attempted, 1));
  return {
      {"setup_s", setup_s, "s"},
      {"suites_per_s", st.suites_per_s(), "1/s"},
      {"latency_p50_ms", percentile(latency, 0.50), "ms"},
      {"latency_p90_ms", percentile(latency, 0.90), "ms"},
      {"cpu_ms_per_suite", st.cpu_ms / suites, "ms"},
      {"peak_rss_mb", peak_rss, "MB"},
      // failed_share, inverted so the reading is never 0.
      {"ok_share", 1.0 - static_cast<double>(st.failed) / attempted, "share"},
  };
}

/// Mean of one field over the traced samples.
double mean_of(const std::vector<SuiteSample>& samples,
               double SuiteSample::*field) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const SuiteSample& s : samples) sum += s.*field;
  return sum / static_cast<double>(samples.size());
}

std::vector<Metric> per_layer_metrics(const std::string& workload,
                                      const RunStats& traced,
                                      double overhead_share,
                                      const ReplayTotals& replay) {
  const std::vector<SuiteSample>& s = traced.samples;
  const double n = static_cast<double>(std::max<std::size_t>(s.size(), 1));
  const double r = static_cast<double>(std::max<std::size_t>(replay.suites, 1));
  const bool served = workload == "serve_mixed";
  const double requests = traced.cache_hits + traced.cache_misses;
  const double run_ms = mean_of(s, &SuiteSample::run_ms);
  double skipped = 0.0;
  for (const SuiteSample& x : s) skipped += x.verify_skipped ? 1.0 : 0.0;
  return {
      {"model.parse_ms", replay.parse_ms / r, "ms"},
      {"fsm.elaborate_ms", mean_of(s, &SuiteSample::elaborate_ms), "ms"},
      {"ndjson.dispatch_ms", traced.dispatch_ms / n, "ms"},
      {"engine.unattributed_ms",
       run_ms - mean_of(s, &SuiteSample::elaborate_ms) -
           mean_of(s, &SuiteSample::verify_ms) -
           mean_of(s, &SuiteSample::estimate_ms),
       "ms"},
      {"executor.queue_wait_ms", mean_of(s, &SuiteSample::queue_wait_ms), "ms"},
      {"executor.busy_share",
       traced.wall_s > 0.0
           ? run_ms * static_cast<double>(s.size()) /
                 (1000.0 * traced.wall_s * static_cast<double>(kWorkers))
           : 0.0,
       "share"},
      {"image.reachable_ms", replay.reachable_ms / r, "ms"},
      {"image.reachable_steps", replay.reachable_steps / r, "count"},
      {"ctl.check_ms", mean_of(s, &SuiteSample::check_ms), "ms"},
      {"core.coverage_ms", mean_of(s, &SuiteSample::coverage_ms), "ms"},
      {"bdd.nodes_created", replay.nodes_created / r, "count"},
      {"bdd.unique_lookups", replay.unique_lookups / r, "count"},
      {"bdd.cache_hit_rate",
       replay.cache_lookups > 0.0 ? replay.cache_hits / replay.cache_lookups
                                  : 0.0,
       "share"},
      {"bdd.peak_live_nodes", mean_of(s, &SuiteSample::peak_live_nodes),
       "count"},
      {"session_cache.hit_rate",
       requests > 0.0 ? traced.cache_hits / requests : 0.0, "share"},
      {"session_cache.evictions",
       requests > 0.0 ? traced.cache_evictions / requests : 0.0, "1/req"},
      {"engine.verify_skipped_share", skipped / n, "share"},
      {"server.reply_delay_ms",
       served ? mean_of(s, &SuiteSample::latency_ms) - run_ms : 0.0, "ms"},
      {"trace.overhead_share", overhead_share, "share"},
  };
}

/// The traced run's span tree, mean ms per suite. Spans come from the
/// benchmark's own clock around each call, JobEvent timestamps and the
/// PhaseStats/check/estimate times the engine reports.
Span timeline_tree(const std::string& workload, const RunStats& t) {
  const auto mean = [&t](double SuiteSample::*field) {
    return mean_of(t.samples, field);
  };
  const auto phases = [&] {
    Span verify{"ctl.verify (phase)", mean(&SuiteSample::verify_ms),
                {{"ctl.check", mean(&SuiteSample::check_ms), {}}}};
    Span estimate{"core.estimate (phase)", mean(&SuiteSample::estimate_ms),
                  {{"core.coverage", mean(&SuiteSample::coverage_ms), {}}}};
    return std::vector<Span>{
        {"fsm.elaborate (phase)", mean(&SuiteSample::elaborate_ms), {}},
        verify, estimate};
  };
  Span root{"suite.latency", mean(&SuiteSample::latency_ms), {}};
  if (workload == "serve_mixed") {
    // Behind the socket only the server's own total is visible; the
    // root's remainder is server.reply_delay_ms.
    root.children.push_back(
        {"server.total_ms", mean(&SuiteSample::run_ms), phases()});
    return root;
  }
  if (workload == "corpus_batch") {
    const double n =
        static_cast<double>(std::max<std::size_t>(t.samples.size(), 1));
    root.children.push_back(
        {"ndjson.parse_request_line", t.parse_line_ms / n, {}});
  }
  root.children.push_back(
      {"executor.queue_wait", mean(&SuiteSample::queue_wait_ms), {}});
  root.children.push_back({"executor.run", mean(&SuiteSample::run_ms), phases()});
  root.children.push_back({"engine.to_json", mean(&SuiteSample::to_json_ms), {}});
  return root;
}

Span replay_tree(const ReplayTotals& r) {
  const double n = static_cast<double>(std::max<std::size_t>(r.suites, 1));
  return {"replay.suite",
          r.total_ms / n,
          {{"model.parse_model_source", r.parse_ms / n, {}},
           {"fsm.SymbolicFsm", r.fsm_ms / n, {}},
           {"ctl.ModelChecker::check", r.check_ms / n, {}},
           {"image.reachable", r.reachable_ms / n, {}},
           {"image.forward_rings", r.rings_ms / n, {}},
           {"core.CoverageEstimator::coverage", r.coverage_ms / n, {}}}};
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : (v < 0 ? -1e300 : 0.0);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void print_run(const Options& o, const Workload& w, const RunStats& st) {
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(w.input_hash()));
  std::printf(
      "{\"run\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"build_type\": \"%s\", \"inputs_fnv1a64\": \"%s\", "
      "\"samples\": %zu, \"attempted\": %zu, \"failed\": %zu, "
      "\"failed_share\": %s}}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      json_number(o.seconds).c_str(), o.trace ? 1 : 0, COVEST_BENCH_BUILD_TYPE,
      hash, st.timings.size(), st.attempted, st.failed,
      json_number(st.attempted > 0 ? static_cast<double>(st.failed) /
                                         static_cast<double>(st.attempted)
                                   : 0.0)
          .c_str());
}

int drive(const Options& o, Workload& w) {
  bool warm_ok = true;
  if (!o.trace) {
    // One set-up and one timed run per process; run.py repeats the
    // process and reports the median of each figure.
    const auto t0 = Clock::now();
    w.prepare();
    std::unique_ptr<Rig> rig = w.make_rig(false);
    warm_ok = rig->warm_up();
    const double setup_s = ms_between(t0, Clock::now()) / 1000.0;
    reset_peak_rss();
    const RunStats st = rig->run(o.seconds, o.corrupt);
    const double peak_rss = peak_rss_mb();
    rig.reset();
    print_run(o, w, st);
    print_result(warm_ok && st.failed == 0 && !st.timings.empty(),
                 st.attempted, st.failed,
                 end_to_end_metrics(st, setup_s, peak_rss));
    return 0;
  }

  // Traced run: the same load on an untraced and a traced rig in
  // alternating slices of about a second, so that drift in the machine's
  // speed falls on both alike; the throughput ratio of the two is the
  // tracing overhead.
  w.prepare();
  const std::unique_ptr<Rig> plain_rig = w.make_rig(false);
  const std::unique_ptr<Rig> traced_rig = w.make_rig(true);
  warm_ok = plain_rig->warm_up() && warm_ok;
  warm_ok = traced_rig->warm_up() && warm_ok;
  const int pairs = std::max(1, static_cast<int>(std::lround(o.seconds / 2)));
  const double slice_s = o.seconds / (2.0 * pairs);
  std::vector<double> plain_rate;
  std::vector<double> traced_rate;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  RunStats traced;
  for (int i = 0; i < pairs; ++i) {
    // Which rig goes first alternates too, so an effect of running
    // first or second in a pair cancels.
    RunStats plain;
    RunStats slice;
    if (i % 2 == 1) plain = plain_rig->run(slice_s, false);
    slice = traced_rig->run(slice_s, o.corrupt && i == 0);
    if (i % 2 == 0) plain = plain_rig->run(slice_s, false);
    plain_rate.push_back(plain.suites_per_s());
    traced_rate.push_back(slice.suites_per_s());
    attempted += plain.attempted + slice.attempted;
    failed += plain.failed + slice.failed;
    traced.merge(slice);
  }
  const double overhead =
      median(plain_rate) > 0.0 ? 1.0 - median(traced_rate) / median(plain_rate)
                               : 0.0;
  ReplayTotals replay;
  for (const ReplaySuite& s : w.replay_suites()) {
    covest_bench::replay_suite(s, &replay);
  }
  print_run(o, w, traced);
  print_attribution(o.workload + " (traced run)",
                    timeline_tree(o.workload, traced));
  print_attribution(
      o.workload + " (serial layer replay, " + std::to_string(replay.suites) +
          " suites)",
      replay_tree(replay));
  print_result(warm_ok && failed == 0 && !traced.timings.empty(), attempted,
               failed, per_layer_metrics(o.workload, traced, overhead, replay));
  return 0;
}

void usage(std::FILE* to) {
  std::fprintf(to,
      "usage: covest_bench --workload corpus_batch|ring_suite|serve_mixed\n"
      "                    --seed N --seconds S --trace 0|1\n"
      "                    --gen COVEST_GEN --work DIR [--smoke] [--corrupt]\n"
      "\n"
      "Runs one workload closed loop for S seconds and prints its metrics;\n"
      "the last line is one JSON object. Use run.py, which builds this\n"
      "program and records the environment.\n");
}

/// Removes the run's input directory however the run ends.
struct DirGuard {
  std::string path;
  ~DirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--gen") {
      o.gen = value();
    } else if (arg == "--work") {
      o.work = value();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--corrupt") {
      o.corrupt = true;
    } else if (arg == "--help") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (o.gen.empty() || o.work.empty() || !(o.seconds > 0.0)) {
    usage(stderr);
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "error: covest_bench was built without NDEBUG (build type "
               "'%s'); it measures Release builds only\n",
               COVEST_BENCH_BUILD_TYPE);
  return 2;
#endif
  if (std::string(COVEST_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "error: build type '%s' is not Release\n",
                 COVEST_BENCH_BUILD_TYPE);
    return 2;
  }

  const DirGuard inputs{o.work + "/" + o.workload + "-" +
                        std::to_string(::getpid())};
  try {
    std::unique_ptr<Workload> w;
    if (o.workload == "corpus_batch") {
      w = std::make_unique<CorpusWorkload>(o, inputs.path);
    } else if (o.workload == "ring_suite") {
      w = std::make_unique<RingWorkload>();
    } else if (o.workload == "serve_mixed") {
      w = std::make_unique<ServeWorkload>(o, inputs.path);
    } else {
      std::fprintf(stderr, "error: unknown workload '%s'\n",
                   o.workload.c_str());
      return 2;
    }
    return drive(o, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
