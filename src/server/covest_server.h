// covest_serve's engine room — a long-lived TCP front-end for the
// NDJSON coverage contract (engine/ndjson_driver.h).
//
// One `CovestServer` owns one `engine::Executor` (with an optional warm
// `engine::SessionCache`) and serves any number of concurrent client
// connections. Each accepted connection gets a reader thread running
// the same bounded-window `NdjsonDispatcher` loop as `covest_batch`:
// newline-delimited JSON `CoverageRequest`s in, one compact JSON
// `SuiteResult` line per request out, in per-connection submit order —
// byte-identical to what `covest_batch` prints for the same stream.
// The reader sleeps in `poll` without a timeout until its client sends,
// a job of its connection finishes (the dispatcher's `ready_fd`), or
// shutdown is requested; a result line leaves as soon as its job and
// every earlier job on the connection are done.
//
// Beyond suite requests, a line of the form
//
//   {"op": "metrics"}
//
// returns one JSON metrics line *immediately* (it bypasses the result
// queue — the point is to observe a busy server): uptime, suites/sec,
// per-status result counts, executor queue depth, connection counts and
// warm-cache occupancy (hits/misses/insertions/evictions/discards and
// parked live nodes).
//
// Robustness contract: an input defect never drops the connection. A
// malformed JSON line produces a single `summary.error` result line in
// order; a line exceeding `max_line_bytes` produces a single
// `admission_rejected` status line and the stream resynchronizes at the
// next newline; a connection over `max_connections` is answered with
// one `admission_rejected` line and closed. Client disconnects mid-suite
// cancel that connection's in-flight jobs; workers never throw.
//
// Lifecycle: `start` binds and listens; `serve` runs the accept loop on
// the calling thread until `request_shutdown` (async-signal-safe — the
// SIGINT/SIGTERM handlers call it). Shutdown rejects new connections,
// stops reading from live ones, drains in-flight jobs
// (`JobHandle::wait_for` with a per-job grace; expired drains cancel),
// flushes their result lines, and `serve` returns. `exit_code` then
// reports the batch-compatible verdict over everything served:
// 0 = every suite ran and passed, 1 = some error or property failure,
// 3 = some job was stopped by a resource limit (wins over 1).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "engine/ndjson_driver.h"

namespace covest::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port; read the bound one via `port()`.
  std::uint16_t port = 0;
  /// Executor workers (0 = one per hardware thread).
  std::size_t jobs = 1;
  /// Bounded executor admission: a full queue finishes the job
  /// immediately with `admission_rejected` (never blocks a reader
  /// thread). 0 = unbounded.
  std::size_t max_queue = 0;
  /// Per-request defaults (`--deadline-ms`, `--max-nodes`, ...). Server
  /// flags are *defaults*: a request's own nonzero field wins
  /// (`flags_override` is forced to false).
  engine::RequestDefaults defaults;
  /// Warm model cache capacity in parked sessions; 0 disables the cache
  /// (every request re-parses and re-elaborates).
  std::size_t cache_sessions = 8;
  /// Concurrent-connection cap; 0 = unbounded (satellite: bounded
  /// admission at the connection level).
  std::size_t max_connections = 0;
  /// Per-connection request-line length cap in bytes.
  std::size_t max_line_bytes = 1 << 20;
  /// Shutdown drain: per-job grace before in-flight work is cancelled.
  std::uint64_t drain_ms = 30'000;
  /// Include timing/BDD stats in result lines (off keeps the wire
  /// deterministic — the covest_batch diff contract).
  bool stats = false;
  /// Maintenance window cadence: after every `gc_interval` completed
  /// suite results, a background thread takes the executor's
  /// stop-the-world window (drain in-flight jobs, full GC on every
  /// parked session, resume) so the warm cache's managers stop
  /// accumulating garbage forever. 0 disables maintenance.
  std::uint64_t gc_interval = 0;
  /// Also sift-reorder parked sessions during maintenance. Off by
  /// default: sifting changes the variable order and with it
  /// witness/trace bytes, breaking the byte-identical warm-replay
  /// contract.
  bool gc_sift = false;
};

class CovestServer {
 public:
  explicit CovestServer(ServerOptions options);
  ~CovestServer();

  CovestServer(const CovestServer&) = delete;
  CovestServer& operator=(const CovestServer&) = delete;

  /// Binds and listens. False (with `*error` filled) on socket errors;
  /// the executor and cache are only spun up on success.
  bool start(std::string* error);

  /// The bound port (valid after `start`).
  std::uint16_t port() const;

  /// Accept loop; returns after `request_shutdown` once every
  /// connection has drained. Call from one thread only.
  void serve();

  /// Async-signal-safe shutdown trigger (atomic store + self-pipe
  /// write); safe to call from any thread or signal handler, more than
  /// once.
  void request_shutdown() noexcept;

  /// Batch-compatible verdict over everything served (see file
  /// comment). Stable once `serve` returned.
  int exit_code() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace covest::server
