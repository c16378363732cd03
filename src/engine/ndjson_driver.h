// Shared NDJSON framing and dispatch for the batch and server drivers.
//
// Both front-ends speak the same wire contract — one JSON
// `CoverageRequest` per input line, one compact JSON `SuiteResult` per
// output line, *in input order* — and both pace submission with a
// bounded window over one `engine::Executor` so that a huge input
// stream bounds resident memory by the worker count, not the stream
// length. This header is that contract, factored out of
// `examples/covest_batch.cpp` so `covest_serve` cannot drift from it:
//
//   engine::NdjsonDispatcher dispatch(executor, 2 * workers, emit);
//   while (std::getline(in, line)) {
//     if (engine::ndjson_trimmed(line).empty()) continue;
//     dispatch.push(engine::parse_request_line(line, defaults, "", false));
//   }
//   dispatch.drain();
//   return dispatch.exit_code();
//
// Line grammar (see covest_batch --help): a line starting with `{` is a
// full JSON request (request_json.h schema); in manifest mode a bare
// line is a `.cov` model path resolved against the manifest directory.
// Input defects never abort the stream — a malformed line becomes a
// result line with `summary.error`, keeping the one-in/one-out pairing.
//
// A dispatcher is single-consumer: one thread pushes lines and receives
// `emit` callbacks (the batch main loop, or one server connection's
// reader thread). Many dispatchers may share one executor — that is the
// server's concurrency model. An event loop polls `ready_fd()` next to
// its input and calls `flush_ready()` when either wakes, so a reply
// leaves the moment its job (and every job before it) is done.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "engine/executor.h"
#include "image/image.h"

namespace covest::engine {

// ---------------------------------------------------------------------------
// Line helpers
// ---------------------------------------------------------------------------

/// `line` with ASCII whitespace stripped from both ends.
std::string ndjson_trimmed(const std::string& line);

/// Manifest comment/blank test: blank, `#`, or `--` lines are skipped.
/// (Stdin/socket streams skip only blank lines — comment-looking
/// garbage must produce an error line, not silently shift the
/// one-output-per-input pairing.)
bool ndjson_comment_or_blank(const std::string& line);

/// Directory prefix of `path` including the trailing '/', empty when
/// `path` has no '/'. Relative model paths resolve against this.
std::string ndjson_dirname(const std::string& path);

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

/// Driver-level knobs applied to every parsed request line — the
/// `--shards/--deadline-ms/--max-nodes/--table-mode/--image-strategy/
/// --parallel-apply` flags both binaries accept.
struct RequestDefaults {
  std::size_t shards = 0;       ///< 0 = leave the request's own value.
  std::size_t deadline_ms = 0;  ///< 0 = leave the request's own value.
  std::size_t max_nodes = 0;    ///< 0 = leave the request's own value.
  /// In-operation parallel-apply workers; 0 = leave the request's value.
  std::size_t parallel_apply = 0;
  std::optional<bdd::TableMode> table_mode;  ///< Unset = per-request value.
  /// Unset = per-request value.
  std::optional<image::ImageStrategy> image_strategy;
  bool want_traces = false;  ///< Applied to bare model-path lines only.
  /// How a set flag meets a request that also sets the field: the batch
  /// driver's flags win (true — a CLI override for the whole batch);
  /// the server's flags are defaults and a request's own nonzero value
  /// wins (false).
  bool flags_override = true;
};

/// One parsed input line: a request, or the input defect that replaced
/// it (never submitted; emitted as an error result line).
struct ParsedLine {
  CoverageRequest request;
  std::string input_error;
};

/// Parses one non-blank input line into a job. `base_dir` resolves
/// relative model paths — bare path lines and JSON `model_path` fields
/// alike (empty resolves against the process cwd). `allow_paths` is the
/// manifest dialect; NDJSON streams (stdin, sockets) require JSON.
ParsedLine parse_request_line(const std::string& raw,
                              const RequestDefaults& defaults,
                              const std::string& base_dir, bool allow_paths);

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// The bounded-window submit/emit loop. `push` submits a line's request
/// (or records its input error) and, once more than `window` lines are
/// in flight, blocks on the *oldest* one and emits its result — so
/// results stream strictly in input order while up to `window` jobs
/// overlap, and a finished-but-unprinted job (whose covered-set handles
/// pin BDD node pools) never waits behind more than `window` peers.
class NdjsonDispatcher {
 public:
  using EmitFn = std::function<void(const SuiteResult&)>;

  /// `window` is clamped to at least 1. `emit` is called on the pushing
  /// thread, once per pushed line, in push order.
  NdjsonDispatcher(Executor& executor, std::size_t window, EmitFn emit);
  ~NdjsonDispatcher();

  NdjsonDispatcher(const NdjsonDispatcher&) = delete;
  NdjsonDispatcher& operator=(const NdjsonDispatcher&) = delete;

  /// Submits one parsed line; may emit one (older) result.
  void push(ParsedLine line);

  /// Emits every already-finished result at the front of the line,
  /// without blocking. The batch driver never needs this (EOF ends the
  /// stream, then `drain` flushes), but a long-lived socket does: a
  /// client that keeps the connection open while waiting for replies
  /// would otherwise see nothing until `window` more lines arrive. The
  /// server's reader calls it whenever `ready_fd()` or its socket wakes
  /// it. It consumes the `ready_fd()` signal *before* probing, so a job
  /// finishing mid-flush re-arms the fd instead of being missed. Returns
  /// the number of lines emitted.
  std::size_t flush_ready();

  /// Readiness signal for event loops: a nonblocking eventfd that turns
  /// readable whenever one of this dispatcher's jobs has finished since
  /// the last `flush_ready()` (written from `JobHooks::on_ready`, i.e.
  /// only once the result is takeable). The first call creates it, and
  /// only jobs pushed after that call signal it, so an event loop calls
  /// this before its first `push`; a dispatcher that never calls it (the
  /// batch driver) costs its jobs no system call. Input-error lines never
  /// signal — they are ready at `push`; flush after pushing. -1 when the
  /// eventfd could not be created (descriptor exhaustion). Owned here;
  /// do not close it.
  int ready_fd();

  /// Emits every in-flight result, blocking until the last worker
  /// finishes. push/drain may be interleaved freely.
  void drain();

  /// Like `drain`, but bounded: waits up to `per_job` for each
  /// in-flight result (`JobHandle::wait_for`). Returns false — with the
  /// remaining jobs still in flight — as soon as one result fails to
  /// arrive in time; the caller decides between another grace period
  /// and abandoning the drain (the server's SIGTERM path).
  bool drain_for(std::chrono::milliseconds per_job);

  /// Aggregated exit code of everything emitted so far, the shared
  /// 0/1/3 contract: 3 = some job was stopped by a resource limit
  /// (trumps 1), 1 = some error or property failure, else 0.
  int exit_code() const;

 private:
  struct Pending {
    JobHandle handle;          ///< Invalid when `input_error` is set.
    std::string input_error;
  };

  struct ReadySignal;

  void emit_front();

  Executor& executor_;
  const std::size_t window_;
  EmitFn emit_;
  /// Null until `ready_fd()` is first called. Shared with every job's
  /// `on_ready` hook: a worker may still be writing to the eventfd after
  /// `take()` returned here, so the descriptor closes only once the last
  /// hook has let go — never under a write, and never while its number
  /// could be reused by another connection's socket.
  std::shared_ptr<const ReadySignal> ready_;
  std::deque<Pending> pending_;
  bool any_error_ = false;
  bool any_failure_ = false;
  bool any_limited_ = false;
};

}  // namespace covest::engine
