// Asynchronous multi-worker execution of coverage suites — the batch
// layer on top of the engine facade.
//
// The paper's workflow is many suites × many observed signals; this is
// the subsystem that serves it at scale. An `Executor` owns a pool of
// `std::thread` workers; each job builds its BDD state *locally*: one
// `BddManager`/FSM/`Session` constructed on the worker thread. Between
// jobs there is no shared mutable symbolic state — only the job queue
// and result slots are synchronized. *Within* a sharded job, the
// session's manager enters bdd.h shared mode for the estimation phase
// (below).
//
//   engine::Executor ex(engine::ExecutorOptions{4});
//   engine::JobHandle a = ex.submit(request_a);
//   engine::JobHandle b = ex.submit(request_b);
//   engine::SuiteResult ra = a.take();   // blocks; rebinds managers
//
// Deterministic ordering: `run_all` returns one result per request in
// submit order regardless of which worker finishes first, and every row
// of every result is bit-identical to the serial `Engine::run` path.
//
// Signal sharding: a request with `shards = K > 1` under the default
// `ShardMode::kSharedManager` stays ONE job on ONE worker — the model
// is parsed, elaborated and verified exactly once — and only the
// per-signal estimation rows fan out across `effective_shards`
// estimator threads sharing that session's BddManager. The legacy
// `ShardMode::kReplicated` instead splits the rows across up to K
// independent tasks that each re-verify on their own manager (kept as
// the benchmark baseline; `BENCH_engine.json` records both). Either
// way, chunks concatenate back in request order and completed runs are
// bit-identical to serial; a *cancelled* sharded run keeps each chunk's
// prefix, so the partial row list may have interior gaps (row order is
// still request order) — unlike the serial path, whose partial result
// is always one prefix. `SuiteResult` phase stats expose the
// difference: `verify.passes` is 1 for a shared-manager run and the
// number of elaborated shards for a replicated one.
//
// Errors: nothing a job does throws out of a worker. Model/CTL parse
// errors, unknown signals and missing model sources all surface as
// `SuiteResult::error` on that job's result.
//
// Events: per-job streaming events (queued / started / verifying /
// estimating / row-done / finished) are a superset of the facade's
// `RunHooks` progress ticks. Event callbacks run on worker threads
// (kQueued on the submitting thread); the callee synchronizes.
//
// Readiness: `JobHooks::on_ready` is the one callback a consumer can
// block on. It fires once per job *after* the result became takeable,
// whereas kFinished fires *before* — a reader woken by kFinished could
// probe `done()`, see false, and sleep past the result.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/session_cache.h"

namespace covest::engine {

namespace detail {
struct JobState;
}  // namespace detail

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One streaming event in a job's lifecycle. `kVerifying`, `kEstimating`
/// and `kRowDone` carry the underlying `Progress` tick.
struct JobEvent {
  enum class Kind {
    kQueued,      ///< Accepted by `submit` (fires on the submitting thread).
    kStarted,     ///< A worker began elaborating the job's first shard.
    kVerifying,   ///< One property checked (`progress` has index/total/ok).
    kEstimating,  ///< Verification done, coverage estimation begins.
    kRowDone,     ///< One signal row estimated (`progress` has percent).
    kFinished,    ///< Run over; `cancelled`/`error` summarize it. Fires
                  ///< just *before* the result is takeable (on_ready
                  ///< fires after).
  };
  std::uint64_t job = 0;  ///< Monotonic per-executor job id (submit order).
  Kind kind = Kind::kQueued;
  std::size_t shard = 0;   ///< Shard (estimator chunk) that produced it.
  std::size_t shards = 1;  ///< Effective shards of this job (kQueued may
                           ///< still report 1: rows aren't resolved yet).
  Progress progress;       ///< Valid for kVerifying/kEstimating/kRowDone.
  bool cancelled = false;  ///< kFinished: the job was cancelled.
  std::string error;       ///< kFinished: the job's structured error.
  /// kFinished: the job's structured status (deadline/budget/admission
  /// outcomes included — `cancelled`/`error` above only mirror two of
  /// the six statuses).
  ResultStatus status = ResultStatus::kOk;
};

/// Called from worker threads (kQueued: from the submitting thread).
/// Fire-and-forget: exceptions thrown by the callback are swallowed —
/// an event tap can neither fail a job nor kill a worker.
using JobEventFn = std::function<void(const JobEvent&)>;

/// Per-job callbacks. `on_progress` follows the facade contract
/// (RunHooks): it receives shard 0's ticks in serial order and may
/// cancel the whole job by returning false. `on_event` receives every
/// shard's events.
struct JobHooks {
  ProgressFn on_progress;
  JobEventFn on_event;
  /// Completion notification: called exactly once per job, after the
  /// kFinished event and after the result became takeable — `done()` is
  /// already true and `take()` will not block. Runs on the worker that
  /// finished the job, or on the submitting thread for a job refused at
  /// admission. It runs outside the job's lock, so `take()` may return
  /// while the hook is still running: anything it touches must not die
  /// with the consumer (the worker holds the callable until it
  /// returns). Exceptions are swallowed, as for `on_event`.
  std::function<void()> on_ready;
};

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// Future-like handle to a submitted job. Copyable; all copies refer to
/// the same job. The result can be taken exactly once.
class JobHandle {
 public:
  JobHandle() = default;

  /// True when the handle refers to a job (default-constructed ones don't).
  bool valid() const { return state_ != nullptr; }
  std::uint64_t id() const;

  /// True once the result is ready (non-blocking).
  bool done() const;

  /// Blocks until the result is ready.
  void wait() const;

  /// Blocks up to `timeout` for the result. Returns true when the
  /// result became ready in time (false for empty handles too).
  bool wait_for(std::chrono::milliseconds timeout) const;

  /// Requests cancellation: a queued job finishes immediately with
  /// `cancelled` set; a running job stops after its current item and
  /// returns the partial result (the facade's cancellation semantics).
  void cancel() const;

  /// Blocks, then moves the result out (valid once per job). The BDD
  /// managers behind the result's live `covered` handles are rebound to
  /// the calling thread, so library callers may keep composing with them.
  SuiteResult take() const;

 private:
  friend class Executor;
  explicit JobHandle(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::JobState> state_;
};

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// What `submit` does when a bounded task queue is full.
enum class AdmissionPolicy {
  /// Block the submitting thread until the queue has room — natural
  /// backpressure for producer loops. The default.
  kBlock,
  /// Refuse the job immediately: it finishes with
  /// `ResultStatus::kAdmissionRejected`, never reaches a worker, and
  /// its event stream is a single kFinished.
  kReject,
};

struct ExecutorOptions {
  /// Worker threads; 0 means one per hardware thread.
  std::size_t workers = 1;
  /// Executor-wide event tap, called in addition to each job's own
  /// `JobHooks::on_event`.
  JobEventFn on_event;
  /// Bounded admission: when nonzero, `submit` refuses to grow the task
  /// queue past this many queued tasks (replicated shards count
  /// individually). 0 = unbounded, the pre-governance behavior.
  std::size_t max_queue_depth = 0;
  /// Full-queue policy; only consulted when `max_queue_depth != 0`.
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Warm model cache (session_cache.h), shared across jobs: a
  /// non-replicated job whose model comes as text (`model_source` or
  /// `model_path`) leases a parked session keyed by the source bytes +
  /// elaboration options instead of re-parsing/elaborating — and, when
  /// the suite matches the session's verified-suite record, skips
  /// verification too. Leased jobs return *detached* results: the live
  /// `covered` BDD handles are stripped before the session is parked
  /// (they would otherwise race the next lease), so library callers
  /// that compose with covered sets should not enable the cache.
  /// nullptr (the default) preserves the session-per-job behavior.
  std::shared_ptr<SessionCache> session_cache;
};

/// The worker pool. Destruction drains: it waits for every submitted
/// job to finish (call `cancel_all` first for a fast shutdown).
class Executor {
 public:
  explicit Executor(ExecutorOptions options = {});
  explicit Executor(std::size_t workers);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  std::size_t worker_count() const { return threads_.size(); }

  /// Tasks currently queued (not yet picked up by a worker) — the
  /// server's queue-depth metric. A racy snapshot by nature.
  std::size_t queue_depth() const;

  /// Enqueues one suite job. A sharded request under the default
  /// shared-manager mode stays one task (its session spawns the
  /// estimator threads); replicated sharding enqueues its shards,
  /// clamped to the worker count. Never throws for request defects —
  /// they come back as `SuiteResult::error` on the handle.
  ///
  /// Governance: a request's `deadline_ms` clock starts here, at
  /// submission — time spent waiting in the queue counts against the
  /// deadline, as a server's would. With a bounded queue
  /// (`ExecutorOptions::max_queue_depth`) a full queue either blocks
  /// this call (kBlock) or finishes the job immediately with
  /// `ResultStatus::kAdmissionRejected` (kReject).
  JobHandle submit(CoverageRequest request, JobHooks hooks = {});

  /// Convenience barrier: submits every request, waits, and returns the
  /// results in request order.
  std::vector<SuiteResult> run_all(std::vector<CoverageRequest> requests);

  /// Drain-all cancellation: cancels every job that has not finished
  /// (queued jobs complete as cancelled without running). Returns the
  /// number of jobs the cancellation reached.
  std::size_t cancel_all();

  /// Stop-the-world maintenance window: stops handing queued tasks to
  /// workers, waits for every in-flight task to finish, then runs a
  /// full exclusive GC (and, when `sift` is set, a variable reorder —
  /// which changes witness/trace bytes, so byte-stable servers keep it
  /// off) over every session parked in the warm cache, and resumes.
  /// Queued jobs are not lost — they run as soon as the window closes;
  /// submitters block for the duration. No-op counters when the
  /// executor has no session cache. One caller at a time.
  MaintenanceStats maintenance(bool sift = false);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::vector<std::thread> threads_;

  void worker_loop();
};

}  // namespace covest::engine
