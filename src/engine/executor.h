// Asynchronous multi-worker execution of coverage suites — the batch
// layer on top of the engine facade.
//
// The paper's workflow is many suites × many observed signals; this is
// the subsystem that serves it at scale. An `Executor` owns a pool of
// `std::thread` workers; each job builds its BDD state *locally*: one
// `BddManager`/FSM/`Session` constructed on the worker thread. Between
// jobs there is no shared mutable symbolic state — only the job queue
// and result slots are synchronized. Every job is one task on one
// worker, and each BDD manager is used by one thread at a time (bdd.h):
// a warm session leased from the cache is rebound to its new worker.
//
// Hand-off: a submit wakes one idle worker, and every result comes back
// *detached* — each row's `covered` handle is stripped and `retain` is
// empty, so a result is plain data that any thread may read or drop.
// The worker tears the job's session down itself, after publishing the
// result. Library callers that compose with `covered` sets use
// `Engine::run`, which runs the same pipeline inline and keeps the
// session alive in `retain`.
//
//   engine::Executor ex(engine::ExecutorOptions{4});
//   engine::JobHandle a = ex.submit(request_a);
//   engine::JobHandle b = ex.submit(request_b);
//   engine::SuiteResult ra = a.take();   // blocks; detached result
//
// Deterministic ordering: `run_all` returns one result per request in
// submit order regardless of which worker finishes first, and every row
// of every result is bit-identical to the serial `Engine::run` path.
//
// Errors: nothing a job does throws out of a worker. Model/CTL parse
// errors, unknown signals and missing model sources all surface as
// `SuiteResult::error` on that job's result.
//
// Cancellation: `JobHandle::cancel` latches the job's run governor, so
// a running job stops at its next governor tick — inside a fixpoint
// too — with its completed prefix and `ResultStatus::kCancelled`.
//
// Events: the executor-wide tap (`ExecutorOptions::on_event`) sees each
// job's lifecycle: queued, started, finished. Event callbacks run on
// worker threads (kQueued on the submitting thread); the callee
// synchronizes.
//
// Readiness: the `on_ready` callback given to `submit` is the one a
// consumer can block on. It fires once per job *after* the result
// became takeable, whereas kFinished fires *before* — a reader woken by
// kFinished could probe `done()`, see false, and sleep past the result.
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

namespace covest {
class RunGovernor;
}  // namespace covest

namespace covest::engine {

namespace detail {
struct JobState;

/// One job's pipeline on the calling thread: resolve and validate the
/// suite, lease or parse-and-elaborate a session, `Session::run`. The
/// executor's workers and `Engine::run` both run it. `governor` is
/// installed for the whole job, so parse and elaborate stop on it too;
/// the request's model, if in memory, is moved out. With a `cache`, a
/// model given as text leases its session from it and parks it again
/// before returning, and the result comes back detached; otherwise a
/// session that ran moves into `session_out` and the rows' `covered`
/// handles point into it. Never throws: defects come back as
/// `SuiteResult::error`, stops as a status.
SuiteResult run_job(CoverageRequest& request, covest::RunGovernor& governor,
                    SessionCache* cache,
                    std::shared_ptr<Session>& session_out);
}  // namespace detail

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One lifecycle event of a job.
struct JobEvent {
  enum class Kind {
    kQueued,    ///< Accepted by `submit` (fires on the submitting thread).
    kStarted,   ///< A worker began elaborating the job.
    kFinished,  ///< Run over; `status` summarizes it. Fires just *before*
                ///< the result is takeable (on_ready fires after).
  };
  std::uint64_t job = 0;  ///< Monotonic per-executor job id (submit order).
  Kind kind = Kind::kQueued;
  /// kFinished: the job's structured status.
  ResultStatus status = ResultStatus::kOk;
};

/// Called from worker threads (kQueued: from the submitting thread).
/// Fire-and-forget: exceptions thrown by the callback are swallowed —
/// an event tap can neither fail a job nor kill a worker.
using JobEventFn = std::function<void(const JobEvent&)>;

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

  /// Requests cancellation: a queued job finishes without running, and
  /// a running job stops at its next governor tick — a phase boundary, a
  /// property or row, or a fixpoint iteration — returning its completed
  /// prefix. Either way the status is `kCancelled`. A no-op once the job
  /// has finished or been stopped by its deadline.
  void cancel() const;

  /// Blocks, then moves the result out (valid once per job). The result
  /// is detached: its rows' `covered` handles are invalid, `retain` is
  /// empty, and it stays readable after the executor is destroyed.
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
  /// Event tap: every job's kQueued, kStarted and kFinished.
  JobEventFn on_event;
  /// Bounded admission: when nonzero, `submit` refuses to grow the job
  /// queue past this many queued jobs. 0 =
  /// unbounded, the pre-governance behavior.
  std::size_t max_queue_depth = 0;
  /// Full-queue policy; only consulted when `max_queue_depth != 0`.
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Warm model cache (session_cache.h), shared across jobs: a job whose
  /// model comes as text (`model_source` or `model_path`) leases a
  /// parked session keyed by the source bytes + elaboration options
  /// instead of re-parsing/elaborating — and, when
  /// the suite matches the session's verified-suite record, skips
  /// verification too. The session is parked again before the result
  /// is published, so a client's next request can lease it. Results
  /// are detached either way (see `JobHandle::take`). nullptr (the
  /// default) elaborates a session per job.
  std::shared_ptr<SessionCache> session_cache;
};

/// The worker pool. Destruction drains: it waits for every submitted
/// job to finish (cancel each job's handle first for a fast shutdown).
class Executor {
 public:
  explicit Executor(ExecutorOptions options = {});
  explicit Executor(std::size_t workers);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  std::size_t worker_count() const { return threads_.size(); }

  /// Jobs currently queued (not yet picked up by a worker) — the
  /// server's queue-depth metric. A racy snapshot by nature.
  std::size_t queue_depth() const;

  /// Enqueues one suite job as one task. Never throws for request
  /// defects — they come back as `SuiteResult::error` on the handle.
  ///
  /// `on_ready` (optional) is the completion notification: called
  /// exactly once, after the kFinished event and after the result
  /// became takeable — `done()` is already true and `take()` will not
  /// block. It runs on the worker that finished the job, or on the
  /// submitting thread for a job refused at admission, and outside the
  /// job's lock, so `take()` may return while it is still running:
  /// anything it touches must not die with the consumer (the worker
  /// holds the callable until it returns). Exceptions are swallowed.
  ///
  /// Governance: a request's `deadline_ms` clock starts here, at
  /// submission — time spent waiting in the queue counts against the
  /// deadline, as a server's would. With a bounded queue
  /// (`ExecutorOptions::max_queue_depth`) a full queue either blocks
  /// this call (kBlock) or finishes the job immediately with
  /// `ResultStatus::kAdmissionRejected` (kReject).
  JobHandle submit(CoverageRequest request,
                   std::function<void()> on_ready = {});

  /// Convenience barrier: submits every request, waits, and returns the
  /// results in request order.
  std::vector<SuiteResult> run_all(std::vector<CoverageRequest> requests);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::vector<std::thread> threads_;

  void worker_loop();
};

}  // namespace covest::engine
