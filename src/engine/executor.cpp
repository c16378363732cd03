#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>

#include "core/observed.h"
#include "ctl/ctl_parser.h"
#include "engine/session_cache.h"
#include "model/model_parser.h"
#include "util/governance.h"
#include "util/time.h"

namespace covest::engine {

namespace detail {

/// Shared state of one submitted job. Workers fill `shard_results`; the
/// last shard to finish merges them into `result` and flips `ready`.
struct JobState {
  std::uint64_t id = 0;
  CoverageRequest request;
  JobHooks hooks;
  JobEventFn executor_event;  ///< Executor-wide tap (may be empty).
  /// Executor-owned warm model cache; nullptr when disabled. Outlives
  /// every job (the executor destructor drains before Impl dies).
  SessionCache* cache = nullptr;

  /// Executor tasks for this job: 1 for serial and shared-manager
  /// sharded jobs (the session fans estimation threads out itself),
  /// the clamped shard count for replicated sharding.
  std::size_t shard_count = 1;
  /// Shard count reported on events: the effective estimator-thread
  /// count for shared-manager jobs (set by the worker once the signal
  /// rows are resolved, before any estimation event fires), else
  /// `shard_count`.
  std::size_t event_shards = 1;
  /// The job-wide deadline clock, started at submission so queue time
  /// counts; all of the job's tasks (and, through the thread-local
  /// scope, every estimator thread they spawn) tick against it.
  std::shared_ptr<covest::RunGovernor> governor;
  std::atomic<bool> cancel{false};
  /// A shard hit an error: sibling shards abort early — their rows
  /// would be dropped anyway, because an errored job reports error-only
  /// exactly like the serial path. Distinct from `cancel` so the merged
  /// result does not masquerade as user-cancelled.
  std::atomic<bool> failed{false};
  std::atomic<bool> started{false};

  mutable std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  bool taken = false;
  std::size_t shards_done = 0;
  std::vector<SuiteResult> shard_results;
  /// One session per shard that actually elaborated; keeps every manager
  /// behind the merged result's `covered` handles alive, and is the list
  /// `take()` rebinds to the consuming thread.
  std::vector<std::shared_ptr<Session>> sessions;
  SuiteResult result;

  /// Events are a fire-and-forget tap: a throwing callback must not
  /// kill a worker thread (std::terminate) or fail the job, so
  /// exceptions are swallowed here — the documented contract.
  void emit(JobEvent event) const {
    event.job = id;
    event.shards = event_shards;
    if (hooks.on_event) {
      try {
        hooks.on_event(event);
      } catch (...) {
      }
    }
    if (executor_event) {
      try {
        executor_event(event);
      } catch (...) {
      }
    }
  }

  /// Flips `ready`, wakes blocked takers, then fires `on_ready` — the
  /// one exit every job leaves through. The hook is moved out under the
  /// lock, so it fires once; the local copy keeps its captures alive
  /// until it returns, even if the consumer has taken the result and
  /// dropped the handle meanwhile.
  void publish() {
    std::function<void()> on_ready;
    {
      std::lock_guard<std::mutex> lock(mu);
      ready = true;
      on_ready = std::move(hooks.on_ready);
    }
    cv.notify_all();
    if (on_ready) {
      try {
        on_ready();
      } catch (...) {
      }
    }
  }
};

}  // namespace detail

namespace {

using detail::JobState;
using util::Clock;
using util::ms_since;

/// Fail-fast request validation, run on the worker before any BDD work:
/// every property must parse and every requested signal must exist.
/// Throws std::runtime_error with a per-job message; the worker turns it
/// into `SuiteResult::error`.
void validate_request(const CoverageRequest& request, const model::Model& m,
                      const std::vector<std::string>& signal_names) {
  for (const PropertySpec& s : resolve_suite(request, m)) {
    if (s.formula.valid()) continue;
    try {
      ctl::parse_ctl(s.ctl_text);
    } catch (const std::exception& e) {
      throw std::runtime_error("property '" + s.ctl_text +
                               "': " + e.what());
    }
  }
  for (const std::string& name : signal_names) {
    core::observe_all_bits(m, name);  // Throws for unknown signals.
  }
}

/// Returns a leased (or leasable, freshly elaborated) session to the
/// warm cache on every exit path of `run_shard`. Destruction happens on
/// the worker thread, which owns the manager and is therefore the only
/// thread allowed to measure `live_node_count` — the occupancy figure
/// recorded with the parked entry.
struct LeaseReturn {
  SessionCache* cache = nullptr;
  SessionKey key;
  std::shared_ptr<Session>* session = nullptr;
  ~LeaseReturn() {
    if (cache == nullptr || session == nullptr || *session == nullptr) {
      return;
    }
    const std::size_t live = (*session)->fsm().mgr().live_node_count();
    cache->release(key, std::move(*session), live);
  }
};

/// The contiguous chunk of `names` owned by `shard` of `shards`
/// (replicated mode only; the shared-manager path chunks row indices
/// through the same engine::shard_chunk_range).
std::vector<std::string> shard_chunk(const std::vector<std::string>& names,
                                     std::size_t shard, std::size_t shards) {
  const auto [first, last] = shard_chunk_range(names.size(), shard, shards);
  return {names.begin() + first, names.begin() + last};
}

/// Runs one task of one job on the calling (worker) thread.
///
/// For a serial or shared-manager job this is the job's only task: the
/// session is built ONCE, verification runs ONCE, and (for shards > 1)
/// `Session::run` fans the estimation rows out across estimator threads
/// over the session's shared BDD manager. For a replicated sharded job
/// (ShardMode::kReplicated) each task builds its own session and
/// re-verifies, exactly as before PR 4 — the benchmark baseline.
///
/// Everything symbolic — manager, FSM, session — is owned by this job;
/// only the JobState slots are shared with other workers. Never throws.
SuiteResult run_shard(JobState& job, std::size_t shard) {
  const auto t0 = Clock::now();
  SuiteResult result;

  if (job.cancel.load(std::memory_order_relaxed) ||
      job.failed.load(std::memory_order_relaxed)) {
    result.cancelled = true;
    result.status = ResultStatus::kCancelled;
    return result;
  }

  if (!job.started.exchange(true)) {
    JobEvent started;
    started.kind = JobEvent::Kind::kStarted;
    started.shard = shard;
    job.emit(started);
  }

  // Install the job's deadline governor for everything below: the
  // session adopts it instead of creating its own, so parse and
  // elaborate (which run before Session::run) are governed too.
  covest::RunGovernor::Scope governor_scope(job.governor.get());
  const char* stage = "parse";
  try {
    // Replicated sharding splits the *signals* across independent tasks
    // (each re-verifies on its own manager); the shared-manager path
    // hands the whole row list to one session and lets it fan the rows
    // out across estimator threads. Gate on the requested MODE, not the
    // clamped task count: a replicated request on a 1-worker executor
    // collapses to one serial task — it must not silently fall through
    // to the shared-manager fan-out it opted out of.
    const bool replicated =
        job.request.shard_mode == ShardMode::kReplicated;

    // Warm model cache: lease a parked session keyed by the raw source
    // bytes + elaboration options instead of re-parsing/elaborating.
    // Replicated jobs bypass it (re-elaboration is that mode's point),
    // as do in-memory models (no stable bytes to key on).
    std::shared_ptr<Session> session;
    std::optional<model::Model> parsed;
    SessionKey cache_key;
    const bool leasable = job.cache != nullptr && !replicated &&
                          !job.request.model.has_value();
    if (leasable) {
      std::string source;
      if (!job.request.model_source.empty()) {
        source = job.request.model_source;
      } else if (!job.request.model_path.empty()) {
        source = model::read_model_file(job.request.model_path);
      } else {
        throw std::runtime_error(
            "CoverageRequest: set `model`, `model_source` or `model_path` "
            "as the model source");
      }
      cache_key = SessionCache::key_of(source, job.request.options,
                                       job.request.max_live_nodes);
      session = job.cache->acquire(cache_key);
      if (!session) {
        // Parse the very bytes that were hashed: a file edited between
        // read and parse cannot poison the key.
        parsed = job.request.model_source.empty()
                     ? model::parse_model_source(source,
                                                 job.request.model_path)
                     : model::parse_model(source);
      }
    } else {
      parsed = Engine::load_model(job.request);
    }
    const bool cache_hit = session != nullptr;
    // Whatever exit path runs below, a leasable session goes back to
    // the cache; only the non-cached path parks it on the job instead.
    LeaseReturn lease{job.cache, cache_key, leasable ? &session : nullptr};

    const model::Model& m = cache_hit ? session->model() : *parsed;
    const std::vector<std::string> names =
        resolve_signal_names(job.request, m);
    job.governor->tick();  // Parse-phase deadline boundary.

    CoverageRequest shard_request = job.request;
    if (replicated) {
      shard_request.signals = job.shard_count > 1
                                  ? shard_chunk(names, shard, job.shard_count)
                                  : names;
      shard_request.shards = 1;  // Each replica estimates serially.
    } else {
      shard_request.signals = names;
      job.event_shards = std::max<std::size_t>(
          1, effective_shards(job.request.shards, names.size()));
    }
    // A trailing shard of a small suite may own no rows; the suite's
    // verification outcome comes from shard 0, so there is nothing to do.
    if (shard != 0 && shard_request.signals.empty()) return result;

    // Fail-fast validation runs once, on the shard that carries the
    // suite-level result; a defect any shard would hit (bad CTL, unknown
    // signal) surfaces as shard 0's — and thus the job's — error.
    if (shard == 0) validate_request(job.request, m, names);

    stage = "elaborate";
    if (!session) {
      session = std::make_shared<Session>(m, job.request.options,
                                          job.request.max_live_nodes);
    }
    const double elaborate_ms = ms_since(t0);
    job.governor->tick();  // Elaborate-phase deadline boundary.

    // The facade's elaborate tick (shard 0 carries the serial progress
    // contract; other shards only report through events).
    if (shard == 0 && job.hooks.on_progress) {
      Progress p;
      p.phase = Progress::Phase::kElaborate;
      p.index = p.total = 1;
      p.item = session->model().name();
      if (!job.hooks.on_progress(p)) {
        job.cancel.store(true, std::memory_order_relaxed);
        result.model_name = session->model().name();
        result.state_bits = session->model().state_bit_count();
        result.cancelled = true;
        result.status = ResultStatus::kCancelled;
        result.elaborate.ms = elaborate_ms;
        result.total_ms = ms_since(t0);
        return result;
      }
    }

    RunHooks session_hooks;
    // Touched by the worker (verify ticks) and, in a sharded run, the
    // session's estimator threads (row callbacks) — hence atomic.
    std::atomic<bool> estimating{false};
    const std::size_t row_count = shard_request.signals.size();
    const bool sharded_rows = !replicated && job.event_shards > 1;
    const auto emit_estimating = [&job, shard, &estimating, row_count] {
      if (estimating.exchange(true)) return;
      JobEvent ev;
      ev.kind = JobEvent::Kind::kEstimating;
      ev.shard = shard;
      ev.progress.phase = Progress::Phase::kEstimate;
      ev.progress.total = row_count;  ///< This task's rows.
      job.emit(ev);
    };
    session_hooks.on_progress = [&job, shard, &estimating, &emit_estimating,
                                 sharded_rows](const Progress& p) {
      if (p.phase == Progress::Phase::kVerify ||
          p.phase == Progress::Phase::kEstimate) {
        // Estimation begins when the last property has been verified
        // (the zero-property fallback fires before the first row tick).
        if (p.phase == Progress::Phase::kEstimate &&
            !estimating.load(std::memory_order_relaxed)) {
          emit_estimating();
        }
        // Sharded rows report through on_shard_row below (which sees
        // every chunk); emitting chunk 0's ticks here too would
        // double-count them.
        if (!(sharded_rows && p.phase == Progress::Phase::kEstimate)) {
          JobEvent ev;
          ev.kind = p.phase == Progress::Phase::kVerify
                        ? JobEvent::Kind::kVerifying
                        : JobEvent::Kind::kRowDone;
          ev.shard = shard;
          ev.progress = p;
          job.emit(ev);
        }
        if (p.phase == Progress::Phase::kVerify && p.index == p.total &&
            !estimating.load(std::memory_order_relaxed)) {
          emit_estimating();
        }
      }
      bool keep_going = true;
      if (shard == 0 && job.hooks.on_progress) {
        keep_going = job.hooks.on_progress(p);
        if (!keep_going) job.cancel.store(true, std::memory_order_relaxed);
      }
      return keep_going && !job.cancel.load(std::memory_order_relaxed) &&
             !job.failed.load(std::memory_order_relaxed);
    };
    if (sharded_rows) {
      session_hooks.on_shard_row = [&job, &emit_estimating](
                                       std::size_t chunk, const Progress& p) {
        emit_estimating();
        JobEvent ev;
        ev.kind = JobEvent::Kind::kRowDone;
        ev.shard = chunk;
        ev.progress = p;
        job.emit(ev);
        return !job.cancel.load(std::memory_order_relaxed) &&
               !job.failed.load(std::memory_order_relaxed);
      };
    }

    result = session->run(shard_request, session_hooks);
    result.elaborate.ms = elaborate_ms;
    // Parse + elaborate never ran on a hit — the warm half of the
    // contract `covest_serve_test` asserts (`verify.passes == 0` is the
    // session's verified-suite half).
    if (cache_hit) result.elaborate.passes = 0;
    result.total_ms = ms_since(t0);

    if (leasable) {
      // Parked sessions are re-leased by arbitrary workers: no live
      // handle may escape this result to a consumer thread, where its
      // destruction would race the next lease. Rows stay exact — only
      // the composable `covered` handle is dropped (the cache-enabled
      // contract documented on ExecutorOptions::session_cache).
      for (SignalRow& row : result.signals) row.covered = bdd::Bdd();
    } else {
      std::lock_guard<std::mutex> lock(job.mu);
      job.sessions.push_back(std::move(session));
    }
  } catch (const covest::DeadlineExceeded& e) {
    // Expired before Session::run could convert it (parse/elaborate
    // boundaries above; inside the run the session returns the status
    // as data). A structured status, not an error — so no `failed`
    // fail-fast: replicated siblings share the job governor and expire
    // at their own next tick.
    result = SuiteResult{};
    result.status = ResultStatus::kDeadlineExceeded;
    result.status_detail = std::string(stage) + ": " + e.what();
    result.total_ms = ms_since(t0);
  } catch (const covest::ResourceExhausted& e) {
    result = SuiteResult{};
    result.status = ResultStatus::kResourceExhausted;
    result.status_detail = std::string(stage) + ": " + e.what();
    result.elaborate.live_nodes = e.live_nodes();
    result.elaborate.node_budget = e.budget();
    result.total_ms = ms_since(t0);
  } catch (const std::exception& e) {
    result.error = e.what();
    result.status = ResultStatus::kError;
    result.total_ms = ms_since(t0);
    job.failed.store(true, std::memory_order_relaxed);
  } catch (...) {
    result.error = "unknown error in coverage worker";
    result.status = ResultStatus::kError;
    result.total_ms = ms_since(t0);
    job.failed.store(true, std::memory_order_relaxed);
  }
  return result;
}

/// Merges the per-shard results (called under job.mu once every shard is
/// done). Shard 0 carries the suite-level fields; rows concatenate in
/// shard order, which is request order by construction.
SuiteResult merge_shards(JobState& job) {
  SuiteResult merged = std::move(job.shard_results[0]);
  for (std::size_t s = 1; s < job.shard_results.size(); ++s) {
    SuiteResult& r = job.shard_results[s];
    for (SignalRow& row : r.signals) merged.signals.push_back(std::move(row));
    if (merged.error.empty() && !r.error.empty()) merged.error = r.error;
    merged.cancelled = merged.cancelled || r.cancelled;
    // First non-ok status wins (shard order == request order), matching
    // the sharded error rule below and the in-session "first shard's
    // defect wins" rule.
    if (merged.status == ResultStatus::kOk &&
        r.status != ResultStatus::kOk) {
      merged.status = r.status;
      merged.status_detail = std::move(r.status_detail);
    }
    merged.total_ms = std::max(merged.total_ms, r.total_ms);
    // Report the CPU actually spent: every replicated shard elaborates
    // and re-verifies the whole suite, so phase times — and the `passes`
    // counters, the observable "verification ran K times" record — sum
    // across shards (node counts stay shard 0's; pools are per-manager
    // and do not add up meaningfully). Shared-manager jobs never get
    // here with more than one result: their single session verified
    // once and reports passes == 1.
    merged.elaborate.ms += r.elaborate.ms;
    merged.verify.ms += r.verify.ms;
    merged.estimate.ms += r.estimate.ms;
    merged.elaborate.passes += r.elaborate.passes;
    merged.verify.passes += r.verify.passes;
    merged.estimate.passes += r.estimate.passes;
  }
  if (!merged.error.empty()) {
    // Error-only, exactly like the serial path (which fails before
    // producing any rows): partial rows from sibling shards that
    // finished before the error propagated are dropped, and the abort
    // of those siblings must not read as a user cancellation.
    SuiteResult error_only;
    error_only.error = std::move(merged.error);
    error_only.status = ResultStatus::kError;
    error_only.total_ms = merged.total_ms;
    return error_only;
  }
  // One retain for all shard managers: the merged rows' covered handles
  // span several managers, each owned by one of these sessions.
  merged.retain =
      std::make_shared<std::vector<std::shared_ptr<Session>>>(job.sessions);
  return merged;
}

}  // namespace

// ---------------------------------------------------------------------------
// JobHandle
// ---------------------------------------------------------------------------

std::uint64_t JobHandle::id() const { return state_ ? state_->id : 0; }

bool JobHandle::done() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->ready;
}

void JobHandle::wait() const {
  if (!state_) return;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->ready; });
}

bool JobHandle::wait_for(std::chrono::milliseconds timeout) const {
  if (!state_) return false;
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, timeout,
                             [this] { return state_->ready; });
}

void JobHandle::cancel() const {
  if (state_) state_->cancel.store(true, std::memory_order_relaxed);
}

SuiteResult JobHandle::take() const {
  if (!state_) throw std::runtime_error("JobHandle::take on an empty handle");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->ready; });
  if (state_->taken) {
    throw std::runtime_error("JobHandle::take: result already taken");
  }
  state_->taken = true;
  // Hand the symbolic state over to the consuming thread: the workers
  // are done with these managers, and the caller may keep composing with
  // the result's covered-set handles.
  for (const std::shared_ptr<Session>& s : state_->sessions) {
    s->fsm().mgr().rebind_to_current_thread();
  }
  SuiteResult result = std::move(state_->result);
  // Session lifetime now rides on the result's `retain` alone: a live
  // JobHandle must not pin a finished job's BDD managers, or a batch
  // that holds its handles keeps every node pool resident at once.
  state_->sessions.clear();
  state_->shard_results.clear();
  return result;
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

struct Executor::Impl {
  struct Task {
    std::shared_ptr<JobState> job;
    std::size_t shard = 0;
  };

  std::mutex mu;
  std::condition_variable cv;
  /// Signalled by workers when they pop a task; blocked (kBlock-policy)
  /// submitters wait on it for queue room.
  std::condition_variable space_cv;
  std::deque<Task> queue;
  bool stopping = false;
  /// Maintenance window: while set, workers stop popping tasks; the
  /// maintainer waits on `idle_cv` for `active_tasks` to hit zero and
  /// then owns every parked session (no leases are in flight).
  bool maintenance = false;
  std::size_t active_tasks = 0;
  std::condition_variable idle_cv;
  /// Immutable after construction (read without `mu`).
  std::size_t max_queue_depth = 0;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  std::uint64_t next_job_id = 1;
  /// Every live submitted job (weak: dead once taken and dropped);
  /// cancel_all walks it, submit prunes expired entries amortized.
  std::vector<std::weak_ptr<JobState>> jobs;
  std::size_t next_prune = 64;
  JobEventFn on_event;
  /// Warm model cache; nullptr when disabled. Held here so it outlives
  /// every job (the destructor drains workers before Impl dies).
  std::shared_ptr<SessionCache> session_cache;
};

Executor::Executor(ExecutorOptions options) : impl_(new Impl) {
  impl_->on_event = std::move(options.on_event);
  impl_->max_queue_depth = options.max_queue_depth;
  impl_->admission = options.admission;
  impl_->session_cache = std::move(options.session_cache);
  std::size_t n = options.workers;
  if (n == 0) {
    n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

Executor::Executor(std::size_t workers)
    : Executor([workers] {
        ExecutorOptions options;
        options.workers = workers;
        return options;
      }()) {}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Executor::worker_loop() {
  for (;;) {
    Impl::Task task;
    {
      std::unique_lock<std::mutex> lock(impl_->mu);
      impl_->cv.wait(lock, [this] {
        return impl_->stopping ||
               (!impl_->queue.empty() && !impl_->maintenance);
      });
      // Drain semantics: accepted work still runs during shutdown.
      if (impl_->queue.empty()) return;
      task = std::move(impl_->queue.front());
      impl_->queue.pop_front();
      ++impl_->active_tasks;
    }
    impl_->space_cv.notify_all();  // A bounded queue just gained room.

    JobState& job = *task.job;
    SuiteResult shard_result = run_shard(job, task.shard);
    {
      // The lease (if any) was returned inside run_shard; a waiting
      // maintenance window may proceed once the last task lands here.
      std::lock_guard<std::mutex> lock(impl_->mu);
      --impl_->active_tasks;
    }
    impl_->idle_cv.notify_all();

    bool finished = false;
    {
      std::lock_guard<std::mutex> lock(job.mu);
      job.shard_results[task.shard] = std::move(shard_result);
      if (++job.shards_done == job.shard_count) {
        job.result = merge_shards(job);
        finished = true;
      }
    }
    if (finished) {
      // kFinished fires before the result becomes takeable, so the
      // event stream is complete once a waiter unblocks.
      JobEvent ev;
      ev.kind = JobEvent::Kind::kFinished;
      ev.cancelled = job.result.cancelled;
      ev.error = job.result.error;
      ev.status = job.result.status;
      job.emit(ev);
      job.publish();
    }
  }
}

JobHandle Executor::submit(CoverageRequest request, JobHooks hooks) {
  auto state = std::make_shared<JobState>();
  state->request = std::move(request);
  state->hooks = std::move(hooks);
  state->executor_event = impl_->on_event;
  state->cache = impl_->session_cache.get();
  // A shared-manager sharded job is ONE task: the session spawns its own
  // estimator threads after verifying once (`effective_shards` bounds
  // them by the row count, so an absurd request cannot spawn unbounded
  // threads). Replicated sharding still multiplies tasks and is clamped
  // to the pool width — extra replicas could not run concurrently and
  // would only multiply the re-verification cost.
  state->shard_count =
      state->request.shard_mode == ShardMode::kReplicated
          ? std::clamp<std::size_t>(state->request.shards, 1, threads_.size())
          : 1;
  state->event_shards = state->shard_count;
  state->shard_results.resize(state->shard_count);
  // The deadline clock starts now: queue wait counts, as a server's
  // admission-to-response budget would.
  state->governor =
      std::make_shared<covest::RunGovernor>(state->request.deadline_ms);

  const bool injected_reject = covest::FaultInjector::should_fail(
      covest::FaultInjector::Site::kAdmission);
  bool reject = injected_reject;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    state->id = impl_->next_job_id++;
    // Amortized registry pruning: dead jobs (taken and dropped) leave
    // expired weak_ptrs behind; a long-lived executor must not grow.
    if (impl_->jobs.size() >= impl_->next_prune) {
      std::erase_if(impl_->jobs,
                    [](const std::weak_ptr<JobState>& w) { return w.expired(); });
      impl_->next_prune = std::max<std::size_t>(64, impl_->jobs.size() * 2);
    }
    impl_->jobs.push_back(state);
    if (!reject && impl_->max_queue_depth != 0 &&
        impl_->admission == AdmissionPolicy::kReject &&
        impl_->queue.size() + state->shard_count > impl_->max_queue_depth) {
      reject = true;
    }
  }
  if (reject) {
    // Refused at admission: the job never reaches a worker, so its
    // event stream is a single kFinished (kQueued would be a lie — the
    // rejected-job stream shape is documented on AdmissionPolicy).
    state->result.status = ResultStatus::kAdmissionRejected;
    state->result.status_detail =
        injected_reject
            ? "admission rejected (fault injection)"
            : "executor queue full (max_queue_depth=" +
                  std::to_string(impl_->max_queue_depth) + ")";
    JobEvent finished;
    finished.kind = JobEvent::Kind::kFinished;
    finished.status = state->result.status;
    state->emit(finished);
    state->publish();
    return JobHandle(state);
  }
  // kQueued fires before the tasks become visible to workers, so a
  // job's event stream always starts with it.
  JobEvent queued;
  queued.kind = JobEvent::Kind::kQueued;
  state->emit(queued);
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    if (impl_->max_queue_depth != 0 &&
        impl_->admission == AdmissionPolicy::kBlock) {
      // Backpressure: hold the submitter until the queue has room. An
      // empty queue always admits (a job wider than the whole bound
      // must not deadlock), and shutdown releases the wait — accepted
      // work still runs under the destructor's drain semantics.
      impl_->space_cv.wait(lock, [this, &state] {
        return impl_->stopping || impl_->queue.empty() ||
               impl_->queue.size() + state->shard_count <=
                   impl_->max_queue_depth;
      });
    }
    for (std::size_t s = 0; s < state->shard_count; ++s) {
      impl_->queue.push_back(Impl::Task{state, s});
    }
  }
  impl_->cv.notify_all();
  return JobHandle(state);
}

std::size_t Executor::queue_depth() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->queue.size();
}

std::vector<SuiteResult> Executor::run_all(
    std::vector<CoverageRequest> requests) {
  std::vector<JobHandle> handles;
  handles.reserve(requests.size());
  for (CoverageRequest& r : requests) handles.push_back(submit(std::move(r)));
  std::vector<SuiteResult> results;
  results.reserve(handles.size());
  for (const JobHandle& h : handles) results.push_back(h.take());
  return results;
}

std::size_t Executor::cancel_all() {
  std::vector<std::weak_ptr<JobState>> jobs;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    jobs = impl_->jobs;
  }
  std::size_t reached = 0;
  for (const std::weak_ptr<JobState>& w : jobs) {
    if (const std::shared_ptr<JobState> job = w.lock()) {
      std::unique_lock<std::mutex> lock(job->mu);
      if (!job->ready) {
        job->cancel.store(true, std::memory_order_relaxed);
        ++reached;
      }
    }
  }
  return reached;
}

MaintenanceStats Executor::maintenance(bool sift) {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->maintenance = true;
  // Drain: workers stop popping once the flag is up; wait for the tasks
  // already in flight to return their leases.
  impl_->idle_cv.wait(lock, [this] { return impl_->active_tasks == 0; });
  MaintenanceStats stats;
  if (impl_->session_cache) {
    // Holding `mu` for the pass is the point: submitters and workers
    // stay parked, so every cached session is reachable and quiescent.
    stats = impl_->session_cache->maintain(sift);
  }
  impl_->maintenance = false;
  lock.unlock();
  impl_->cv.notify_all();
  return stats;
}

}  // namespace covest::engine
