#include "engine/executor.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>

#include "core/observed.h"
#include "engine/session_cache.h"
#include "model/model_parser.h"
#include "util/governance.h"
#include "util/time.h"

namespace covest::engine {

namespace detail {

/// Shared state of one submitted job. The worker that runs it fills
/// `result` and flips `ready`.
struct JobState {
  std::uint64_t id = 0;
  CoverageRequest request;
  std::function<void()> on_ready;  ///< May be empty.
  JobEventFn on_event;             ///< Executor-wide tap (may be empty).
  /// Executor-owned warm model cache; nullptr when disabled. Outlives
  /// every job (the executor destructor drains before Impl dies).
  SessionCache* cache = nullptr;

  /// The job's deadline clock, started at submission so queue time
  /// counts, and its cancel latch; the worker ticks it.
  std::shared_ptr<covest::RunGovernor> governor;

  mutable std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  bool taken = false;
  SuiteResult result;  ///< Detached: owns no BDD state.

  /// Events are a fire-and-forget tap: a throwing callback must not
  /// kill a worker thread (std::terminate) or fail the job, so
  /// exceptions are swallowed here — the documented contract.
  void emit(JobEvent event) const {
    if (!on_event) return;
    event.job = id;
    try {
      on_event(event);
    } catch (...) {
    }
  }

  /// Flips `ready`, wakes blocked takers, then fires `on_ready` — the
  /// one exit every job leaves through. The hook is moved out under the
  /// lock, so it fires once; the local copy keeps its captures alive
  /// until it returns, even if the consumer has taken the result and
  /// dropped the handle meanwhile.
  void publish() {
    std::function<void()> hook;
    {
      std::lock_guard<std::mutex> lock(mu);
      ready = true;
      hook = std::move(on_ready);
    }
    cv.notify_all();
    if (hook) {
      try {
        hook();
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

/// Fail-fast request validation, run before any BDD work:
/// every property must parse (`resolve_suite` parses each one once and
/// names the property in its error) and every requested signal must
/// exist. Throws std::runtime_error with a per-job message; `run_job`
/// turns it into `SuiteResult::error`. The resolved suite is what the
/// session then runs.
ResolvedSuite validate_request(const CoverageRequest& request,
                               const model::Model& m) {
  ResolvedSuite suite = resolve_suite(request, m);
  for (const std::string& name : suite.signals) {
    core::observe_all_bits(m, name);  // Throws for unknown signals.
  }
  return suite;
}

/// Returns a leased (or leasable, freshly elaborated) session to the
/// warm cache on every exit path of `run_job`. Destruction happens on
/// the thread that ran the job, which owns the manager and is therefore
/// the only thread allowed to measure `live_node_count` — the occupancy
/// figure recorded with the parked entry.
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

/// Drops every row's live `covered` handle: what is left is plain data,
/// readable and destructible on any thread, with or without the session.
void detach(SuiteResult& result) {
  for (SignalRow& row : result.signals) row.covered = bdd::Bdd();
}

}  // namespace

namespace detail {

SuiteResult run_job(CoverageRequest& request, covest::RunGovernor& governor,
                    SessionCache* cache,
                    std::shared_ptr<Session>& session_out) {
  const auto t0 = Clock::now();
  SuiteResult result;

  // Install the job's governor for everything below: the session adopts
  // it instead of creating its own, so parse and elaborate (which run
  // before Session::run) stop on a deadline or cancel too.
  covest::RunGovernor::Scope governor_scope(&governor);
  const char* stage = "parse";
  try {
    // Warm model cache: lease a parked session keyed by the raw source
    // bytes + elaboration options instead of re-parsing/elaborating.
    // In-memory models bypass it (no stable bytes to key on).
    std::shared_ptr<Session> session;
    std::optional<model::Model> parsed;
    SessionKey cache_key;
    double parse_ms = 0.0;
    const bool leasable = cache != nullptr && !request.model.has_value();
    if (leasable) {
      // Inline source is hashed and parsed in place; a file is read once.
      std::string file_source;
      if (request.model_source.empty()) {
        if (request.model_path.empty()) {
          throw std::runtime_error(
              "CoverageRequest: set `model`, `model_source` or `model_path` "
              "as the model source");
        }
        file_source = model::read_model_file(request.model_path);
      }
      const std::string& source =
          request.model_source.empty() ? file_source : request.model_source;
      cache_key = SessionCache::key_of(source, request.options,
                                       request.max_live_nodes);
      session = cache->acquire(cache_key);
      if (!session) {
        // Parse the very bytes that were hashed: a file edited between
        // read and parse cannot poison the key.
        parsed = request.model_source.empty()
                     ? model::parse_model_source(source, request.model_path)
                     : model::parse_model(source);
      }
    } else if (request.model) {
      // The job owns its request: the model moves into the session's
      // FSM, which keeps the one copy.
      parsed = std::move(*request.model);
    } else {
      parsed = Engine::load_model(request);
    }
    const bool cache_hit = session != nullptr;
    // Whatever exit path runs below, a leasable session goes back to
    // the cache; any other session stays with the caller.
    LeaseReturn lease{cache, cache_key, leasable ? &session : nullptr};

    governor.tick();  // Parse-phase boundary.
    const ResolvedSuite suite =
        validate_request(request, cache_hit ? session->model() : *parsed);
    if (!cache_hit) parse_ms = ms_since(t0);

    stage = "elaborate";
    if (!session) {
      session = std::make_shared<Session>(
          std::move(*parsed), request.options, request.max_live_nodes);
    }
    const double elaborate_ms = ms_since(t0);
    governor.tick();  // Elaborate-phase boundary.

    result = session->run(request, suite);
    result.elaborate.ms = elaborate_ms;
    result.elaborate.parse_ms = parse_ms;
    // Parse + elaborate never ran on a hit — the warm half of the
    // contract `covest_serve_test` asserts (`verify.passes == 0` is the
    // session's verified-suite half).
    if (cache_hit) result.elaborate.passes = 0;
    result.total_ms = ms_since(t0);

    if (leasable) {
      // Parked sessions are re-leased by arbitrary workers: no live
      // handle may outlive the lease.
      detach(result);
    } else {
      session_out = std::move(session);
    }
  } catch (const covest::RunStopped& stop) {
    // Stopped before Session::run could convert it (parse/elaborate
    // boundaries above; inside the run the session returns the status
    // as data).
    result = SuiteResult{};
    result.status = status_of(stop);
    result.status_detail = std::string(stage) + ": " + stop.what();
    if (const auto* exhausted =
            dynamic_cast<const covest::ResourceExhausted*>(&stop)) {
      result.elaborate.live_nodes = exhausted->live_nodes();
      result.elaborate.node_budget = exhausted->budget();
    }
    result.total_ms = ms_since(t0);
  } catch (const std::exception& e) {
    // Error-only: a defect reports no partial suite.
    result = SuiteResult{};
    result.error = e.what();
    result.status = ResultStatus::kError;
    result.total_ms = ms_since(t0);
  } catch (...) {
    result = SuiteResult{};
    result.error = "unknown error in coverage worker";
    result.status = ResultStatus::kError;
    result.total_ms = ms_since(t0);
  }
  return result;
}

}  // namespace detail

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
  if (state_) state_->governor->cancel();
}

SuiteResult JobHandle::take() const {
  if (!state_) throw std::runtime_error("JobHandle::take on an empty handle");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->ready; });
  if (state_->taken) {
    throw std::runtime_error("JobHandle::take: result already taken");
  }
  state_->taken = true;
  return std::move(state_->result);
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

struct Executor::Impl {
  std::mutex mu;
  std::condition_variable cv;
  /// Signalled once per popped task when the queue is bounded; blocked
  /// (kBlock-policy) submitters wait on it for queue room.
  std::condition_variable space_cv;
  std::deque<std::shared_ptr<JobState>> queue;
  bool stopping = false;
  /// Immutable after construction (read without `mu`).
  std::size_t max_queue_depth = 0;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  std::uint64_t next_job_id = 1;
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
    std::shared_ptr<JobState> job;
    {
      std::unique_lock<std::mutex> lock(impl_->mu);
      impl_->cv.wait(lock, [this] {
        return impl_->stopping || !impl_->queue.empty();
      });
      // Drain semantics: accepted work still runs during shutdown.
      if (impl_->queue.empty()) return;
      job = std::move(impl_->queue.front());
      impl_->queue.pop_front();
    }
    // One freed slot admits one blocked submitter.
    if (impl_->max_queue_depth != 0) impl_->space_cv.notify_one();

    SuiteResult result;
    std::shared_ptr<Session> session;
    if (job->governor->cancelled()) {  // Cancelled while queued.
      result.status = ResultStatus::kCancelled;
    } else {
      JobEvent started;
      started.kind = JobEvent::Kind::kStarted;
      job->emit(started);
      result = detail::run_job(job->request, *job->governor, job->cache,
                               session);
      detach(result);
    }
    {
      std::lock_guard<std::mutex> lock(job->mu);
      job->result = std::move(result);
    }
    // kFinished fires before the result becomes takeable, so the event
    // stream is complete once a waiter unblocks.
    JobEvent ev;
    ev.kind = JobEvent::Kind::kFinished;
    ev.status = job->result.status;
    job->emit(ev);
    job->publish();
    // The session dies here, on the worker that built it, once the
    // result is out: its node pools go back to this thread's allocator
    // instead of the consumer's, and the teardown adds nothing to the
    // job's latency.
    session.reset();
  }
}

JobHandle Executor::submit(CoverageRequest request,
                           std::function<void()> on_ready) {
  auto state = std::make_shared<JobState>();
  state->request = std::move(request);
  state->on_ready = std::move(on_ready);
  state->on_event = impl_->on_event;
  state->cache = impl_->session_cache.get();
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
    if (!reject && impl_->max_queue_depth != 0 &&
        impl_->admission == AdmissionPolicy::kReject &&
        impl_->queue.size() >= impl_->max_queue_depth) {
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
  // kQueued fires before the job becomes visible to workers, so its
  // event stream always starts with it.
  JobEvent queued;
  queued.kind = JobEvent::Kind::kQueued;
  state->emit(queued);
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    if (impl_->max_queue_depth != 0 &&
        impl_->admission == AdmissionPolicy::kBlock) {
      // Backpressure: hold the submitter until the queue has room.
      // Shutdown releases the wait — accepted work still runs under the
      // destructor's drain semantics.
      impl_->space_cv.wait(lock, [this] {
        return impl_->stopping ||
               impl_->queue.size() < impl_->max_queue_depth;
      });
    }
    impl_->queue.push_back(state);
  }
  impl_->cv.notify_one();  // One job needs one worker.
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

}  // namespace covest::engine
