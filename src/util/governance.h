// Resource governance: the typed stop exceptions every layer converts
// into structured statuses, the per-run governor (deadline and cancel
// latch) threaded through the engine's tick points and the BDD fixpoint
// loops, and a deterministic fault injector for the chaos battery.
// Lives in util/ because both src/bdd/ and src/engine/ depend on it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace covest {

/// Base of the three ways a governed run stops before it finishes: a
/// cancel, an expired deadline and an exhausted node budget. Each leaves
/// the run's state consistent, and the engine turns any of them into a
/// partial result whose status names the cause, so a catch site needs
/// one clause for all three.
class RunStopped : public std::runtime_error {
 public:
  enum class Cause { kCancelled, kDeadline, kNodeBudget };
  Cause cause() const noexcept { return cause_; }

 protected:
  RunStopped(Cause cause, const std::string& what)
      : std::runtime_error(what), cause_(cause) {}

 private:
  Cause cause_;
};

/// Thrown by BddManager when a configured `max_live_nodes` budget would
/// be exceeded (or by fault injection). Carries the occupancy observed
/// at the throw site and the configured budget so the engine can record
/// them in PhaseStats. Never leaves the pool inconsistent: it fires
/// before any slot is handed out.
class ResourceExhausted : public RunStopped {
 public:
  ResourceExhausted(const std::string& what, std::size_t live_nodes,
                    std::size_t budget)
      : RunStopped(Cause::kNodeBudget, what),
        live_nodes_(live_nodes),
        budget_(budget) {}

  /// Pool occupancy (live + uncollected garbage) when the limit fired.
  std::size_t live_nodes() const noexcept { return live_nodes_; }
  /// The configured `max_live_nodes` budget (0 for injected failures on
  /// an unbudgeted manager).
  std::size_t budget() const noexcept { return budget_; }

 private:
  std::size_t live_nodes_;
  std::size_t budget_;
};

/// Thrown by RunGovernor::tick once a run's wall-clock deadline has
/// passed (or fault injection fired the deadline site).
class DeadlineExceeded : public RunStopped {
 public:
  /// `budget_ms` = 0 for injected expiries on a run with no deadline.
  explicit DeadlineExceeded(std::uint64_t budget_ms)
      : RunStopped(Cause::kDeadline,
                   budget_ms == 0 ? std::string("deadline expired (injected)")
                                  : "deadline of " +
                                        std::to_string(budget_ms) +
                                        " ms expired") {}
};

/// Thrown by RunGovernor::tick once the run's cancel latch is set.
class Cancelled : public RunStopped {
 public:
  Cancelled() : RunStopped(Cause::kCancelled, "cancelled") {}
};

/// Process-wide deterministic fault injection. Always compiled in;
/// `should_fail` is a single relaxed atomic load plus a predicted-taken
/// branch when disarmed, so production paths pay essentially nothing.
///
/// Arm one site at a time: the Nth call to `should_fail(site)` after
/// `arm(site, n)` returns true exactly once; every other call (any
/// site, any count) returns false. `trigger_count()` reads how many
/// times the armed site has been reached, so tests can calibrate sweep
/// ranges by arming with a huge `fire_at` and counting a clean run.
class FaultInjector {
 public:
  enum class Site : int {
    kAllocation = 0,  ///< BddManager node allocation (both epochs).
    kDeadline = 1,    ///< RunGovernor::tick.
    kAdmission = 2,   ///< Executor::submit admission check.
  };

  /// Fire at the `fire_at`-th trigger of `site` (1-based). Resets the
  /// trigger counter. Not meant to race with in-flight runs.
  static void arm(Site site, std::uint64_t fire_at) noexcept;
  /// Return to the zero-cost disarmed state.
  static void disarm() noexcept;
  /// Triggers of the armed site observed since `arm`.
  static std::uint64_t trigger_count() noexcept;

  /// Hot-path check, called at every trigger point of `site`.
  static bool should_fail(Site site) noexcept {
    return armed_site_.load(std::memory_order_relaxed) ==
               static_cast<int>(site) &&
           fire();
  }

 private:
  static bool fire() noexcept;

  static std::atomic<int> armed_site_;  // -1 = disarmed.
  static std::atomic<std::uint64_t> count_;
  static std::atomic<std::uint64_t> fire_at_;
};

/// Governor for one suite run: its wall-clock deadline and its cancel
/// latch, both checked by `tick()`. The deadline is fixed at
/// construction (steady clock, so unaffected by wall-time jumps). A stop
/// is latched — an expiry seen by `tick()`, or `cancel()` from any
/// thread — and every later tick of the run throws it again, so phase
/// boundaries and fixpoint loops alike stop. The first stop latched
/// wins. The executor creates a job's governor on the submitting thread,
/// cancels it from the job's handle and ticks it on the worker.
class RunGovernor {
 public:
  /// `budget_ms` = 0 means no real deadline; ticks still honour fault
  /// injection so expiry can be driven deterministically in tests.
  explicit RunGovernor(std::uint64_t budget_ms)
      : budget_ms_(budget_ms),
        deadline_(std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(budget_ms)) {}

  /// Latches a cancel: the run's next tick throws Cancelled. Safe from
  /// any thread; a no-op once a stop is latched.
  void cancel() noexcept { latch(kCancelled); }

  /// Non-throwing poll: has a cancel been latched?
  bool cancelled() const noexcept {
    return stop_.load(std::memory_order_relaxed) == kCancelled;
  }

  /// Throws the latched stop (Cancelled or DeadlineExceeded), or
  /// DeadlineExceeded when the deadline has just passed or the kDeadline
  /// fault-injection site fires. One relaxed load when nothing is
  /// latched.
  void tick() {
    if (stop_.load(std::memory_order_relaxed) != kRunning) throw_latched();
    if (FaultInjector::should_fail(FaultInjector::Site::kDeadline) ||
        (budget_ms_ != 0 &&
         std::chrono::steady_clock::now() >= deadline_)) {
      latch(kExpired);
      throw_latched();
    }
  }

  /// The governor installed on this thread, or nullptr.
  static RunGovernor* current() noexcept;

  /// RAII installation as the thread's current governor. Nestable (the
  /// previous governor is restored) so a library caller's governor is
  /// shadowed, not clobbered, by an inner run.
  class Scope {
   public:
    explicit Scope(RunGovernor* governor) noexcept;
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    RunGovernor* prev_;
  };

 private:
  enum : std::uint8_t { kRunning, kExpired, kCancelled };

  void latch(std::uint8_t stop) noexcept {
    std::uint8_t running = kRunning;
    stop_.compare_exchange_strong(running, stop, std::memory_order_relaxed);
  }
  [[noreturn]] void throw_latched() const;

  std::uint64_t budget_ms_;
  std::chrono::steady_clock::time_point deadline_;
  std::atomic<std::uint8_t> stop_{kRunning};
};

/// The coarse-grained tick dropped into BDD fixpoint loops: no-op when
/// no governor is installed on this thread.
void governor_tick();

}  // namespace covest
