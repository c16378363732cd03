#include "util/governance.h"

namespace covest {

std::atomic<int> FaultInjector::armed_site_{-1};
std::atomic<std::uint64_t> FaultInjector::count_{0};
std::atomic<std::uint64_t> FaultInjector::fire_at_{0};

void FaultInjector::arm(Site site, std::uint64_t fire_at) noexcept {
  armed_site_.store(-1, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  fire_at_.store(fire_at, std::memory_order_relaxed);
  armed_site_.store(static_cast<int>(site), std::memory_order_release);
}

void FaultInjector::disarm() noexcept {
  armed_site_.store(-1, std::memory_order_relaxed);
}

std::uint64_t FaultInjector::trigger_count() noexcept {
  return count_.load(std::memory_order_relaxed);
}

bool FaultInjector::fire() noexcept {
  const std::uint64_t n =
      count_.fetch_add(1, std::memory_order_relaxed) + 1;
  return n == fire_at_.load(std::memory_order_relaxed);
}

namespace {
thread_local RunGovernor* tl_governor = nullptr;
}  // namespace

RunGovernor* RunGovernor::current() noexcept { return tl_governor; }

RunGovernor::Scope::Scope(RunGovernor* governor) noexcept
    : prev_(tl_governor) {
  tl_governor = governor;
}

RunGovernor::Scope::~Scope() { tl_governor = prev_; }

void RunGovernor::throw_latched() const {
  if (stop_.load(std::memory_order_relaxed) == kCancelled) throw Cancelled();
  throw DeadlineExceeded(budget_ms_);
}

void governor_tick() {
  if (RunGovernor* governor = tl_governor) {
    governor->tick();
  }
}

}  // namespace covest
