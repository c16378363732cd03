// Shared pieces of the covest benchmark program: the clock, the serial
// layer replay, and the attribution table the traced run prints.
//
// The benchmark measures the program from outside. Everything below
// calls public covest functions and reads what they already expose
// (PhaseStats, check/estimate times, BddManager::stats()); nothing here
// changes how the engine runs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ctl/ctl.h"
#include "model/model.h"

namespace covest_bench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// One suite as the layer replay sees it.
struct ReplaySuite {
  std::string source;  ///< `.cov` text, parsed when non-empty...
  std::optional<covest::model::Model> model;  ///< ...else this model.
  /// Empty = the model's own SPEC entries (with their OBSERVE lists).
  std::vector<covest::ctl::Formula> properties;
  std::vector<std::string> signals;
};

/// Sums over replayed suites. Times in ms.
struct ReplayTotals {
  std::size_t suites = 0;
  double parse_ms = 0.0;      ///< model::parse_model_source
  double fsm_ms = 0.0;        ///< fsm::SymbolicFsm constructor
  double check_ms = 0.0;      ///< ctl::ModelChecker::check
  double reachable_ms = 0.0;  ///< SymbolicFsm::reachable
  double rings_ms = 0.0;      ///< SymbolicFsm::forward_rings
  double coverage_ms = 0.0;   ///< core::CoverageEstimator::coverage
  double total_ms = 0.0;      ///< The whole replayed suite.
  double reachable_steps = 0.0;  ///< forward_rings size - 1 (BFS depth).
  double nodes_created = 0.0;    ///< BddStats::unique_misses
  double unique_lookups = 0.0;   ///< unique_hits + unique_misses
  double cache_hits = 0.0;
  double cache_lookups = 0.0;
};

/// Replays one suite serially through the layers Session::run chains —
/// parse, elaborate, check every property, reachability, coverage of
/// every signal — timing each public call, on a fresh BDD manager whose
/// stats() are then read whole. Uses the repository's default
/// CoverageOptions, as the timed requests do.
void replay_suite(const ReplaySuite& suite, ReplayTotals* totals);

/// One row of the attribution table: a span's mean duration per suite
/// and its children. Self time is the duration minus the children.
struct Span {
  std::string layer;
  double ms = 0.0;
  std::vector<Span> children;
};

/// Prints `root` as the attribution table: layer, mean ms per suite,
/// self ms, share of the parent span, and an "(unattributed)" row for
/// every span's own remainder.
void print_attribution(const std::string& title, const Span& root);

}  // namespace covest_bench
