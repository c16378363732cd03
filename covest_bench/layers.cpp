// The layer replay and the attribution table (see bench.h).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "bench.h"
#include "core/coverage.h"
#include "core/observed.h"
#include "ctl/checker.h"
#include "ctl/ctl_parser.h"
#include "fsm/symbolic_fsm.h"
#include "model/model_parser.h"

namespace covest_bench {

using namespace covest;

void replay_suite(const ReplaySuite& suite, ReplayTotals* totals) {
  const auto t_suite = Clock::now();

  std::optional<model::Model> parsed;
  if (!suite.source.empty()) {
    const auto t = Clock::now();
    parsed.emplace(model::parse_model_source(suite.source, "replay"));
    totals->parse_ms += ms_between(t, Clock::now());
  }
  const model::Model& m = parsed ? *parsed : *suite.model;

  // Session::run's policy: default options, failing properties are
  // skipped instead of thrown on.
  core::CoverageOptions options;
  options.require_holds = false;

  auto t = Clock::now();
  const fsm::SymbolicFsm fsm(m, 0, options.image_strategy);
  totals->fsm_ms += ms_between(t, Clock::now());
  ctl::ModelChecker checker(fsm);
  core::CoverageEstimator estimator(checker, options);

  // Resolve the suite the way the engine does: explicit properties
  // observe every requested signal; SPEC entries carry OBSERVE lists.
  std::vector<ctl::Formula> formulas = suite.properties;
  std::vector<std::vector<std::string>> observe(formulas.size());
  if (formulas.empty()) {
    for (const model::SpecEntry& spec : m.specs()) {
      formulas.push_back(
          ctl::collapse_propositional(ctl::parse_ctl(spec.ctl_text)));
      observe.push_back(spec.observed);
    }
  }

  std::vector<bool> holds(formulas.size());
  for (std::size_t i = 0; i < formulas.size(); ++i) {
    t = Clock::now();
    holds[i] = checker.check(formulas[i]).holds;
    totals->check_ms += ms_between(t, Clock::now());
  }

  t = Clock::now();
  const bdd::Bdd reachable = fsm.reachable(fsm.initial_states());
  totals->reachable_ms += ms_between(t, Clock::now());
  t = Clock::now();
  const std::vector<bdd::Bdd> rings = fsm.forward_rings(fsm.initial_states());
  totals->rings_ms += ms_between(t, Clock::now());
  totals->reachable_steps +=
      static_cast<double>(rings.empty() ? 0 : rings.size() - 1);

  for (const std::string& name : suite.signals) {
    std::vector<ctl::Formula> eligible;
    for (std::size_t i = 0; i < formulas.size(); ++i) {
      const std::vector<std::string>& obs = observe[i];
      if (holds[i] && (obs.empty() || std::find(obs.begin(), obs.end(),
                                                name) != obs.end())) {
        eligible.push_back(formulas[i]);
      }
    }
    const std::vector<core::ObservedSignal> group =
        core::observe_all_bits(m, name);
    t = Clock::now();
    estimator.coverage(eligible, group);
    totals->coverage_ms += ms_between(t, Clock::now());
  }

  // A fresh manager: its counters are this suite's alone.
  const bdd::BddStats& st = fsm.mgr().stats();
  totals->nodes_created += static_cast<double>(st.unique_misses);
  totals->unique_lookups +=
      static_cast<double>(st.unique_hits + st.unique_misses);
  totals->cache_hits += static_cast<double>(st.cache_hits);
  totals->cache_lookups += static_cast<double>(st.cache_lookups);
  totals->total_ms += ms_between(t_suite, Clock::now());
  ++totals->suites;
}

namespace {

void print_span(const Span& span, double parent_ms, int depth) {
  double children_ms = 0.0;
  for (const Span& c : span.children) children_ms += c.ms;
  const double self_ms = span.children.empty() ? span.ms : span.ms - children_ms;
  const std::string label = std::string(2 * depth, ' ') + span.layer;
  if (parent_ms > 0.0) {
    std::printf("  %-34s %10.4f %10.4f %8.1f%%\n", label.c_str(), span.ms,
                self_ms, 100.0 * span.ms / parent_ms);
  } else {
    std::printf("  %-34s %10.4f %10.4f %9s\n", label.c_str(), span.ms, self_ms,
                "-");
  }
  if (span.children.empty()) return;
  for (const Span& c : span.children) print_span(c, span.ms, depth + 1);
  const std::string rest = std::string(2 * depth + 2, ' ') + "(unattributed)";
  std::printf("  %-34s %10.4f %10.4f %8.1f%%\n", rest.c_str(), self_ms,
              self_ms, span.ms > 0.0 ? 100.0 * self_ms / span.ms : 0.0);
}

}  // namespace

void print_attribution(const std::string& title, const Span& root) {
  std::printf("attribution: %s (mean ms per suite)\n", title.c_str());
  std::printf("  %-34s %10s %10s %9s\n", "layer", "ms", "self_ms",
              "of_parent");
  print_span(root, 0.0, 0);
}

}  // namespace covest_bench
