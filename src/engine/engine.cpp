#include "engine/engine.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "ctl/ctl_parser.h"
#include "engine/executor.h"
#include "fsm/trace.h"
#include "model/model_parser.h"
#include "util/governance.h"
#include "util/time.h"

namespace covest::engine {

namespace {

using util::Clock;
using util::ms_since;

/// Renders a symbolic trace into the self-contained result form (values
/// in declaration order, so serializations are deterministic).
TraceResult make_trace_result(const fsm::SymbolicFsm& fsm,
                              const fsm::Trace& trace) {
  TraceResult out;
  out.steps.reserve(trace.steps.size());
  for (const fsm::TraceStep& step : trace.steps) {
    TraceResult::Step rendered;
    for (const fsm::SignalLayout& l : fsm.layouts()) {
      const auto it = step.values.find(l.name);
      if (it != step.values.end()) rendered.emplace_back(l.name, it->second);
    }
    out.steps.push_back(std::move(rendered));
  }
  out.text = trace.to_string(fsm);
  return out;
}

PhaseStats snapshot(bdd::BddManager& mgr, double ms) {
  const bdd::BddStats& st = mgr.stats();
  PhaseStats p;
  p.ms = ms;
  p.live_nodes = mgr.live_node_count();
  p.peak_live_nodes = st.peak_live_nodes;
  p.cache_hit_rate = st.cache_hit_rate();
  p.gc_runs = st.gc_runs;
  p.passes = 1;  // This session ran the phase once.
  p.node_budget = mgr.max_live_nodes();
  return p;
}

}  // namespace

const char* to_string(ResultStatus status) noexcept {
  switch (status) {
    case ResultStatus::kOk:
      return "ok";
    case ResultStatus::kCancelled:
      return "cancelled";
    case ResultStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case ResultStatus::kResourceExhausted:
      return "resource_exhausted";
    case ResultStatus::kAdmissionRejected:
      return "admission_rejected";
    case ResultStatus::kError:
      return "error";
  }
  return "ok";  // Unreachable for in-range enums.
}

ResultStatus status_of(const covest::RunStopped& stop) noexcept {
  switch (stop.cause()) {
    case covest::RunStopped::Cause::kCancelled:
      return ResultStatus::kCancelled;
    case covest::RunStopped::Cause::kDeadline:
      return ResultStatus::kDeadlineExceeded;
    case covest::RunStopped::Cause::kNodeBudget:
      return ResultStatus::kResourceExhausted;
  }
  return ResultStatus::kError;  // Unreachable for in-range enums.
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

namespace {

/// The suite runs are lenient by construction: failing properties are
/// policy (skip or include-with-empty-coverage), never an exception.
core::CoverageOptions lenient(core::CoverageOptions options) {
  options.require_holds = false;
  return options;
}

/// Structural hash of a resolved suite — the key of the session's
/// verified-suite record. Everything a cold verify phase bakes into its
/// artifacts participates: the raw CTL text (PropertyResult::ctl_text
/// prefers it over the canonical rendering, so two spellings of one
/// formula must not collide), the collapsed formula's structural hash,
/// the observe lists and comments (copied into the results verbatim),
/// and `skip_failing` (it decides `skipped` and row eligibility).
std::uint64_t suite_hash(const std::vector<PropertySpec>& specs,
                         bool skip_failing) {
  std::uint64_t h = specs.size() + 0x9e3779b97f4a7c15ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  const std::hash<std::string> str_hash;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    mix(str_hash(specs[i].ctl_text));
    mix(static_cast<std::uint64_t>(ctl::structural_hash(specs[i].formula)));
    mix(specs[i].observe.size());
    for (const std::string& o : specs[i].observe) mix(str_hash(o));
    mix(str_hash(specs[i].comment));
  }
  mix(skip_failing ? 1 : 2);
  return h;
}

}  // namespace

ResolvedSuite resolve_suite(const CoverageRequest& request,
                            const model::Model& model) {
  ResolvedSuite suite;
  if (!request.properties.empty()) {
    suite.properties = request.properties;
  } else {
    suite.properties.reserve(model.specs().size());
    for (const model::SpecEntry& s : model.specs()) {
      PropertySpec spec;
      spec.ctl_text = s.ctl_text;
      spec.observe = s.observed;
      spec.comment = s.comment;
      suite.properties.push_back(std::move(spec));
    }
  }
  for (PropertySpec& s : suite.properties) {
    if (s.formula.valid()) {
      // Collapsing here (idempotent for parsed text) keys the checker's
      // structural memo on the exact form the coverage recursion
      // re-checks.
      s.formula = ctl::collapse_propositional(s.formula);
      continue;
    }
    try {
      s.formula = ctl::parse_ctl(s.ctl_text);  // Already collapsed.
    } catch (const std::exception& e) {
      throw std::runtime_error("property '" + s.ctl_text + "': " + e.what());
    }
  }
  if (!request.signals.empty()) {
    suite.signals = request.signals;
  } else {
    std::set<std::string> seen;
    for (const PropertySpec& s : suite.properties) {
      seen.insert(s.observe.begin(), s.observe.end());
    }
    suite.signals.assign(seen.begin(), seen.end());
  }
  return suite;
}

Session::Session(model::Model model, core::CoverageOptions options,
                 std::size_t max_live_nodes)
    : fsm_(std::move(model), max_live_nodes, options.image_strategy),
      checker_(fsm_),
      estimator_(checker_, lenient(options)) {}

/// One signal row. Because every intermediate is a canonical BDD with
/// exact counts, the row depends only on the verified suite, not on
/// which rows this session estimated before it.
SignalRow Session::estimate_row(const CoverageRequest& request,
                                const std::string& name,
                                const std::vector<PropertySpec>& specs,
                                const std::vector<PropertyResult>& outcomes) {
  const auto t_row = Clock::now();
  const std::vector<core::ObservedSignal> group =
      core::observe_all_bits(model(), name);

  std::vector<ctl::Formula> eligible;
  for (std::size_t j = 0; j < specs.size(); ++j) {
    if (outcomes[j].skipped) continue;
    const std::vector<std::string>& obs = specs[j].observe;
    if (obs.empty() || std::find(obs.begin(), obs.end(), name) != obs.end()) {
      eligible.push_back(specs[j].formula);
    }
  }

  const core::SignalCoverage sc = estimator_.coverage(eligible, group);
  SignalRow row;
  row.name = name;
  row.num_properties = sc.num_properties;
  row.covered_count = sc.covered_count;
  row.percent = sc.percent;
  row.covered = sc.covered;
  // Hole reporting is skippable work: don't compute the uncovered set
  // at all when nothing was asked for (the bench harness sets limit 0
  // precisely to keep the estimate timing pure).
  if (request.uncovered_limit > 0) {
    row.uncovered =
        estimator_.uncovered_examples(sc.covered, request.uncovered_limit);
  }
  if (request.want_traces) {
    if (const auto trace = estimator_.trace_to_uncovered(sc.covered)) {
      row.trace = make_trace_result(fsm_, *trace);
    }
  }
  row.estimate_ms = ms_since(t_row);
  return row;
}

SuiteResult Session::run(const CoverageRequest& request) {
  return run(request, resolve_suite(request, model()));
}

SuiteResult Session::run(const CoverageRequest& request,
                         const ResolvedSuite& suite) {
  const auto t_run = Clock::now();

  // Governance: adopt the ambient governor when one is installed (the
  // executor's, whose clock started at submission so queue time counts,
  // and which the job's handle cancels); direct library callers get a
  // local one scoped to this run. Either way every phase boundary below
  // and every BDD fix-point iteration under this frame ticks the same
  // governor.
  std::optional<covest::RunGovernor> local_governor;
  std::optional<covest::RunGovernor::Scope> local_scope;
  covest::RunGovernor* governor = covest::RunGovernor::current();
  if (governor == nullptr) {
    local_governor.emplace(request.deadline_ms);
    governor = &*local_governor;
    local_scope.emplace(governor);
  }

  SuiteResult result;
  const model::Model& m = model();
  result.model_name = m.name();
  result.state_bits = m.state_bit_count();

  // Every phase snapshot carries the partitioned-relation shape, so the
  // clustering is observable next to the phase timings.
  const auto snap = [this](double ms) {
    PhaseStats p = snapshot(fsm_.mgr(), ms);
    p.partial_relations = fsm_.relation().partial_count();
    p.clusters = fsm_.relation().cluster_count();
    p.largest_cluster = fsm_.relation().largest_cluster();
    return p;
  };
  result.elaborate = snap(0.0);

  // Converts a governed stop (cancel, deadline, node budget) into the
  // partial-result contract: the completed prefix stays, the stopped
  // phase's stats record where and why, and nothing throws past this
  // frame.
  const auto mark_stopped = [&](const covest::RunStopped& stop,
                                const char* phase_name, PhaseStats* phase,
                                double phase_ms) {
    *phase = snap(phase_ms);
    if (const auto* exhausted =
            dynamic_cast<const covest::ResourceExhausted*>(&stop)) {
      if (exhausted->live_nodes() != 0) {
        phase->live_nodes = exhausted->live_nodes();
      }
      if (exhausted->budget() != 0) phase->node_budget = exhausted->budget();
    }
    result.status = status_of(stop);
    result.status_detail = std::string(phase_name) + ": " + stop.what();
    result.total_ms = ms_since(t_run);
  };

  const std::vector<PropertySpec>& specs = suite.properties;

  // -- Verify ---------------------------------------------------------------
  // Warm path: a suite this session has verified before replays the
  // recorded outcomes (counterexample traces included) and never enters
  // the verify loop — verify.passes reports 0. The estimate phase below
  // runs either way; its caches are keyed by canonical BDDs, so warm rows
  // are byte-identical to cold ones.
  const std::uint64_t key = suite_hash(specs, request.skip_failing);
  const auto warm = verified_.find(key);
  if (warm != verified_.end()) {
    result.properties = warm->second.properties;
    result.failures = warm->second.failures;
    result.verify = snap(0.0);
    result.verify.passes = 0;
  } else {
    const auto t_verify = Clock::now();
    try {
      // The reachability fixpoint is part of verification: the checker
      // confines every CTL fixpoint to the reachable states (exact
      // there, which is all holds, counterexamples and coverage read),
      // and the estimator adopts the same set instead of recomputing it.
      // Computed once per session; a stop inside it is a verify-phase
      // stop with no properties checked.
      estimator_.seed_reachable(checker_.restrict_to_reachable());
      for (std::size_t i = 0; i < specs.size(); ++i) {
        governor->tick();  // Per-property stop check.
        const auto t_prop = Clock::now();
        const ctl::CheckResult check = checker_.check(specs[i].formula);
        PropertyResult pr;
        pr.ctl_text = !specs[i].ctl_text.empty()
                          ? specs[i].ctl_text
                          : ctl::to_string(specs[i].formula);
        pr.comment = specs[i].comment;
        pr.observe = specs[i].observe;
        pr.holds = check.holds;
        pr.skipped = !check.holds && !request.skip_failing;
        if (check.counterexample) {
          pr.counterexample = make_trace_result(fsm_, *check.counterexample);
        }
        pr.check_ms = ms_since(t_prop);
        if (!pr.holds) ++result.failures;
        result.properties.push_back(std::move(pr));
      }
    } catch (const covest::RunStopped& stop) {
      mark_stopped(stop, "verify", &result.verify, ms_since(t_verify));
      return result;
    }
    result.verify = snap(ms_since(t_verify));
    // Record the artifacts only for fully-verified suites: partial results
    // returned above must re-verify. The cap clears wholesale — suites are
    // few and small, and wholesale keeps no LRU bookkeeping.
    if (verified_.size() >= kMaxVerifiedSuites) verified_.clear();
    verified_.emplace(key, VerifiedSuite{result.properties, result.failures});
  }

  // -- Estimate -------------------------------------------------------------
  // The reachable set comes from the verify phase (a warm run's suite
  // was verified cold earlier in this session), so the estimate phase
  // runs no plain-reachability fixpoint: it only counts that set and
  // computes the coverage space, which under a vacuous fair restriction
  // is a cache hit on the same BDD. With FAIRNESS the fair-restricted
  // traversal can still be stopped here.
  const auto t_estimate = Clock::now();
  try {
    if (!reachable_count_) {
      reachable_count_ = fsm_.count_states(checker_.restrict_to_reachable());
    }
    result.reachable_states = *reachable_count_;
    result.space_count = estimator_.space_count();
    for (const std::string& name : suite.signals) {
      governor->tick();  // Per-row stop check.
      result.signals.push_back(
          estimate_row(request, name, specs, result.properties));
    }
  } catch (const covest::RunStopped& stop) {
    mark_stopped(stop, "estimate", &result.estimate, ms_since(t_estimate));
    return result;
  }
  result.estimate = snap(ms_since(t_estimate));

  result.total_ms = ms_since(t_run);
  return result;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

model::Model Engine::load_model(const CoverageRequest& request) {
  if (request.model) return *request.model;
  if (!request.model_source.empty()) {
    return model::parse_model(request.model_source);
  }
  if (!request.model_path.empty()) {
    return model::parse_model_file(request.model_path);
  }
  throw std::runtime_error(
      "CoverageRequest: set `model`, `model_source` or `model_path` as the "
      "model source");
}

std::unique_ptr<Session> Engine::open(const CoverageRequest& request) const {
  return std::make_unique<Session>(load_model(request), request.options,
                                   request.max_live_nodes);
}

SuiteResult Engine::run(const CoverageRequest& request) const {
  // A one-shot run is the executor's job pipeline run inline, on the
  // calling thread, so this path and covest_batch execute the same code.
  // The session stays in `retain`: the rows' `covered` handles remain
  // composable for as long as the result lives.
  CoverageRequest job = request;
  covest::RunGovernor governor(job.deadline_ms);
  std::shared_ptr<Session> session;
  SuiteResult result = detail::run_job(job, governor, nullptr, session);
  result.retain = std::move(session);
  // Blocking callers keep exception semantics; only the batch layers
  // report errors structurally.
  if (!result.error.empty()) throw std::runtime_error(result.error);
  return result;
}

}  // namespace covest::engine
