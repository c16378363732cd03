#include "core/coverage.h"

#include <stdexcept>

#include "util/governance.h"

namespace covest::core {

using bdd::Bdd;
using ctl::CtlOp;
using ctl::Formula;
using expr::Expr;

CoverageEstimator::CoverageEstimator(ctl::ModelChecker& checker,
                                     CoverageOptions options)
    : checker_(checker), fsm_(checker.fsm()), options_(options) {}

// ---------------------------------------------------------------------------
// Coverage space and fair restriction
// ---------------------------------------------------------------------------

const Bdd& CoverageEstimator::coverage_space() {
  // The optional is engaged at most once, so the returned reference
  // stays valid.
  if (!space_) {
    // States reachable along fair paths: the same fair-restricted BFS the
    // covered-set recursion uses (and caches), so suites pay for
    // reachability exactly once.
    Bdd start = fsm_.initial_states();
    if (options_.restrict_to_fair) start &= checker_.fair_states();
    Bdd space = reachable_fair(start);
    if (options_.exclude_dontcares) space -= fsm_.dontcare();
    space_ = space;
  }
  return *space_;
}

double CoverageEstimator::space_count() {
  if (!space_count_) space_count_ = fsm_.count_states(coverage_space());
  return *space_count_;
}

void CoverageEstimator::seed_reachable(const Bdd& reachable) {
  if (options_.restrict_to_fair && !fsm_.fairness().empty()) return;
  const Bdd& init = fsm_.initial_states();
  reach_cache_.try_emplace(init.index(), ReachEntry{init, reachable});
}

Bdd CoverageEstimator::forward_fair(const Bdd& s) {
  Bdd next = fsm_.forward(s);
  if (options_.restrict_to_fair) next &= checker_.fair_states();
  return next;
}

Bdd CoverageEstimator::reachable_fair(const Bdd& s) {
  const auto it = reach_cache_.find(s.index());
  if (it != reach_cache_.end() && it->second.from == s) {
    return it->second.result;
  }
  Bdd reached = s;
  Bdd frontier = s;
  while (!frontier.is_false()) {
    covest::governor_tick();
    frontier = forward_fair(frontier) - reached;
    reached |= frontier;
  }
  reach_cache_[s.index()] = ReachEntry{s, reached};
  return reached;
}

// ---------------------------------------------------------------------------
// Table-1 primitives
// ---------------------------------------------------------------------------

Bdd CoverageEstimator::depend(const Expr& atom, const ObservedSignal& q) {
  // depend(b) = T(b) ∩ ¬T(b[q -> !q]): states where b holds but flipping
  // the observed signal's label falsifies it. The flip substitution runs
  // on the define-expanded atom (preserving an observed DEFINE) so every
  // occurrence of q is rewritten.
  const model::Model& m = fsm_.model();
  const Expr expanded = m.expand_defines(atom, &q.name);
  const Expr flipped =
      expr::substitute_signal(expanded, q.name, flip_replacement(m, q));
  const Bdd t = fsm_.blast_bool(expanded);
  const Bdd t_flipped = fsm_.blast_bool(flipped);
  return t - t_flipped;
}

namespace {

std::uint64_t triple_key(bdd::NodeIndex a, bdd::NodeIndex b,
                         bdd::NodeIndex c) {
  std::uint64_t h = a;
  h = h * 0x9e3779b97f4a7c15ull + b;
  h = h * 0x9e3779b97f4a7c15ull + c;
  return h;
}

}  // namespace

Bdd CoverageEstimator::traverse(const Bdd& s0, const Bdd& t1, const Bdd& t2) {
  // lfp X. (S0 ∧ T(f1) ∧ ¬T(f2)) ∪ (forward(X) ∧ T(f1) ∧ ¬T(f2)):
  // states on the f1-and-not-yet-f2 prefixes of paths from S0.
  const std::uint64_t key = triple_key(s0.index(), t1.index(), t2.index());
  for (const TraverseEntry& e : traverse_cache_[key]) {
    if (e.s0 == s0 && e.t1 == t1 && e.t2 == t2) return e.result;
  }
  const Bdd band = t1 - t2;
  Bdd acc = s0 & band;
  Bdd frontier = acc;
  while (!frontier.is_false()) {
    covest::governor_tick();
    frontier = (forward_fair(frontier) & band) - acc;
    acc |= frontier;
  }
  traverse_cache_[key].push_back(TraverseEntry{s0, t1, t2, acc});
  return acc;
}

Bdd CoverageEstimator::firstreached(const Bdd& s0, const Bdd& t2) {
  // States satisfying f2 that some path from S0 reaches without passing
  // through an earlier f2 state.
  const std::uint64_t key = triple_key(s0.index(), t2.index(), 0);
  for (const FirstEntry& e : first_cache_[key]) {
    if (e.s0 == s0 && e.t2 == t2) return e.result;
  }
  // Layered BFS: the recurrence prunes paths *through* t2 states via the
  // frontier, so the visit discipline is part of the definition.
  Bdd first = s0 & t2;
  Bdd visited = s0;
  Bdd frontier = s0 - t2;
  while (!frontier.is_false()) {
    covest::governor_tick();
    const Bdd next = forward_fair(frontier) - visited;
    visited |= next;
    first |= next & t2;
    frontier = next - t2;
  }
  first_cache_[key].push_back(FirstEntry{s0, t2, first});
  return first;
}

// ---------------------------------------------------------------------------
// The recursive covered-set computation (Table 1)
// ---------------------------------------------------------------------------

Bdd CoverageEstimator::covered_rec(const Bdd& s0, const Formula& f,
                                   const ObservedSignal& q) {
  if (s0.is_false()) return fsm_.mgr().bdd_false();
  switch (f.op()) {
    case CtlOp::kProp:
      return s0 & depend(f.prop(), q);
    case CtlOp::kImplies: {
      if (f.arg(0).op() != CtlOp::kProp) {
        throw std::logic_error("implication antecedent must be an atom");
      }
      return covered_rec(s0 & checker_.sat(f.arg(0)), f.arg(1), q);
    }
    case CtlOp::kAX:
      return covered_rec(forward_fair(s0), f.arg(0), q);
    case CtlOp::kAG:
      return covered_rec(reachable_fair(s0), f.arg(0), q);
    case CtlOp::kAF: {
      // AF f == A[true U f]; the traverse term contributes nothing
      // (its operand `true` never depends on q).
      return covered_rec(firstreached(s0, checker_.sat(f.arg(0))), f.arg(0),
                         q);
    }
    case CtlOp::kAU: {
      const Bdd t1 = checker_.sat(f.arg(0));
      const Bdd t2 = checker_.sat(f.arg(1));
      const Bdd from_lhs = covered_rec(traverse(s0, t1, t2), f.arg(0), q);
      const Bdd from_rhs = covered_rec(firstreached(s0, t2), f.arg(1), q);
      return from_lhs | from_rhs;
    }
    case CtlOp::kAnd:
      return covered_rec(s0, f.arg(0), q) | covered_rec(s0, f.arg(1), q);
    default:
      throw std::logic_error(
          "covered_rec: operator outside the acceptable ACTL subset");
  }
}

Bdd CoverageEstimator::covered_set(const Formula& f, const ObservedSignal& q) {
  const Formula collapsed = ctl::collapse_propositional(f);
  const std::string violation = ctl::acceptable_actl_violation(collapsed);
  if (!violation.empty()) {
    throw std::runtime_error("coverage needs the acceptable ACTL subset: " +
                             violation + " in '" + ctl::to_string(f) + "'");
  }
  if (!checker_.holds(collapsed)) {
    if (options_.require_holds) {
      throw std::runtime_error(
          "coverage is defined for verified properties, but the model "
          "does not satisfy '" +
          ctl::to_string(f) + "'");
    }
    return fsm_.mgr().bdd_false();
  }

  Bdd start = fsm_.initial_states();
  if (options_.restrict_to_fair) start &= checker_.fair_states();
  return covered_rec(start, collapsed, q);
}

// ---------------------------------------------------------------------------
// Aggregation and reporting
// ---------------------------------------------------------------------------

namespace {

/// A property can only cover states for signals its atoms mention; skip
/// the rest so `num_properties` matches the paper's per-signal counts.
bool mentions_signal(const Formula& f, const std::string& name,
                     const model::Model& m) {
  if (f.op() == CtlOp::kProp) {
    const Expr expanded = m.expand_defines(f.prop(), &name);
    for (const std::string& ref : expr::referenced_signals(expanded)) {
      if (ref == name) return true;
    }
    return false;
  }
  for (std::size_t i = 0; i < f.arity(); ++i) {
    if (mentions_signal(f.arg(i), name, m)) return true;
  }
  return false;
}

}  // namespace

SignalCoverage CoverageEstimator::coverage(
    const std::vector<Formula>& properties, const ObservedSignal& q) {
  return coverage(properties, std::vector<ObservedSignal>{q});
}

SignalCoverage CoverageEstimator::coverage(
    const std::vector<Formula>& properties,
    const std::vector<ObservedSignal>& group) {
  SignalCoverage merged;
  merged.covered = fsm_.mgr().bdd_false();
  if (group.empty()) return merged;
  merged.signal = group.front();
  std::vector<Formula> collapsed;
  collapsed.reserve(properties.size());
  for (const Formula& f : properties) {
    collapsed.push_back(ctl::collapse_propositional(f));
  }
  for (const ObservedSignal& q : group) {
    std::size_t num_properties = 0;
    for (const Formula& f : collapsed) {
      if (!mentions_signal(f, q.name, fsm_.model())) continue;
      ++num_properties;
      merged.covered |= covered_set(f, q);
    }
    merged.num_properties = std::max(merged.num_properties, num_properties);
  }
  if (group.size() > 1) {
    merged.signal.bit.reset();  // Whole-word entry.
  }
  const double space = space_count();
  merged.covered_count = fsm_.count_states(merged.covered & coverage_space());
  merged.percent =
      space == 0.0 ? 100.0 : 100.0 * merged.covered_count / space;
  return merged;
}

CoverageReport CoverageEstimator::report(
    const std::vector<Formula>& properties,
    const std::vector<std::vector<ObservedSignal>>& groups) {
  CoverageReport rep;
  rep.coverage_space = coverage_space();
  rep.space_count = space_count();
  for (const auto& group : groups) {
    if (group.empty()) continue;
    rep.signals.push_back(coverage(properties, group));
  }
  return rep;
}

Bdd CoverageEstimator::uncovered(const Bdd& covered) {
  return coverage_space() - covered;
}

std::vector<std::string> CoverageEstimator::uncovered_examples(
    const Bdd& covered, std::size_t limit) {
  return fsm_.format_states(uncovered(covered), limit);
}

std::optional<fsm::Trace> CoverageEstimator::trace_to_uncovered(
    const Bdd& covered) {
  const Bdd holes = uncovered(covered);
  if (holes.is_false()) return std::nullopt;
  return fsm::shortest_trace(fsm_, fsm_.initial_states(), holes);
}

}  // namespace covest::core
