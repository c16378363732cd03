// Symbolic CTL model checker with fairness.
//
// Computes satisfaction sets by the textbook fix-point characterisations
// (McMillan '93), existential operators first and universal operators by
// duality. Under Büchi fairness constraints {c_k} the checker switches to
// fair-CTL semantics:
//
//   fair        = EG_fair true   (states with some fair path)
//   EX_fair p   = EX (p & fair)
//   E[p U q]f   = E[p U (q & fair)]
//   EG_fair p   = Emerson-Lei: gfp Z. p & /\_k EX E[p U (Z & c_k)]
//
// Care set: a forward-closed set of states that contains the initial
// states (every successor of a care state is a care state). Every
// fixpoint is seeded and stepped inside it — E[p U q] runs from
// q & care through p & care, EG and Emerson-Lei start from p & care —
// so `sat(f)` is exact on the care set and unspecified outside it. By
// induction on the formula that is all any caller needs: `holds` tests
// only initial states, counterexamples and the coverage estimator only
// intersect satisfaction sets with states reached forward from the
// initial states. The care set defaults to all states (`x & true` is a
// terminal case of apply, so there is one code path); then `sat` has
// full-space semantics. `restrict_to_reachable` installs the reachable
// states instead. `engine::Session` opts in at the start of every cold
// verify phase; tests, the bench programs and any other direct caller
// keep the full-space checker.
//
// Satisfaction sets are memoized per formula node; the coverage estimator
// reuses the same checker instance so sub-formula results computed during
// verification are shared with coverage estimation — the memoization the
// paper recommends in Section 3.
//
// Thread safety: none inside. A checker is used by one thread at a
// time, the thread that owns its FSM's `BddManager` (bdd.h).
#pragma once

#include <cstddef>
#include <optional>
#include <unordered_map>

#include "bdd/bdd.h"
#include "ctl/ctl.h"
#include "fsm/symbolic_fsm.h"
#include "fsm/trace.h"

namespace covest::ctl {

/// Outcome of checking one property.
struct CheckResult {
  bool holds = false;
  /// For failed properties: a shortest path from an initial state to a
  /// reachable state violating the formula (meaningful for invariant-like
  /// failures; always a genuine reachable non-satisfying state).
  std::optional<fsm::Trace> counterexample;
};

class ModelChecker {
 public:
  explicit ModelChecker(const fsm::SymbolicFsm& fsm)
      : fsm_(fsm), care_(fsm.mgr().bdd_true()) {}

  const fsm::SymbolicFsm& fsm() const { return fsm_; }

  /// Satisfaction set of `f` (memoized); exact on the care set.
  bdd::Bdd sat(const Formula& f);

  /// Computes `reachable(initial_states())` on the first call, installs
  /// it as the care set and returns it; later calls return the same
  /// set. Memo entries computed before the call stay valid (they are
  /// exact everywhere). The fixpoint ticks the ambient governor; when
  /// it throws, the care set is left as it was.
  const bdd::Bdd& restrict_to_reachable();

  /// True when every initial state satisfies `f` (fair semantics when the
  /// model carries fairness constraints).
  bool holds(const Formula& f);

  /// `holds` plus a counterexample trace on failure.
  CheckResult check(const Formula& f);

  /// States with at least one fair path (all states when no fairness
  /// constraints are declared). Cached.
  const bdd::Bdd& fair_states();

  /// Number of memoized sub-formula satisfaction sets (for the
  /// memoization ablation benchmark).
  std::size_t memo_size() const { return memo_.size(); }
  void clear_memo() { memo_.clear(); }

 private:
  bdd::Bdd compute(const Formula& f);
  bdd::Bdd ex(const bdd::Bdd& p);                     // Fair EX.
  bdd::Bdd eu(const bdd::Bdd& p, const bdd::Bdd& q);  // Fair EU.
  bdd::Bdd eg(const bdd::Bdd& p);                     // Fair EG.
  bdd::Bdd eu_plain(const bdd::Bdd& p, const bdd::Bdd& q);
  bdd::Bdd eg_plain(const bdd::Bdd& p);

  const fsm::SymbolicFsm& fsm_;
  /// Keyed by *structural* formula hash/equality, so identical SPEC
  /// sub-formulas parsed separately share satisfaction sets across a
  /// suite, and the Formula keys keep their ASTs alive for free.
  std::unordered_map<Formula, bdd::Bdd, FormulaStructuralHash,
                     FormulaStructuralEq>
      memo_;
  std::optional<bdd::Bdd> fair_;
  /// All states, or the reachable states once restricted.
  bdd::Bdd care_;
  std::optional<bdd::Bdd> reachable_;
};

}  // namespace covest::ctl
