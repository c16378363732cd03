#include "ctl/checker.h"

#include <stdexcept>

#include "util/governance.h"

namespace covest::ctl {

using bdd::Bdd;

Bdd ModelChecker::sat(const Formula& f) {
  // Post-verification this is a pure memo hit: every sub-formula of a
  // checked suite is present.
  auto it = memo_.find(f);
  if (it != memo_.end()) return it->second;
  Bdd result = compute(f);
  memo_.emplace(f, result);
  return result;
}

Bdd ModelChecker::compute(const Formula& f) {
  switch (f.op()) {
    case CtlOp::kProp:
      return fsm_.blast_bool(f.prop());
    case CtlOp::kNot:
      return !sat(f.arg(0));
    case CtlOp::kAnd:
      return sat(f.arg(0)) & sat(f.arg(1));
    case CtlOp::kOr:
      return sat(f.arg(0)) | sat(f.arg(1));
    case CtlOp::kImplies:
      return sat(f.arg(0)).implies(sat(f.arg(1)));
    case CtlOp::kIff:
      return sat(f.arg(0)).iff(sat(f.arg(1)));
    case CtlOp::kEX:
      return ex(sat(f.arg(0)));
    case CtlOp::kAX:
      return !ex(!sat(f.arg(0)));
    case CtlOp::kEU:
      return eu(sat(f.arg(0)), sat(f.arg(1)));
    case CtlOp::kEF:
      return eu(fsm_.mgr().bdd_true(), sat(f.arg(0)));
    case CtlOp::kEG:
      return eg(sat(f.arg(0)));
    case CtlOp::kAG:
      return !eu(fsm_.mgr().bdd_true(), !sat(f.arg(0)));
    case CtlOp::kAF:
      return !eg(!sat(f.arg(0)));
    case CtlOp::kAU: {
      // A[p U q] = !(E[!q U (!p & !q)] | EG !q).
      const Bdd np = !sat(f.arg(0));
      const Bdd nq = !sat(f.arg(1));
      return !(eu(nq, np & nq) | eg(nq));
    }
  }
  throw std::logic_error("unhandled CTL operator");
}

const Bdd& ModelChecker::restrict_to_reachable() {
  // Engaged at most once, so the returned reference stays valid.
  if (!reachable_) {
    reachable_ = fsm_.reachable(fsm_.initial_states());
    care_ = *reachable_;
  }
  return *reachable_;
}

const Bdd& ModelChecker::fair_states() {
  // The optional is engaged at most once, so the returned reference
  // stays valid.
  if (!fair_) {
    // EG_fair true: Emerson-Lei over the trivial invariant.
    fair_ = fsm_.fairness().empty() ? fsm_.mgr().bdd_true()
                                    : eg(fsm_.mgr().bdd_true());
  }
  return *fair_;
}

Bdd ModelChecker::ex(const Bdd& p) {
  return fsm_.backward(p & fair_states());
}

Bdd ModelChecker::eu(const Bdd& p, const Bdd& q) {
  return eu_plain(p, q & fair_states());
}

Bdd ModelChecker::eu_plain(const Bdd& p, const Bdd& q) {
  // lfp Z. (q & care) | (p & care & EX Z), by frontier BFS: each round
  // preimages only the newly-added states, which suffices because
  // preimage distributes over union.
  const Bdd pc = p & care_;
  Bdd z = q & care_;
  Bdd frontier = z;
  while (!frontier.is_false()) {
    covest::governor_tick();
    frontier = (pc & fsm_.backward(frontier)) - z;
    z |= frontier;
  }
  return z;
}

Bdd ModelChecker::eg(const Bdd& p) {
  if (fsm_.fairness().empty()) return eg_plain(p);
  // Emerson-Lei: gfp Z. p & care & /\_k EX E[p U (Z & c_k)].
  const Bdd pc = p & care_;
  Bdd z = pc;
  while (true) {
    covest::governor_tick();
    Bdd next = pc;
    for (const Bdd& c : fsm_.fairness()) {
      next &= fsm_.backward(eu_plain(p, z & c));
    }
    if (next == z) return z;
    z = next;
  }
}

Bdd ModelChecker::eg_plain(const Bdd& p) {
  // gfp Z. p & care & EX Z.
  Bdd z = p & care_;
  while (true) {
    covest::governor_tick();
    const Bdd next = z & fsm_.backward(z);
    if (next == z) return z;
    z = next;
  }
}

bool ModelChecker::holds(const Formula& f) {
  return fsm_.initial_states().subset_of(sat(f));
}

CheckResult ModelChecker::check(const Formula& f) {
  CheckResult result;
  result.holds = holds(f);
  if (!result.holds) {
    // Recurse into the first failing conjunct (property suites are often
    // conjunctions of AG implications); for AG g the classic
    // counterexample is a shortest path to a reachable state violating
    // the body g; otherwise a reachable state outside sat(f). No
    // reachability fixpoint is needed: shortest_trace only intersects
    // the target with forward rings from the initial states, which are
    // reachable (and so inside any care set).
    if (f.op() == CtlOp::kAnd) {
      return check(holds(f.arg(0)) ? f.arg(1) : f.arg(0));
    }
    const Bdd bad = f.op() == CtlOp::kAG ? !sat(f.arg(0)) : !sat(f);
    result.counterexample =
        fsm::shortest_trace(fsm_, fsm_.initial_states(), bad);
  }
  return result;
}

}  // namespace covest::ctl
