// Symbolic coverage estimation for model checking — the contribution of
// the paper (Section 3, Table 1).
//
// Given properties verified on an FSM and an observed signal q, the
// estimator computes the set of *covered states*: reachable states where
// the value of q is essential to the verified properties (flipping q's
// label there falsifies the observability-transformed property,
// Definitions 2-5). Coverage (Definition 4) is
//
//     |covered ∩ coverage space| / |coverage space| * 100,
//
// where the coverage space is the set of reachable states, restricted to
// fair paths when the model declares FAIRNESS constraints (Section 4.3)
// and excluding user DONTCARE states (Section 4.2).
//
// The algorithm recurses over the *original* formula (Table 1):
//
//   C(S0, b)          = S0 ∩ depend(b)
//   C(S0, b -> f)     = C(S0 ∩ T(b), f)
//   C(S0, AX f)       = C(forward(S0), f)
//   C(S0, AG f)       = C(reachable(S0), f)
//   C(S0, A[f U g])   = C(traverse(S0,f,g), f) ∪ C(firstreached(S0,g), g)
//   C(S0, f & g)      = C(S0, f) ∪ C(S0, g)
//
// with depend(b) = T(b) ∩ ¬T(b[q -> !q]); T(·) is the model checker's
// satisfaction set, memoized across verification and coverage (the reuse
// suggested in Section 3). All traversals are confined to fair states.
//
// Everything here has the same asymptotic cost as symbolic model
// checking: fix-point computations over BDDs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.h"
#include "core/observed.h"
#include "ctl/checker.h"
#include "ctl/ctl.h"
#include "fsm/trace.h"
#include "image/image.h"

namespace covest::core {

struct CoverageOptions {
  /// Intersect the coverage space with fair-path states (Section 4.3).
  bool restrict_to_fair = true;
  /// Exclude DONTCARE states from the coverage space (Section 4.2).
  bool exclude_dontcares = true;
  /// Throw if asked to cover a property the model does not satisfy
  /// (Definition 3 presupposes M |= f). When false, failing properties
  /// contribute an empty covered set instead.
  bool require_holds = true;
  /// The cluster visit order of the FSM an engine session elaborates
  /// (image/image.h). Not on the request wire: kChaining exists only as
  /// an in-process reference order for parity checks. Results are
  /// byte-identical across strategies; only the intermediates differ.
  image::ImageStrategy image_strategy = image::ImageStrategy::kPartitioned;
};

/// Coverage of one observed signal for a property suite.
struct SignalCoverage {
  ObservedSignal signal;
  std::size_t num_properties = 0;  ///< Properties that involved the signal.
  bdd::Bdd covered;                ///< Union of per-property covered sets.
  double covered_count = 0.0;      ///< |covered ∩ space|.
  double percent = 0.0;            ///< Definition 4.
};

/// Suite-level report: one row per observed signal (the shape of the
/// paper's Table 2).
struct CoverageReport {
  double space_count = 0.0;  ///< |coverage space|.
  bdd::Bdd coverage_space;
  std::vector<SignalCoverage> signals;
};

class CoverageEstimator {
 public:
  /// Shares the checker's FSM and memoized satisfaction sets.
  explicit CoverageEstimator(ctl::ModelChecker& checker,
                             CoverageOptions options = {});

  const CoverageOptions& options() const { return options_; }

  /// Covered set of a single verified property for observed signal `q`
  /// (Table 1, from the initial states). The result equals the
  /// Definition-3 covered set of the observability-transformed formula
  /// (Correctness Theorem), and is contained in the coverage space.
  bdd::Bdd covered_set(const ctl::Formula& f, const ObservedSignal& q);

  /// Union of covered sets over a property suite, with the Definition-4
  /// percentage for the coverage space: the one-bit group below.
  SignalCoverage coverage(const std::vector<ctl::Formula>& properties,
                          const ObservedSignal& q);

  /// One Table-2 row for a group of observed bits: the union of the
  /// per-bit covered sets (a word signal's row unions its bits,
  /// Section 2). This is the single per-signal aggregation and the one
  /// place a row is counted — the one-bit overload, `report()` and the
  /// engine facade all delegate here.
  SignalCoverage coverage(const std::vector<ctl::Formula>& properties,
                          const std::vector<ObservedSignal>& group);

  /// Multi-signal report (one Table-2 row per observed signal). A word
  /// signal's entry is the union over its bits.
  CoverageReport report(const std::vector<ctl::Formula>& properties,
                        const std::vector<std::vector<ObservedSignal>>& groups);

  /// Reachable (∩ fair ∩ ¬dontcare per options) states. Cached.
  const bdd::Bdd& coverage_space();
  /// |coverage space|, counted once per estimator.
  double space_count();

  /// Hands over `reachable` = reachable(initial states), computed by the
  /// caller, so the estimator does not run the same fixpoint again. It
  /// is adopted only when the fair restriction is vacuous (no FAIRNESS,
  /// or `restrict_to_fair` off): then the fair-restricted traversal from
  /// the initial states is that very set, as the same canonical BDD.
  /// Otherwise this is a no-op.
  void seed_reachable(const bdd::Bdd& reachable);

  /// Uncovered states for a covered set: space − covered.
  bdd::Bdd uncovered(const bdd::Bdd& covered);

  /// Human-readable sample of uncovered states ("sig=val ..."), at most
  /// `limit` entries — the paper's uncovered-state listing.
  std::vector<std::string> uncovered_examples(const bdd::Bdd& covered,
                                              std::size_t limit);

  /// Shortest input trace from an initial state to some uncovered state
  /// (Section 3's breadth-first trace generation); nullopt when fully
  /// covered.
  std::optional<fsm::Trace> trace_to_uncovered(const bdd::Bdd& covered);

 private:
  // Table-1 primitives (all confined to fair states).
  bdd::Bdd depend(const expr::Expr& atom, const ObservedSignal& q);
  bdd::Bdd forward_fair(const bdd::Bdd& s);
  bdd::Bdd reachable_fair(const bdd::Bdd& s);
  bdd::Bdd traverse(const bdd::Bdd& s0, const bdd::Bdd& t1,
                    const bdd::Bdd& t2);
  bdd::Bdd firstreached(const bdd::Bdd& s0, const bdd::Bdd& t2);
  bdd::Bdd covered_rec(const bdd::Bdd& s0, const ctl::Formula& f,
                       const ObservedSignal& q);

  ctl::ModelChecker& checker_;
  const fsm::SymbolicFsm& fsm_;
  CoverageOptions options_;
  std::optional<bdd::Bdd> space_;
  std::optional<double> space_count_;

  // Fix-point caches: property suites share start sets (every AG property
  // traverses reachable(init)), so memoizing the traversal primitives
  // keeps suite-level estimation linear in the number of properties.
  // Keys hold the operand handles alive so node indices cannot be reused
  // while an entry exists.
  struct ReachEntry {
    bdd::Bdd from;
    bdd::Bdd result;
  };
  std::unordered_map<bdd::NodeIndex, ReachEntry> reach_cache_;
  struct TraverseEntry {
    bdd::Bdd s0, t1, t2;
    bdd::Bdd result;
  };
  std::unordered_map<std::uint64_t, std::vector<TraverseEntry>>
      traverse_cache_;
  struct FirstEntry {
    bdd::Bdd s0, t2;
    bdd::Bdd result;
  };
  std::unordered_map<std::uint64_t, std::vector<FirstEntry>> first_cache_;
};

}  // namespace covest::core
