// Partitioned image computation: conjunctive transition relations and
// early quantification.
//
// The transition relation of a synchronous model is a conjunction of
// per-signal-bit partial relations
//
//   T((l, i), (l', i'))  =  /\_b  l'_b <-> f_b(l, i).
//
// Building the full conjunction (the *monolithic* relation) is the wall
// between toy models and circuit-scale inputs: the intermediate BDD
// routinely dwarfs every set it will ever be applied to. This subsystem
// keeps the relation partitioned instead:
//
//  * `DependencyMatrix` records, per partial relation, which
//    current-state/input variables its next-state function reads — the
//    classic rows-by-columns view (LTSmin's dm machinery). From it we
//    derive a static variable order (FORCE-style center-of-gravity over
//    current/next variable *pairs*, keeping each pair adjacent so the
//    cur<->next renaming stays a level-preserving permutation) and a
//    linear order of the partial relations for conjunction scheduling.
//  * `PartitionedRelation` clusters the ordered partials (greedy, up to
//    a node-count limit per cluster) and computes image/preimage with
//    IWLS95-style early quantification: each quantifiable variable is
//    existentially quantified at the *last* cluster whose support
//    mentions it, so the relational product never carries a variable
//    longer than it must.
//
// The strategy picks the order the clusters are visited in. Both orders
// produce the *identical canonical BDD* (the set is the set); they only
// differ in the shape and cost of the intermediates:
//
//  * kPartitioned — dependency order. The default, and the only order
//    reachable from the request wire.
//  * kChaining — topmost-support cluster first, with the
//    early-quantification schedule computed for that order. It is kept
//    as an in-process reference order for parity checks.
#pragma once

#include <cstddef>
#include <vector>

#include "bdd/bdd.h"

namespace covest::image {

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

enum class ImageStrategy {
  kPartitioned,  ///< Clusters in dependency order (default).
  kChaining,     ///< Clusters by topmost support level (reference order).
};

/// Spelling for messages: "partitioned", "chaining".
const char* to_string(ImageStrategy strategy) noexcept;

// ---------------------------------------------------------------------------
// Dependency matrix
// ---------------------------------------------------------------------------

/// One row per partial relation: the next-state variable it constrains
/// and the current-state/input variables its function reads.
struct DependencyRow {
  bdd::Var writes = 0;           ///< The next-state variable of the part.
  std::vector<bdd::Var> reads;   ///< Current-space support, sorted by id.
};

/// The variable order derived from a dependency matrix, plus the pair
/// ranks it was derived from (reused to order the partial relations).
struct VariableOrdering {
  /// Full order over all manager variables, top first: the current/next
  /// pair of rank 0, then the pair of rank 1, ... Pairs stay adjacent,
  /// so the cur<->next renaming remains a valid `permute`.
  std::vector<bdd::Var> order;
  /// pair_rank[p] = final position of declaration-order pair p.
  std::vector<std::size_t> pair_rank;
};

class DependencyMatrix {
 public:
  /// Builds the matrix from the partial relations' BDD supports.
  /// `writes[k]` names the next-state variable part k constrains;
  /// `is_next[v]` marks next-state variables (excluded from reads).
  static DependencyMatrix build(bdd::BddManager& mgr,
                                const std::vector<bdd::Bdd>& parts,
                                const std::vector<bdd::Var>& writes,
                                const std::vector<bool>& is_next);

  std::size_t rows() const { return rows_.size(); }
  const DependencyRow& row(std::size_t k) const { return rows_.at(k); }

  /// True when part `k` reads variable `v`.
  bool reads(std::size_t k, bdd::Var v) const;

  /// FORCE-style static order: pairs (current_vars[i], next_vars[i])
  /// are placed by iterated center-of-gravity over the rows touching
  /// them, re-ranked to integers every pass so the result is exactly
  /// reproducible. `passes` bounds the iteration.
  VariableOrdering derive_order(const std::vector<bdd::Var>& current_vars,
                                const std::vector<bdd::Var>& next_vars,
                                unsigned passes = 3) const;

  /// Dependency order of the parts for conjunction scheduling: sort by
  /// (deepest read/write pair rank, shallowest, declaration index), so
  /// a variable's last reader comes as early as the order allows and
  /// early quantification fires sooner.
  std::vector<std::size_t> part_order(const VariableOrdering& ordering) const;

 private:
  std::vector<DependencyRow> rows_;
};

// ---------------------------------------------------------------------------
// Partitioned relation
// ---------------------------------------------------------------------------

class PartitionedRelation {
 public:
  /// Cap on the node count of one cluster: small enough that clusters
  /// stay local, large enough that tiny parts coalesce.
  static constexpr std::size_t kClusterNodeLimit = 1024;

  PartitionedRelation() = default;

  /// Clusters `parts` (conjoined in `order`), fixes the cluster visit
  /// order `strategy` names and precomputes that order's early
  /// quantification schedules. `img_quantify` are the variables an
  /// image quantifies out (current + input), `pre_quantify` those a
  /// preimage does (next).
  void build(bdd::BddManager& mgr, const std::vector<bdd::Bdd>& parts,
             const std::vector<std::size_t>& order,
             const std::vector<bdd::Var>& img_quantify,
             const std::vector<bdd::Var>& pre_quantify,
             ImageStrategy strategy = ImageStrategy::kPartitioned);

  /// Image of `states` (over current/input vars): the successor set,
  /// still over *next* vars — the caller renames. Both visit orders
  /// return the identical canonical BDD.
  bdd::Bdd image(const bdd::Bdd& states) const;

  /// Preimage of `states_next` (over next vars): the predecessor set
  /// over current/input vars.
  bdd::Bdd preimage(const bdd::Bdd& states_next) const;

  // -- Introspection (PhaseStats, tests) -----------------------------------
  std::size_t partial_count() const { return partial_count_; }
  std::size_t cluster_count() const { return clusters_.size(); }
  /// Partial relations conjoined into the largest cluster.
  std::size_t largest_cluster() const;
  const std::vector<std::size_t>& parts_per_cluster() const {
    return parts_per_cluster_;
  }
  /// The order image and preimage visit the clusters in.
  const std::vector<std::size_t>& visit_order() const { return visit_; }
  /// Early-quantification cubes of the image schedule, parallel to
  /// `visit_order()`; exposed for the schedule unit tests.
  const std::vector<bdd::Bdd>& image_cubes() const {
    return sched_img_.cubes;
  }
  const bdd::Bdd& image_rest_cube() const { return sched_img_.rest; }

 private:
  /// An early-quantification plan: after conjoining cluster
  /// visit_[k], quantify cubes[k] (the variables whose last mention is
  /// in that cluster). `rest` holds the variables no cluster mentions —
  /// quantified straight out of the argument set.
  struct Schedule {
    std::vector<bdd::Bdd> cubes;  ///< Parallel to `visit_`.
    bdd::Bdd rest;
  };

  /// `supports[i]` is the support of `clusters_[i]`.
  Schedule make_schedule(const std::vector<bdd::Var>& quantify,
                         const std::vector<std::vector<bdd::Var>>& supports)
      const;
  bdd::Bdd apply(const bdd::Bdd& set, const Schedule& sched) const;

  bdd::BddManager* mgr_ = nullptr;
  std::vector<bdd::Bdd> clusters_;
  std::vector<std::size_t> parts_per_cluster_;
  std::size_t partial_count_ = 0;

  std::vector<std::size_t> visit_;  ///< Cluster indices, visit order.
  Schedule sched_img_;
  Schedule sched_pre_;
};

}  // namespace covest::image
