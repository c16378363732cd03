// Symbolic finite state machine over BDDs.
//
// A `Model` is *elaborated* into a `SymbolicFsm`: every signal bit gets a
// pair of BDD variables (current, next), interleaved so that related bits
// sit close together. Following SMV, primary inputs are part of the state
// space: a state is a valuation of all latch and input bits, and the
// transition relation
//
//   T((l, i), (l', i'))  =  /\_b  l'_b <-> f_b(l, i)
//
// leaves next-state inputs i' (and latches without a NEXT assignment)
// unconstrained. This makes the relation total, which the CTL layer's
// duality arguments rely on, and lets properties refer to input signals
// (as the paper's modulo-5 counter property does with `stall`/`reset`).
//
// Image computation goes through the partitioned image engine
// (image/image.h): elaboration derives a dependency matrix from each
// signal's next-state support, installs the static variable order that
// matrix suggests (current/next pairs move as blocks, so renaming stays
// a valid permutation), clusters the partial relations in dependency
// order, and precomputes early-quantification schedules. The
// `ImageStrategy` selects the order `forward`/`backward` visit those
// clusters in; both orders yield the identical canonical BDDs. The full
// conjunction of the parts is never built: traces label inputs by
// walking `backward` over the forward rings (fsm/trace.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.h"
#include "expr/bitblast.h"
#include "expr/expr.h"
#include "image/image.h"
#include "model/model.h"

namespace covest::fsm {

/// Bit-level layout of one model signal inside the FSM.
struct SignalLayout {
  std::string name;
  model::SignalKind kind = model::SignalKind::kState;
  bool is_bool = true;
  std::vector<bdd::Var> current;  ///< Current-state variables, LSB first.
  std::vector<bdd::Var> next;     ///< Next-state twins, parallel to current.
};

class SymbolicFsm {
 public:
  /// Elaborates a validated model. The FSM owns its BDD manager.
  /// `max_live_nodes` (0 = unlimited) becomes the manager's node budget
  /// before elaboration starts, so a pathological model cannot OOM even
  /// while building its transition relation — exhaustion throws
  /// covest::ResourceExhausted out of the constructor. `strategy`
  /// selects the cluster visit order for this FSM's whole life; results
  /// are byte-identical across strategies.
  /// The FSM keeps its own `model()`: move the model in when the caller
  /// has no further use for it.
  explicit SymbolicFsm(
      model::Model model, std::size_t max_live_nodes = 0,
      image::ImageStrategy strategy = image::ImageStrategy::kPartitioned);

  SymbolicFsm(const SymbolicFsm&) = delete;
  SymbolicFsm& operator=(const SymbolicFsm&) = delete;

  bdd::BddManager& mgr() const { return *mgr_; }
  const model::Model& model() const { return model_; }

  // -- Structure ---------------------------------------------------------------

  /// All current-state variables (latches then-interleaved with inputs,
  /// in declaration order). This is the CTL state space.
  const std::vector<bdd::Var>& current_vars() const { return current_vars_; }
  const std::vector<bdd::Var>& next_vars() const { return next_vars_; }

  const std::vector<SignalLayout>& layouts() const { return layouts_; }
  const SignalLayout& layout(const std::string& name) const;

  /// Initial states: INIT assignments/constraints on latches; inputs free.
  const bdd::Bdd& initial_states() const { return init_; }

  /// One conjunct per assigned latch bit: `next_bit <-> f(l, i)`, in
  /// declaration order (the partitioned engine re-orders internally).
  const std::vector<bdd::Bdd>& transition_parts() const { return parts_; }

  /// The clustered conjunctive relation behind forward/backward.
  const image::PartitionedRelation& relation() const { return rel_; }

  /// The dependency matrix (one row per partial relation, declaration
  /// order) elaboration derived the variable order and clustering from.
  const image::DependencyMatrix& dependency_matrix() const { return dep_; }

  /// Fairness constraint sets (over current vars), from the model.
  const std::vector<bdd::Bdd>& fairness() const { return fairness_; }

  /// Union of the model's DONTCARE propositions (false if none).
  const bdd::Bdd& dontcare() const { return dontcare_; }

  // -- Expression bridge ---------------------------------------------------------

  /// Bit-blasts an expression over the *current* state variables, with
  /// DEFINEs expanded. Throws on type errors.
  expr::BitVec blast(const expr::Expr& e) const;
  /// As `blast` but requires a boolean expression.
  bdd::Bdd blast_bool(const expr::Expr& e) const;

  // -- Set algebra ------------------------------------------------------------------

  /// States reachable in exactly one step from `states`
  /// (the paper's `forward(S0)`).
  bdd::Bdd forward(const bdd::Bdd& states) const;

  /// States with at least one successor inside `states` (EX states).
  bdd::Bdd backward(const bdd::Bdd& states) const;

  /// Least fixpoint of `forward` containing `from` (the paper's
  /// `reachable(S0)`), by frontier BFS.
  bdd::Bdd reachable(const bdd::Bdd& from) const;

  /// Breadth-first "onion rings": rings[0] = from, rings[k+1] = states
  /// first reached in k+1 steps. Stops early once `target` (if given) is
  /// intersected; used for shortest-path trace generation. The ring
  /// structure is part of the trace contract.
  std::vector<bdd::Bdd> forward_rings(
      const bdd::Bdd& from, const bdd::Bdd* target = nullptr) const;

  // -- Counting and naming --------------------------------------------------------------

  /// Number of states in `set`, counted over all current variables.
  double count_states(const bdd::Bdd& set) const;

  /// Decodes a full assignment of current vars into per-signal values.
  std::unordered_map<std::string, std::uint64_t> decode_state(
      const std::vector<std::pair<bdd::Var, bool>>& assignment) const;

  /// Renders a state set's first `limit` states like "count=3 stall=0".
  std::vector<std::string> format_states(const bdd::Bdd& set,
                                         std::size_t limit) const;

  /// Rename a set over current vars to next vars, and back.
  bdd::Bdd to_next(const bdd::Bdd& current_set) const;
  bdd::Bdd to_current(const bdd::Bdd& next_set) const;

  /// An input/latch assignment cube for one concrete state.
  bdd::Bdd state_cube(
      const std::vector<std::pair<bdd::Var, bool>>& assignment) const;

 private:
  void allocate_variables();
  void build_transition();
  void build_initial_states();
  void build_image_engine(image::ImageStrategy strategy);

  model::Model model_;
  std::unique_ptr<bdd::BddManager> mgr_;
  std::vector<SignalLayout> layouts_;
  std::unordered_map<std::string, std::size_t> layout_index_;

  std::vector<bdd::Var> current_vars_;
  std::vector<bdd::Var> next_vars_;
  std::vector<bdd::Var> perm_to_next_;     // var -> renamed var
  std::vector<bdd::Var> perm_to_current_;

  std::vector<bdd::Bdd> parts_;      ///< Declaration order.
  std::vector<bdd::Var> part_writes_;  ///< Next var per part, parallel.
  image::DependencyMatrix dep_;
  image::PartitionedRelation rel_;

  bdd::Bdd init_;
  std::vector<bdd::Bdd> fairness_;
  bdd::Bdd dontcare_;
};

}  // namespace covest::fsm
