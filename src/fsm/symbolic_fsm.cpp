#include "fsm/symbolic_fsm.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "util/governance.h"

namespace covest::fsm {

using bdd::Bdd;
using bdd::Var;

SymbolicFsm::SymbolicFsm(model::Model model, std::size_t max_live_nodes,
                         image::ImageStrategy strategy)
    : model_(std::move(model)), mgr_(std::make_unique<bdd::BddManager>()) {
  mgr_->set_max_live_nodes(max_live_nodes);
  model_.validate();
  allocate_variables();
  build_transition();
  build_image_engine(strategy);
  build_initial_states();

  for (const expr::Expr& f : model_.fairness()) {
    fairness_.push_back(blast_bool(f));
  }
  dontcare_ = mgr_->bdd_false();
  for (const expr::Expr& d : model_.dontcares()) {
    dontcare_ |= blast_bool(d);
  }
}

void SymbolicFsm::allocate_variables() {
  for (const model::Signal& s : model_.signals()) {
    if (s.kind == model::SignalKind::kDefine) continue;
    SignalLayout layout;
    layout.name = s.name;
    layout.kind = s.kind;
    layout.is_bool = s.type.is_bool;
    const unsigned width = s.type.is_bool ? 1 : s.type.width;
    for (unsigned i = 0; i < width; ++i) {
      const std::string bit_name =
          width == 1 ? s.name : s.name + "[" + std::to_string(i) + "]";
      // Interleave current and next: good static order for transition
      // relations, and adjacent-pair renaming stays cheap.
      const Var cur = mgr_->new_var(bit_name);
      const Var nxt = mgr_->new_var(bit_name + "'");
      layout.current.push_back(cur);
      layout.next.push_back(nxt);
      current_vars_.push_back(cur);
      next_vars_.push_back(nxt);
    }
    layout_index_.emplace(layout.name, layouts_.size());
    layouts_.push_back(std::move(layout));
  }

  perm_to_next_.resize(mgr_->num_vars());
  perm_to_current_.resize(mgr_->num_vars());
  for (Var v = 0; v < mgr_->num_vars(); ++v) {
    perm_to_next_[v] = v;
    perm_to_current_[v] = v;
  }
  for (std::size_t i = 0; i < current_vars_.size(); ++i) {
    perm_to_next_[current_vars_[i]] = next_vars_[i];
    perm_to_current_[next_vars_[i]] = current_vars_[i];
  }
}

const SignalLayout& SymbolicFsm::layout(const std::string& name) const {
  auto it = layout_index_.find(name);
  if (it == layout_index_.end()) {
    throw std::runtime_error("no such signal in FSM: '" + name + "'");
  }
  return layouts_[it->second];
}

expr::BitVec SymbolicFsm::blast(const expr::Expr& e) const {
  const expr::Expr expanded = model_.expand_defines(e);
  return expr::bit_blast(
      expanded, *mgr_,
      [this](const std::string& name) -> expr::BitVec {
        auto it = layout_index_.find(name);
        if (it == layout_index_.end()) return {};
        const SignalLayout& l = layouts_[it->second];
        expr::BitVec bits;
        bits.is_bool = l.is_bool;
        for (Var v : l.current) bits.bits.push_back(mgr_->var(v));
        return bits;
      },
      model_.type_resolver());
}

bdd::Bdd SymbolicFsm::blast_bool(const expr::Expr& e) const {
  const expr::BitVec v = blast(e);
  if (!v.is_bool || v.bits.size() != 1) {
    throw std::runtime_error("expected a boolean expression: " +
                             expr::to_string(e));
  }
  return v.bits[0];
}

void SymbolicFsm::build_transition() {
  for (const model::Signal& s : model_.signals()) {
    if (s.kind != model::SignalKind::kState || !s.next.valid()) continue;
    const SignalLayout& l = layout(s.name);
    expr::BitVec bits = blast(s.next);
    while (bits.bits.size() < l.next.size()) {
      bits.bits.push_back(mgr_->bdd_false());  // Zero-extend narrow results.
    }
    for (std::size_t i = 0; i < l.next.size(); ++i) {
      parts_.push_back(mgr_->var(l.next[i]).iff(bits.bits[i]));
      part_writes_.push_back(l.next[i]);
    }
  }
}

void SymbolicFsm::build_image_engine(image::ImageStrategy strategy) {
  // Dependency matrix from the parts' actual BDD supports (not the
  // declaration order): which current/input variables each next-state
  // bit reads.
  std::vector<bool> is_next(mgr_->num_vars(), false);
  for (const Var v : next_vars_) is_next[v] = true;
  dep_ = image::DependencyMatrix::build(*mgr_, parts_, part_writes_, is_next);

  // Static variable order: FORCE-style placement of the current/next
  // pairs. Installing it now — before the initial states, fairness and
  // property sets are built — keeps the one reordering pass cheap. The
  // order is a function of the model alone (never of the strategy), so
  // cross-strategy byte-identity is unaffected.
  const image::VariableOrdering ordering =
      dep_.derive_order(current_vars_, next_vars_);
  if (!ordering.order.empty()) mgr_->set_order(ordering.order);

  rel_.build(*mgr_, parts_, dep_.part_order(ordering), current_vars_,
             next_vars_, strategy);
}

void SymbolicFsm::build_initial_states() {
  std::vector<Bdd> conjuncts;
  for (const model::Signal& s : model_.signals()) {
    if (s.kind != model::SignalKind::kState || !s.init.valid()) continue;
    const SignalLayout& l = layout(s.name);
    expr::BitVec bits = blast(s.init);
    while (bits.bits.size() < l.current.size()) {
      bits.bits.push_back(mgr_->bdd_false());
    }
    for (std::size_t i = 0; i < l.current.size(); ++i) {
      conjuncts.push_back(mgr_->var(l.current[i]).iff(bits.bits[i]));
    }
  }
  for (const expr::Expr& c : model_.init_constraints()) {
    conjuncts.push_back(blast_bool(c));
  }
  // Conjoin deepest top level first: each step then adds nodes above the
  // partial product instead of rebuilding it under a deeper conjunct (the
  // static order is installed by now, so declaration order is arbitrary).
  const auto top = [this](const Bdd& b) {
    return b.is_terminal() ? static_cast<unsigned>(-1)
                           : mgr_->level_of(b.top_var());
  };
  std::stable_sort(conjuncts.begin(), conjuncts.end(),
                   [&top](const Bdd& a, const Bdd& b) {
                     return top(a) > top(b);
                   });
  init_ = mgr_->bdd_true();
  for (const Bdd& c : conjuncts) init_ &= c;
  if (init_.is_false()) {
    throw std::runtime_error("model '" + model_.name() +
                             "' has no initial states");
  }
}

Bdd SymbolicFsm::to_next(const Bdd& current_set) const {
  return mgr_->permute(current_set, perm_to_next_);
}

Bdd SymbolicFsm::to_current(const Bdd& next_set) const {
  return mgr_->permute(next_set, perm_to_current_);
}

Bdd SymbolicFsm::forward(const Bdd& states) const {
  return to_current(rel_.image(states));
}

Bdd SymbolicFsm::backward(const Bdd& states) const {
  return rel_.preimage(to_next(states));
}

Bdd SymbolicFsm::reachable(const Bdd& from) const {
  Bdd reached = from;
  Bdd frontier = from;
  while (!frontier.is_false()) {
    covest::governor_tick();
    const Bdd image = forward(frontier);
    frontier = image - reached;
    reached |= frontier;
  }
  return reached;
}

std::vector<Bdd> SymbolicFsm::forward_rings(const Bdd& from,
                                            const Bdd* target) const {
  std::vector<Bdd> rings{from};
  Bdd reached = from;
  if (target != nullptr && from.intersects(*target)) return rings;
  while (true) {
    covest::governor_tick();
    const Bdd frontier = forward(rings.back()) - reached;
    if (frontier.is_false()) break;
    rings.push_back(frontier);
    reached |= frontier;
    if (target != nullptr && frontier.intersects(*target)) break;
  }
  return rings;
}

double SymbolicFsm::count_states(const Bdd& set) const {
  return mgr_->sat_count(set, current_vars_);
}

std::unordered_map<std::string, std::uint64_t> SymbolicFsm::decode_state(
    const std::vector<std::pair<Var, bool>>& assignment) const {
  std::unordered_map<Var, bool> value;
  for (const auto& [v, b] : assignment) value[v] = b;
  std::unordered_map<std::string, std::uint64_t> result;
  for (const SignalLayout& l : layouts_) {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < l.current.size(); ++i) {
      auto it = value.find(l.current[i]);
      if (it != value.end() && it->second) word |= (1ull << i);
    }
    result.emplace(l.name, word);
  }
  return result;
}

std::vector<std::string> SymbolicFsm::format_states(const Bdd& set,
                                                    std::size_t limit) const {
  std::vector<std::string> out;
  for (const auto& minterm :
       mgr_->enumerate_minterms(set, current_vars_, limit)) {
    const auto values = decode_state(minterm);
    std::ostringstream os;
    bool first = true;
    for (const SignalLayout& l : layouts_) {
      if (!first) os << " ";
      os << l.name << "=" << values.at(l.name);
      first = false;
    }
    out.push_back(os.str());
  }
  return out;
}

Bdd SymbolicFsm::state_cube(
    const std::vector<std::pair<Var, bool>>& assignment) const {
  Bdd cube = mgr_->bdd_true();
  for (const auto& [v, b] : assignment) cube &= mgr_->literal(v, b);
  return cube;
}

}  // namespace covest::fsm
