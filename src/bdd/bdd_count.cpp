// Model counting, minterm extraction and structural inspection.
//
// The coverage metric of the paper (Definition 4) is a ratio of two model
// counts over the state variables: |covered| / |reachable|.
//
// All traversals here follow the generation-stamp protocol (see bdd.h):
// visited state and memos live in flat scratch arrays, so none of these
// paths allocates per call once warmed up.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "bdd/bdd.h"

namespace covest::bdd {

// Satisfying-count recursion over a plain node slot. The memoized value
// counts assignments to the variables at the node's rank and below
// (rank = position of the node's level among the counted variables), so
// counts accumulate bottom-up starting at 1 — exact up to 2^53 like a
// classic count-based package, with no underflow for deep sparse
// functions (a pure fraction formulation would hit subnormals past
// ~1074 levels). Complement edges are resolved at each child: the
// negated count over k remaining variables is 2^k minus the plain one.
double BddManager::sat_count_rec(NodeIndex slot) {
  Scratch& sc = scratch_;
  if (sc.stamps[slot].gen == sc.generation) return sc.count_memo[slot];
  const std::uint32_t rank = sc.level_rank[var_to_level_[node_at(slot).var]];
  const std::uint32_t total = sc.level_rank[sc.level_rank.size() - 1];
  const auto child_count = [&](NodeIndex e) -> double {
    const NodeIndex child = edge_node(e);
    const std::uint32_t child_rank =
        child == 0 ? total : sc.level_rank[var_to_level_[node_at(child).var]];
    double n = child == 0 ? 1.0 : sat_count_rec(child);
    if (edge_is_complemented(e)) {
      n = std::exp2(static_cast<double>(total - child_rank)) - n;
    }
    // Skip the scaling for an unsatisfiable branch: with >1024 counted
    // variables below, the gap factor overflows to inf and 0 * inf is
    // NaN, not the 0 the sum needs.
    if (n == 0.0) return 0.0;
    // Variables skipped between this node and the child branch freely.
    return n * std::exp2(static_cast<double>(child_rank - rank - 1));
  };
  const double result =
      child_count(node_at(slot).low) + child_count(node_at(slot).high);
  sc.stamps[slot].gen = sc.generation;
  sc.count_memo[slot] = result;
  return result;
}

double BddManager::sat_count(const Bdd& f, const std::vector<Var>& over) {
  assert(f.manager() == this);
  // Inspection entries never trigger GC (allow_gc=false keeps the
  // historical collection timing).
  OpGate gate(*this, /*allow_gc=*/false);
#ifndef NDEBUG
  for (Var v : support(f)) {
    assert(std::find(over.begin(), over.end(), v) != over.end() &&
           "sat_count: support must be contained in the counted variables");
  }
#endif
  const double total_vars = static_cast<double>(over.size());
  if (f.is_false()) return 0.0;
  if (f.is_true()) return std::exp2(total_vars);

  Scratch& sc = scratch_;
  // Rank the counted variables by level in the reusable scratch
  // buffers (level_rank's last entry holds the total, for terminals).
  sc.level_scratch.clear();
  for (Var v : over) sc.level_scratch.push_back(var_to_level_[v]);
  std::sort(sc.level_scratch.begin(), sc.level_scratch.end());
  sc.level_rank.assign(level_to_var_.size() + 1, 0xffffffffu);
  for (std::size_t i = 0; i < sc.level_scratch.size(); ++i) {
    sc.level_rank[sc.level_scratch[i]] = static_cast<std::uint32_t>(i);
  }
  sc.level_rank[sc.level_rank.size() - 1] =
      static_cast<std::uint32_t>(sc.level_scratch.size());

  next_generation();  // Also sizes sc.stamps to the allocated pool.
  if (sc.count_memo.size() < sc.stamps.size()) {
    sc.count_memo.resize(sc.stamps.size());
  }
  const NodeIndex root = edge_node(f.index());
  const std::uint32_t root_rank =
      sc.level_rank[var_to_level_[node_at(root).var]];
  double n = sat_count_rec(root);
  if (edge_is_complemented(f.index())) {
    n = std::exp2(total_vars - static_cast<double>(root_rank)) - n;
  }
  // Variables ranked above the root branch freely.
  return n * std::exp2(static_cast<double>(root_rank));
}

std::vector<std::pair<Var, bool>> BddManager::sat_one(const Bdd& f) {
  assert(f.manager() == this);
  OpGate gate(*this, /*allow_gc=*/false);
  std::vector<std::pair<Var, bool>> result;
  // Walk with the complement parity folded into the edge, so terminal
  // tests against the canonical constants stay exact.
  NodeIndex e = f.index();
  while (!edge_is_terminal(e)) {
    if (node_low(e) != kFalseIndex) {
      result.emplace_back(node_var(e), false);
      e = node_low(e);
    } else {
      result.emplace_back(node_var(e), true);
      e = node_high(e);
    }
  }
  if (e == kFalseIndex) return {};
  return result;
}

std::vector<std::pair<Var, bool>> BddManager::pick_minterm(
    const Bdd& f, const std::vector<Var>& over) {
  assert(f.manager() == this && !f.is_false());
  OpGate gate(*this, /*allow_gc=*/false);
  // Walk one satisfying path, then default every unconstrained variable
  // to false so the result is a deterministic full assignment.
  std::vector<std::pair<Var, bool>> path = sat_one(f);
  std::vector<char> seen_value(num_vars(), -1);
  for (const auto& [v, val] : path) seen_value[v] = val ? 1 : 0;

  std::vector<std::pair<Var, bool>> result;
  result.reserve(over.size());
  for (Var v : over) {
    result.emplace_back(v, seen_value[v] == 1);
  }
  return result;
}

std::vector<std::vector<std::pair<Var, bool>>> BddManager::enumerate_minterms(
    const Bdd& f, const std::vector<Var>& over, std::size_t limit) {
  assert(f.manager() == this);
  OpGate gate(*this, /*allow_gc=*/false);
  std::vector<Var> by_level = over;
  std::sort(by_level.begin(), by_level.end(), [this](Var a, Var b) {
    return var_to_level_[a] < var_to_level_[b];
  });

  std::vector<std::vector<std::pair<Var, bool>>> out;
  std::vector<std::pair<Var, bool>> current;

  // DFS over the variable list; gap variables (not in f's support on this
  // path) branch both ways, so enumeration is exhaustive over `over`.
  // `n` is a semantic edge: the complement parity of the path so far is
  // already folded in, so the constant tests are exact.
  auto rec = [&](auto&& self, NodeIndex n, std::size_t i) -> bool {
    if (n == kFalseIndex) return true;
    if (i == by_level.size()) {
      assert(n == kTrueIndex);
      out.push_back(current);
      return out.size() < limit;
    }
    const Var v = by_level[i];
    const bool at_var = !edge_is_terminal(n) && node_var(n) == v;
    for (bool value : {false, true}) {
      const NodeIndex child =
          at_var ? (value ? node_high(n) : node_low(n)) : n;
      current.emplace_back(v, value);
      const bool keep_going = self(self, child, i + 1);
      current.pop_back();
      if (!keep_going) return false;
    }
    return true;
  };
  rec(rec, f.index(), 0);
  return out;
}

bool BddManager::eval(const Bdd& f, const std::vector<bool>& assignment) {
  assert(f.manager() == this);
  OpGate gate(*this, /*allow_gc=*/false);
  // Accumulate the complement parity along the path; the terminal node
  // denotes TRUE, so the final answer is the parity's inverse.
  NodeIndex e = f.index();
  bool complemented = false;
  while (!edge_is_terminal(e)) {
    complemented ^= edge_is_complemented(e);
    const Node& n = node_at(edge_node(e));
    assert(n.var < assignment.size());
    e = assignment[n.var] ? n.high : n.low;
  }
  complemented ^= edge_is_complemented(e);
  return !complemented;
}

std::vector<Var> BddManager::support(const Bdd& f) {
  assert(f.manager() == this);
  Scratch& sc = scratch_;
  OpGate gate(*this, /*allow_gc=*/false);
  // Stamp the support variables in the scratch var_gen; no per-call
  // bitmaps.
  sc.var_gen.resize(num_vars(), 0);
  next_generation();
  sc.work_stack.clear();
  sc.work_stack.push_back(edge_node(f.index()));
  while (!sc.work_stack.empty()) {
    const NodeIndex slot = sc.work_stack.back();
    sc.work_stack.pop_back();
    if (slot == 0 || sc.stamps[slot].gen == sc.generation) continue;
    sc.stamps[slot].gen = sc.generation;
    sc.var_gen[node_at(slot).var] = sc.generation;
    sc.work_stack.push_back(edge_node(node_at(slot).low));
    sc.work_stack.push_back(edge_node(node_at(slot).high));
  }
  std::vector<Var> result;
  for (Var v = 0; v < sc.var_gen.size(); ++v) {
    if (sc.var_gen[v] == sc.generation) result.push_back(v);
  }
  return result;
}

std::size_t BddManager::node_count(const Bdd& f) {
  assert(f.manager() == this);
  OpGate gate(*this, /*allow_gc=*/false);
  next_generation();
  return mark_reachable(f.index());
}

std::size_t BddManager::node_count(const std::vector<Bdd>& fs) {
  OpGate gate(*this, /*allow_gc=*/false);
  next_generation();
  std::size_t count = 0;
  for (const Bdd& f : fs) {
    assert(f.manager() == this);
    count += mark_reachable(f.index());
  }
  return count;
}

}  // namespace covest::bdd
