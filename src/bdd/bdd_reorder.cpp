// Dynamic variable reordering: in-place adjacent level swap and sifting.
//
// The swap is the classic Rudell construction: only nodes labelled with the
// upper variable that reference the lower variable are rewritten, in place,
// so node slots (and therefore all live `Bdd` handles, including
// complemented ones) stay valid and every node keeps its function.
//
// Complement edges interact benignly with the swap: the y-cofactors taken
// through a node's *high* edge are stored edges of a plain node, and the
// ones taken through the *low* edge get the low edge's complement bit
// folded in. The high argument of the rebuilt *high* branch (f11) is a
// stored high edge, hence plain — so make_node never complements
// new_high and the rewritten node keeps its polarity; new_low may come
// back complemented (f10 is a stored low edge), which is legal.
#include <algorithm>
#include <cassert>

#include "bdd/bdd.h"

namespace covest::bdd {

void BddManager::swap_adjacent_levels(unsigned lvl) {
  assert(lvl + 1 < level_to_var_.size());
  const Var x = level_to_var_[lvl];      // Upper variable, moving down.
  const Var y = level_to_var_[lvl + 1];  // Lower variable, moving up.

  // Collect the x-nodes that depend on y; all other x-nodes are untouched
  // (their level changes, but levels live in the manager's maps).
  std::vector<NodeIndex> affected;
  for (NodeIndex head : subtables_[x].buckets) {
    for (NodeIndex n = head; n != kInvalidIndex; n = node_at(n).next) {
      if (node_at(edge_node(node_at(n).low)).var == y ||
          node_at(edge_node(node_at(n).high)).var == y) {
        affected.push_back(n);
      }
    }
  }

  // Remove them from x's subtable first: their keys are about to change.
  for (NodeIndex n : affected) subtable_remove(x, n);

  for (NodeIndex n : affected) {
    const NodeIndex f0 = node_at(n).low;   // May be complemented.
    const NodeIndex f1 = node_at(n).high;  // Plain by canonicity.
    const bool low_is_y = node_at(edge_node(f0)).var == y;
    const bool high_is_y = node_at(f1).var == y;
    // Semantic y-cofactors of each branch (complement folded in).
    const NodeIndex f00 = low_is_y ? node_low(f0) : f0;
    const NodeIndex f01 = low_is_y ? node_high(f0) : f0;
    const NodeIndex f10 = high_is_y ? node_at(f1).low : f1;
    const NodeIndex f11 = high_is_y ? node_at(f1).high : f1;

    // n was (x ? f1 : f0); it becomes y ? (x ? f11 : f01) : (x ? f10 : f00),
    // the same function with y on top. f11 is a stored *high* edge,
    // hence plain — so the new_high make_node never complements its
    // result and n's polarity is preserved. f10 is a stored *low* edge
    // and may be complemented, so new_low can legally come back with
    // the complement bit set.
    const NodeIndex new_low = make_node(x, f00, f10);
    const NodeIndex new_high = make_node(x, f01, f11);
    assert(!edge_is_complemented(new_high) &&
           "swap must not flip the rewritten node's polarity");
    assert(new_low != new_high && "rewritten node must still depend on y");
    node_at(n).var = y;
    node_at(n).low = new_low;
    node_at(n).high = new_high;
    subtable_insert(y, n);
  }

  std::swap(level_to_var_[lvl], level_to_var_[lvl + 1]);
  var_to_level_[x] = lvl + 1;
  var_to_level_[y] = lvl;
  // The computed cache stays: every node keeps its function and nothing
  // was freed, so each memo still names a correct result. Garbage it may
  // reference is swept by the `gc()` that ends `set_order` and every
  // `reorder_sift` pass, and that collection clears the cache.
}

void BddManager::sift_var_to(Var v, unsigned target_level) {
  unsigned cur = var_to_level_[v];
  while (cur < target_level) {
    swap_adjacent_levels(cur);
    ++cur;
  }
  while (cur > target_level) {
    swap_adjacent_levels(cur - 1);
    --cur;
  }
}

std::size_t BddManager::reorder_sift(std::size_t max_vars) {
  assert(!scratch_.in_operation);
  gc();
  ++stats_.reorderings;

  const unsigned num_levels = static_cast<unsigned>(level_to_var_.size());
  if (num_levels < 2) return live_node_count();

  // Sift the most populous variables first (Rudell's heuristic).
  std::vector<Var> order(num_levels);
  for (Var v = 0; v < num_levels; ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [this](Var a, Var b) {
    return subtables_[a].count > subtables_[b].count;
  });
  if (max_vars != 0 && max_vars < order.size()) order.resize(max_vars);

  for (Var v : order) {
    // Swaps leave garbage behind, so position quality is judged on the
    // live (externally reachable) node count, not the subtable counts.
    std::size_t best_size = live_node_count();
    const std::size_t start_size = best_size;
    unsigned best_level = var_to_level_[v];

    // Walk to the bottom, then to the top, tracking the best position;
    // abort a direction when the live size has doubled (growth bound).
    // The up-walk is never aborted below the starting level: it must get
    // back through already-explored territory to reach fresh positions.
    const unsigned start_level = var_to_level_[v];
    unsigned cur = start_level;
    std::size_t size = best_size;
    while (cur + 1 < num_levels && size < 2 * start_size) {
      swap_adjacent_levels(cur);
      ++cur;
      size = live_node_count();
      if (size < best_size) {
        best_size = size;
        best_level = cur;
      }
    }
    while (cur > 0 && (cur > start_level || size < 2 * start_size)) {
      swap_adjacent_levels(cur - 1);
      --cur;
      size = live_node_count();
      if (size < best_size) {
        best_size = size;
        best_level = cur;
      }
    }
    sift_var_to(v, best_level);
    gc();  // Sweep the garbage before judging the next variable.
  }
  gc();
  return live_node_count();
}

void BddManager::set_order(const std::vector<Var>& order) {
  assert(order.size() == level_to_var_.size());
  for (unsigned target = 0; target < order.size(); ++target) {
    sift_var_to(order[target], target);
  }
  gc();
}

}  // namespace covest::bdd
