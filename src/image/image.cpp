#include "image/image.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "util/governance.h"

namespace covest::image {

using bdd::Bdd;
using bdd::Var;

// ---------------------------------------------------------------------------
// Strategy spellings
// ---------------------------------------------------------------------------

const char* to_string(ImageStrategy strategy) noexcept {
  return strategy == ImageStrategy::kChaining ? "chaining" : "partitioned";
}

// ---------------------------------------------------------------------------
// DependencyMatrix
// ---------------------------------------------------------------------------

DependencyMatrix DependencyMatrix::build(bdd::BddManager& mgr,
                                         const std::vector<Bdd>& parts,
                                         const std::vector<Var>& writes,
                                         const std::vector<bool>& is_next) {
  if (parts.size() != writes.size()) {
    throw std::invalid_argument(
        "DependencyMatrix: one written variable per partial relation");
  }
  DependencyMatrix dm;
  dm.rows_.reserve(parts.size());
  for (std::size_t k = 0; k < parts.size(); ++k) {
    DependencyRow row;
    row.writes = writes[k];
    for (const Var v : mgr.support(parts[k])) {  // Sorted by id.
      if (v < is_next.size() && is_next[v]) continue;
      row.reads.push_back(v);
    }
    dm.rows_.push_back(std::move(row));
  }
  return dm;
}

bool DependencyMatrix::reads(std::size_t k, Var v) const {
  const std::vector<Var>& r = rows_.at(k).reads;
  return std::binary_search(r.begin(), r.end(), v);
}

VariableOrdering DependencyMatrix::derive_order(
    const std::vector<Var>& current_vars, const std::vector<Var>& next_vars,
    unsigned passes) const {
  if (current_vars.size() != next_vars.size()) {
    throw std::invalid_argument(
        "derive_order: current/next variable lists must be parallel");
  }
  const std::size_t pairs = current_vars.size();

  // Map a variable id to its pair index.
  std::size_t max_var = 0;
  for (const Var v : current_vars) max_var = std::max<std::size_t>(max_var, v);
  for (const Var v : next_vars) max_var = std::max<std::size_t>(max_var, v);
  constexpr std::size_t kNoPair = static_cast<std::size_t>(-1);
  std::vector<std::size_t> pair_of(max_var + 1, kNoPair);
  for (std::size_t i = 0; i < pairs; ++i) {
    pair_of[current_vars[i]] = i;
    pair_of[next_vars[i]] = i;
  }

  // The pairs each row touches: its written pair plus every read pair.
  std::vector<std::vector<std::size_t>> row_pairs(rows_.size());
  std::vector<std::vector<std::size_t>> pair_rows(pairs);
  for (std::size_t k = 0; k < rows_.size(); ++k) {
    const auto touch = [&](Var v) {
      if (v >= pair_of.size() || pair_of[v] == kNoPair) return;
      const std::size_t p = pair_of[v];
      if (!row_pairs[k].empty() && row_pairs[k].back() == p) return;
      row_pairs[k].push_back(p);
    };
    touch(rows_[k].writes);
    for (const Var v : rows_[k].reads) touch(v);
    std::sort(row_pairs[k].begin(), row_pairs[k].end());
    row_pairs[k].erase(
        std::unique(row_pairs[k].begin(), row_pairs[k].end()),
        row_pairs[k].end());
    for (const std::size_t p : row_pairs[k]) pair_rows[p].push_back(k);
  }

  // FORCE: iterate center-of-gravity, re-ranking to integer positions
  // after every pass so the derivation is exactly reproducible (no
  // accumulated floating-point drift across passes).
  VariableOrdering out;
  out.pair_rank.resize(pairs);
  for (std::size_t i = 0; i < pairs; ++i) out.pair_rank[i] = i;
  for (unsigned pass = 0; pass < passes; ++pass) {
    std::vector<double> row_center(rows_.size(), 0.0);
    for (std::size_t k = 0; k < rows_.size(); ++k) {
      if (row_pairs[k].empty()) continue;
      double sum = 0.0;
      for (const std::size_t p : row_pairs[k]) {
        sum += static_cast<double>(out.pair_rank[p]);
      }
      row_center[k] = sum / static_cast<double>(row_pairs[k].size());
    }
    std::vector<std::pair<double, std::size_t>> keyed(pairs);
    for (std::size_t p = 0; p < pairs; ++p) {
      double key;
      if (pair_rows[p].empty()) {
        key = static_cast<double>(out.pair_rank[p]);  // Untouched: stay put.
      } else {
        double sum = 0.0;
        for (const std::size_t k : pair_rows[p]) sum += row_center[k];
        key = sum / static_cast<double>(pair_rows[p].size());
      }
      keyed[p] = {key, p};
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) {
                       if (a.first != b.first) return a.first < b.first;
                       return a.second < b.second;
                     });
    for (std::size_t rank = 0; rank < pairs; ++rank) {
      out.pair_rank[keyed[rank].second] = rank;
    }
  }

  out.order.resize(2 * pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    out.order[2 * out.pair_rank[i]] = current_vars[i];
    out.order[2 * out.pair_rank[i] + 1] = next_vars[i];
  }
  return out;
}

std::vector<std::size_t> DependencyMatrix::part_order(
    const VariableOrdering& ordering) const {
  std::size_t max_var = 0;
  for (const Var v : ordering.order) max_var = std::max<std::size_t>(max_var, v);
  constexpr std::size_t kNoRank = static_cast<std::size_t>(-1);
  std::vector<std::size_t> rank_of(max_var + 1, kNoRank);
  for (std::size_t pos = 0; pos < ordering.order.size(); ++pos) {
    rank_of[ordering.order[pos]] = pos / 2;  // Pair rank.
  }
  struct Key {
    std::size_t deepest;
    std::size_t shallowest;
    std::size_t index;
  };
  std::vector<Key> keys(rows_.size());
  for (std::size_t k = 0; k < rows_.size(); ++k) {
    std::size_t lo = kNoRank, hi = 0;
    const auto visit = [&](Var v) {
      if (v >= rank_of.size() || rank_of[v] == kNoRank) return;
      lo = std::min(lo, rank_of[v]);
      hi = std::max(hi, rank_of[v]);
    };
    visit(rows_[k].writes);
    for (const Var v : rows_[k].reads) visit(v);
    if (lo == kNoRank) lo = hi = 0;  // Constant part: front of the order.
    keys[k] = {hi, lo, k};
  }
  std::vector<std::size_t> order(rows_.size());
  for (std::size_t k = 0; k < rows_.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(),
                   [&keys](std::size_t a, std::size_t b) {
                     if (keys[a].deepest != keys[b].deepest) {
                       return keys[a].deepest < keys[b].deepest;
                     }
                     if (keys[a].shallowest != keys[b].shallowest) {
                       return keys[a].shallowest < keys[b].shallowest;
                     }
                     return keys[a].index < keys[b].index;
                   });
  return order;
}

// ---------------------------------------------------------------------------
// PartitionedRelation
// ---------------------------------------------------------------------------

void PartitionedRelation::build(bdd::BddManager& mgr,
                                const std::vector<Bdd>& parts,
                                const std::vector<std::size_t>& order,
                                const std::vector<Var>& img_quantify,
                                const std::vector<Var>& pre_quantify,
                                ImageStrategy strategy) {
  if (order.size() != parts.size()) {
    throw std::invalid_argument(
        "PartitionedRelation: `order` must permute the parts");
  }
  mgr_ = &mgr;
  partial_count_ = parts.size();
  clusters_.clear();
  parts_per_cluster_.clear();

  // Greedy clustering in the given order: grow a cluster until its
  // conjunction would exceed the node limit, then seal it. A single
  // oversized part still gets its own cluster.
  std::optional<Bdd> acc;
  std::size_t acc_parts = 0;
  const auto seal = [&] {
    if (!acc) return;
    clusters_.push_back(*acc);
    parts_per_cluster_.push_back(acc_parts);
    acc.reset();
    acc_parts = 0;
  };
  for (const std::size_t k : order) {
    covest::governor_tick();
    const Bdd& p = parts.at(k);
    if (!acc) {
      acc = p;
      acc_parts = 1;
      continue;
    }
    const Bdd grown = *acc & p;
    if (mgr.node_count(grown) > kClusterNodeLimit) {
      seal();
      acc = p;
      acc_parts = 1;
    } else {
      acc = grown;
      ++acc_parts;
    }
  }
  seal();

  // One support traversal per cluster serves the visit order and both
  // schedules.
  std::vector<std::vector<Var>> supports;
  supports.reserve(clusters_.size());
  for (const Bdd& c : clusters_) supports.push_back(mgr.support(c));

  // Dependency order, or for chaining the clusters sorted by the topmost
  // level their support reaches (saturation-style "fire the shallowest
  // relation first"), ties by dependency position.
  visit_.resize(clusters_.size());
  for (std::size_t i = 0; i < visit_.size(); ++i) visit_[i] = i;
  if (strategy == ImageStrategy::kChaining) {
    std::vector<unsigned> top(clusters_.size(), 0);
    for (std::size_t i = 0; i < clusters_.size(); ++i) {
      unsigned best = static_cast<unsigned>(-1);
      for (const Var v : supports[i]) best = std::min(best, mgr.level_of(v));
      top[i] = best;
    }
    std::stable_sort(visit_.begin(), visit_.end(),
                     [&top](std::size_t a, std::size_t b) {
                       if (top[a] != top[b]) return top[a] < top[b];
                       return a < b;
                     });
  }

  sched_img_ = make_schedule(img_quantify, supports);
  sched_pre_ = make_schedule(pre_quantify, supports);
}

PartitionedRelation::Schedule PartitionedRelation::make_schedule(
    const std::vector<Var>& quantify,
    const std::vector<std::vector<Var>>& supports) const {
  // For each variable to quantify, find the last visited cluster whose
  // support contains it; it can be quantified out right after that
  // cluster is conjoined (early quantification). Variables in no
  // cluster are quantified directly from the argument set.
  std::vector<int> last(mgr_->num_vars(), -1);
  for (std::size_t pos = 0; pos < visit_.size(); ++pos) {
    for (const Var v : supports[visit_[pos]]) {
      last[v] = static_cast<int>(pos);
    }
  }
  std::vector<std::vector<Var>> per_pos(visit_.size());
  std::vector<Var> rest;
  for (const Var v : quantify) {
    if (last[v] >= 0) {
      per_pos[static_cast<std::size_t>(last[v])].push_back(v);
    } else {
      rest.push_back(v);
    }
  }
  Schedule sched;
  for (const auto& vars : per_pos) sched.cubes.push_back(mgr_->cube(vars));
  sched.rest = mgr_->cube(rest);
  return sched;
}

bdd::Bdd PartitionedRelation::apply(const Bdd& set,
                                    const Schedule& sched) const {
  Bdd x = mgr_->exists(set, sched.rest);
  for (std::size_t pos = 0; pos < visit_.size(); ++pos) {
    x = mgr_->and_exists(x, clusters_[visit_[pos]], sched.cubes[pos]);
  }
  return x;
}

bdd::Bdd PartitionedRelation::image(const Bdd& states) const {
  return apply(states, sched_img_);
}

bdd::Bdd PartitionedRelation::preimage(const Bdd& states_next) const {
  return apply(states_next, sched_pre_);
}

std::size_t PartitionedRelation::largest_cluster() const {
  std::size_t best = 0;
  for (const std::size_t n : parts_per_cluster_) best = std::max(best, n);
  return best;
}

}  // namespace covest::image
