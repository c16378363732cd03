// Unit tests for the partitioned image engine (src/image): dependency-
// matrix derivation from next-state supports, the FORCE-derived static
// variable order, early-quantification schedules, cluster-order
// determinism, and visit-order parity — both cluster orders must return
// the identical canonical BDD for every image/preimage/fix-point, and so
// must the full conjunction of the parts, because the set is the set
// regardless of how the relational product was scheduled.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "circuits/circuits.h"
#include "fsm/symbolic_fsm.h"
#include "image/image.h"
#include "model/model.h"

namespace covest {
namespace {

using bdd::Bdd;
using bdd::Var;
using expr::Expr;
using image::ImageStrategy;

// --------------------------------------------------------------------------
// Strategy spellings
// --------------------------------------------------------------------------

TEST(ImageStrategyTest, Spellings) {
  EXPECT_STREQ(image::to_string(ImageStrategy::kPartitioned), "partitioned");
  EXPECT_STREQ(image::to_string(ImageStrategy::kChaining), "chaining");
}

// --------------------------------------------------------------------------
// Dependency matrix on a hand-built model
// --------------------------------------------------------------------------

/// x' = y, y' = x & in, z' = z: one row per state bit with known reads.
model::Model chain_model() {
  model::ModelBuilder b("chain");
  const Expr x = b.state_bool("x", false);
  const Expr y = b.state_bool("y", false);
  const Expr z = b.state_bool("z", true);
  const Expr in = b.input_bool("in");
  b.next("x", y);
  b.next("y", x & in);
  b.next("z", z);
  return b.build();
}

TEST(DependencyMatrixTest, RowsRecordNextStateSupport) {
  const fsm::SymbolicFsm f(chain_model());
  const image::DependencyMatrix& dep = f.dependency_matrix();
  ASSERT_EQ(dep.rows(), 3u);

  const Var x = f.layout("x").current[0];
  const Var y = f.layout("y").current[0];
  const Var z = f.layout("z").current[0];
  const Var in = f.layout("in").current[0];

  // Parts are built in declaration order: x', y', z'.
  EXPECT_EQ(dep.row(0).writes, f.layout("x").next[0]);
  EXPECT_EQ(dep.row(0).reads, (std::vector<Var>{y}));
  EXPECT_EQ(dep.row(1).writes, f.layout("y").next[0]);
  std::vector<Var> yr = {x, in};
  std::sort(yr.begin(), yr.end());
  EXPECT_EQ(dep.row(1).reads, yr);
  EXPECT_EQ(dep.row(2).writes, f.layout("z").next[0]);
  EXPECT_EQ(dep.row(2).reads, (std::vector<Var>{z}));

  EXPECT_TRUE(dep.reads(0, y));
  EXPECT_FALSE(dep.reads(0, x));
  EXPECT_FALSE(dep.reads(2, in));
}

TEST(DependencyMatrixTest, DerivedOrderKeepsPairsAdjacent) {
  const fsm::SymbolicFsm f(chain_model());
  const image::VariableOrdering ordering =
      f.dependency_matrix().derive_order(f.current_vars(), f.next_vars());
  ASSERT_EQ(ordering.order.size(), 2 * f.current_vars().size());
  ASSERT_EQ(ordering.pair_rank.size(), f.current_vars().size());

  // Every (current, next) pair occupies adjacent positions, current on
  // top — the invariant that keeps cur<->next renaming a valid permute.
  for (std::size_t i = 0; i < f.current_vars().size(); ++i) {
    const std::size_t rank = ordering.pair_rank[i];
    EXPECT_EQ(ordering.order[2 * rank], f.current_vars()[i]);
    EXPECT_EQ(ordering.order[2 * rank + 1], f.next_vars()[i]);
  }

  // The order is a permutation of all pair variables.
  std::set<Var> seen(ordering.order.begin(), ordering.order.end());
  EXPECT_EQ(seen.size(), ordering.order.size());
}

TEST(DependencyMatrixTest, DerivationIsDeterministic) {
  const fsm::SymbolicFsm a(
      circuits::make_token_ring(circuits::TokenRingSpec{8, 2}));
  const fsm::SymbolicFsm b(
      circuits::make_token_ring(circuits::TokenRingSpec{8, 2}));
  const image::VariableOrdering oa =
      a.dependency_matrix().derive_order(a.current_vars(), a.next_vars());
  const image::VariableOrdering ob =
      b.dependency_matrix().derive_order(b.current_vars(), b.next_vars());
  EXPECT_EQ(oa.order, ob.order);
  EXPECT_EQ(oa.pair_rank, ob.pair_rank);
  EXPECT_EQ(a.dependency_matrix().part_order(oa),
            b.dependency_matrix().part_order(ob));
}

// --------------------------------------------------------------------------
// Early-quantification schedules
// --------------------------------------------------------------------------

/// The product of all per-cluster cubes and the rest cube must be
/// exactly the cube of every image-quantified variable — each variable
/// quantified once, none forgotten.
TEST(PartitionedRelationTest, ImageCubesPartitionTheQuantifiedVariables) {
  for (const auto& m :
       {circuits::make_token_ring(circuits::TokenRingSpec{8, 2}),
        circuits::make_circular_queue(circuits::CircularQueueSpec{3}),
        circuits::make_pipeline(circuits::PipelineSpec{})}) {
    const fsm::SymbolicFsm f(m);
    const image::PartitionedRelation& rel = f.relation();
    ASSERT_GT(rel.cluster_count(), 0u);
    ASSERT_EQ(rel.image_cubes().size(), rel.cluster_count());

    Bdd product = rel.image_rest_cube();
    std::set<Var> seen;
    for (const Var v : f.mgr().support(product)) seen.insert(v);
    for (const Bdd& cube : rel.image_cubes()) {
      for (const Var v : f.mgr().support(cube)) {
        EXPECT_TRUE(seen.insert(v).second)
            << "variable " << v << " scheduled twice in " << m.name();
      }
      product &= cube;
    }

    // An image quantifies the whole current space — state bits and
    // inputs alike (inputs are allocated as current/next pairs too).
    EXPECT_EQ(product, f.mgr().cube(f.current_vars())) << m.name();
  }
}

TEST(PartitionedRelationTest, ClusteringIsDeterministicAndComplete) {
  const model::Model m =
      circuits::make_token_ring(circuits::TokenRingSpec{12, 2});
  const fsm::SymbolicFsm a(m);
  const fsm::SymbolicFsm b(m);
  const fsm::SymbolicFsm c(m, 0, ImageStrategy::kChaining);
  const image::PartitionedRelation& ra = a.relation();
  const image::PartitionedRelation& rb = b.relation();
  const image::PartitionedRelation& rc = c.relation();

  EXPECT_EQ(ra.partial_count(), 24u);  // 2 bits per station.
  EXPECT_EQ(ra.partial_count(), rb.partial_count());
  EXPECT_EQ(ra.cluster_count(), rb.cluster_count());
  EXPECT_EQ(ra.parts_per_cluster(), rb.parts_per_cluster());
  EXPECT_EQ(ra.visit_order(), rb.visit_order());

  // Every partial lands in exactly one cluster.
  std::size_t total = 0;
  for (const std::size_t n : ra.parts_per_cluster()) total += n;
  EXPECT_EQ(total, ra.partial_count());
  EXPECT_EQ(ra.largest_cluster(),
            *std::max_element(ra.parts_per_cluster().begin(),
                              ra.parts_per_cluster().end()));

  // The strategy picks only the visit order: the clusters are the same,
  // the partitioned order is the dependency order, and the chaining
  // order visits each cluster exactly once.
  EXPECT_EQ(rc.parts_per_cluster(), ra.parts_per_cluster());
  for (std::size_t i = 0; i < ra.visit_order().size(); ++i) {
    EXPECT_EQ(ra.visit_order()[i], i);
  }
  const std::set<std::size_t> visited(rc.visit_order().begin(),
                                      rc.visit_order().end());
  EXPECT_EQ(rc.visit_order().size(), rc.cluster_count());
  EXPECT_EQ(visited.size(), rc.cluster_count());
}

// --------------------------------------------------------------------------
// Visit-order parity
// --------------------------------------------------------------------------

/// On one manager, the FSM's partitioned relation, a second relation
/// built from the same parts under the chaining order, and a reference
/// that conjoins every part and quantifies with one `and_exists` must
/// return the *identical* canonical BDD for images and preimages of
/// assorted sets.
TEST(PartitionedRelationTest, StrategiesAgreeNodeForNode) {
  const fsm::SymbolicFsm f(
      circuits::make_token_ring(circuits::TokenRingSpec{8, 2}));
  bdd::BddManager& mgr = f.mgr();
  const image::PartitionedRelation& rel = f.relation();

  const image::VariableOrdering ordering =
      f.dependency_matrix().derive_order(f.current_vars(), f.next_vars());
  image::PartitionedRelation chained;
  chained.build(mgr, f.transition_parts(),
                f.dependency_matrix().part_order(ordering), f.current_vars(),
                f.next_vars(), ImageStrategy::kChaining);
  ASSERT_EQ(chained.cluster_count(), rel.cluster_count());

  Bdd conjunction = mgr.bdd_true();
  for (const Bdd& part : f.transition_parts()) conjunction &= part;
  const Bdd cur_cube = mgr.cube(f.current_vars());
  const Bdd next_cube = mgr.cube(f.next_vars());

  std::vector<Bdd> sets = {f.initial_states(),
                           f.reachable(f.initial_states())};
  sets.push_back(sets[0] | f.forward(sets[0]));
  for (const Bdd& s : sets) {
    const Bdd img = mgr.and_exists(s, conjunction, cur_cube);
    EXPECT_EQ(img, rel.image(s));
    EXPECT_EQ(img, chained.image(s));

    const Bdd s_next = f.to_next(s);
    const Bdd pre = mgr.and_exists(s_next, conjunction, next_cube);
    EXPECT_EQ(pre, rel.preimage(s_next));
    EXPECT_EQ(pre, chained.preimage(s_next));
  }
}

/// Reachable sets, ring decompositions and state counts must agree
/// across visit orders on every benchmark circuit (separate managers,
/// so the comparison is on counts and ring shapes).
TEST(ImageStrategyParityTest, FixpointsAgreeAcrossCircuits) {
  const std::vector<model::Model> models = {
      circuits::make_mod_counter(circuits::CounterSpec{}),
      circuits::make_priority_buffer(circuits::PriorityBufferSpec{}),
      circuits::make_circular_queue(circuits::CircularQueueSpec{3}),
      circuits::make_pipeline(circuits::PipelineSpec{}),
      circuits::make_token_ring(circuits::TokenRingSpec{6, 2}),
  };
  for (const model::Model& m : models) {
    double reached_count = -1.0;
    std::size_t ring_count = 0;
    std::vector<double> ring_sizes;
    for (const ImageStrategy strategy :
         {ImageStrategy::kPartitioned, ImageStrategy::kChaining}) {
      SCOPED_TRACE(m.name() + std::string(" under ") +
                   image::to_string(strategy));
      const fsm::SymbolicFsm f(m, 0, strategy);
      const Bdd reached = f.reachable(f.initial_states());
      const double count = f.count_states(reached);

      // forward_rings is strict BFS under both orders (the ring
      // decomposition is part of the trace contract), so sizes must
      // match exactly, not just the union.
      const std::vector<Bdd> rings = f.forward_rings(f.initial_states());
      std::vector<double> sizes;
      for (const Bdd& r : rings) sizes.push_back(f.count_states(r));

      if (reached_count < 0.0) {
        reached_count = count;
        ring_count = rings.size();
        ring_sizes = sizes;
      } else {
        EXPECT_EQ(count, reached_count);
        EXPECT_EQ(rings.size(), ring_count);
        EXPECT_EQ(sizes, ring_sizes);
      }
    }
  }
}

}  // namespace
}  // namespace covest
