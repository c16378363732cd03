// Unit and property tests for the BDD package.
#include "bdd/bdd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <vector>

#include "circuits/circuits.h"
#include "fsm/symbolic_fsm.h"

namespace covest::bdd {
namespace {

class BddTest : public ::testing::Test {
 protected:
  BddManager mgr{6};
  Bdd v(Var i) { return mgr.var(i); }
};

// --------------------------------------------------------------------------
// Terminals, literals, canonicity
// --------------------------------------------------------------------------

TEST_F(BddTest, TerminalsAreDistinctAndCanonical) {
  EXPECT_TRUE(mgr.bdd_true().is_true());
  EXPECT_TRUE(mgr.bdd_false().is_false());
  EXPECT_NE(mgr.bdd_true(), mgr.bdd_false());
  EXPECT_EQ(mgr.bdd_true(), mgr.bdd_true());
}

TEST_F(BddTest, LiteralsAreCanonical) {
  EXPECT_EQ(v(0), v(0));
  EXPECT_NE(v(0), v(1));
  EXPECT_EQ(mgr.nvar(0), !v(0));
}

TEST_F(BddTest, CanonicityMergesEquivalentFunctions) {
  const Bdd a = v(0), b = v(1);
  EXPECT_EQ((a & b) | (a & (!b)), a);
  EXPECT_EQ(a ^ b, (a & (!b)) | ((!a) & b));
  EXPECT_EQ(!(a & b), (!a) | (!b));  // De Morgan.
  EXPECT_EQ(a.implies(b), (!a) | b);
  EXPECT_EQ(a.iff(b), !(a ^ b));
}

TEST_F(BddTest, ConstantFoldingIdentities) {
  const Bdd a = v(0);
  const Bdd t = mgr.bdd_true(), f = mgr.bdd_false();
  EXPECT_EQ(a & t, a);
  EXPECT_EQ(a & f, f);
  EXPECT_EQ(a | t, t);
  EXPECT_EQ(a | f, a);
  EXPECT_EQ(a ^ a, f);
  EXPECT_EQ(a ^ (!a), t);
  EXPECT_EQ(a & a, a);
  EXPECT_EQ(a - a, f);
  EXPECT_EQ(t - a, !a);
}

TEST_F(BddTest, IteIdentities) {
  const Bdd a = v(0), b = v(1), c = v(2);
  EXPECT_EQ(ite(mgr.bdd_true(), b, c), b);
  EXPECT_EQ(ite(mgr.bdd_false(), b, c), c);
  EXPECT_EQ(ite(a, b, b), b);
  EXPECT_EQ(ite(a, mgr.bdd_true(), mgr.bdd_false()), a);
  EXPECT_EQ(ite(a, b, c), (a & b) | ((!a) & c));
}

TEST_F(BddTest, SubsetAndIntersection) {
  const Bdd a = v(0), b = v(1);
  EXPECT_TRUE((a & b).subset_of(a));
  EXPECT_FALSE(a.subset_of(a & b));
  EXPECT_TRUE(a.intersects(a | b));
  EXPECT_FALSE(a.intersects(!a));
  EXPECT_TRUE(mgr.bdd_false().subset_of(a));
}

// --------------------------------------------------------------------------
// Randomized truth-table equivalence (the core soundness property)
// --------------------------------------------------------------------------

// A random expression over `n` variables evaluated two ways: as a BDD and
// directly on every assignment. Catches ordering, caching and reduction bugs.
struct RandomExpr {
  enum Kind { kVar, kNot, kAnd, kOr, kXor, kIte };
  Kind kind;
  int var = 0;
  std::vector<RandomExpr> children;

  static RandomExpr generate(std::mt19937& rng, int num_vars, int depth) {
    std::uniform_int_distribution<int> var_dist(0, num_vars - 1);
    if (depth == 0) {
      return RandomExpr{kVar, var_dist(rng), {}};
    }
    std::uniform_int_distribution<int> kind_dist(0, 5);
    const Kind k = static_cast<Kind>(kind_dist(rng));
    RandomExpr e{k, 0, {}};
    const int arity = k == kVar ? 0 : (k == kNot ? 1 : (k == kIte ? 3 : 2));
    if (k == kVar) {
      e.var = var_dist(rng);
      return e;
    }
    for (int i = 0; i < arity; ++i) {
      e.children.push_back(generate(rng, num_vars, depth - 1));
    }
    return e;
  }

  bool eval(const std::vector<bool>& a) const {
    switch (kind) {
      case kVar: return a[var];
      case kNot: return !children[0].eval(a);
      case kAnd: return children[0].eval(a) && children[1].eval(a);
      case kOr: return children[0].eval(a) || children[1].eval(a);
      case kXor: return children[0].eval(a) != children[1].eval(a);
      case kIte:
        return children[0].eval(a) ? children[1].eval(a)
                                   : children[2].eval(a);
    }
    return false;
  }

  Bdd build(BddManager& mgr) const {
    switch (kind) {
      case kVar: return mgr.var(var);
      case kNot: return !children[0].build(mgr);
      case kAnd: return children[0].build(mgr) & children[1].build(mgr);
      case kOr: return children[0].build(mgr) | children[1].build(mgr);
      case kXor: return children[0].build(mgr) ^ children[1].build(mgr);
      case kIte:
        return ite(children[0].build(mgr), children[1].build(mgr),
                   children[2].build(mgr));
    }
    return mgr.bdd_false();
  }
};

class BddRandomEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomEquivalence, BddMatchesDirectEvaluation) {
  std::mt19937 rng(GetParam());
  constexpr int kNumVars = 5;
  BddManager mgr(kNumVars);
  const RandomExpr expr = RandomExpr::generate(rng, kNumVars, 5);
  const Bdd f = expr.build(mgr);

  std::vector<bool> assignment(kNumVars);
  for (unsigned bits = 0; bits < (1u << kNumVars); ++bits) {
    for (int i = 0; i < kNumVars; ++i) assignment[i] = (bits >> i) & 1;
    EXPECT_EQ(mgr.eval(f, assignment), expr.eval(assignment))
        << "assignment bits=" << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomEquivalence,
                         ::testing::Range(0, 40));

// --------------------------------------------------------------------------
// Quantification
// --------------------------------------------------------------------------

TEST_F(BddTest, ExistsIsDisjunctionOfCofactors) {
  const Bdd f = (v(0) & v(1)) | (v(2) & !v(1));
  const Bdd q = mgr.exists(f, v(1));
  EXPECT_EQ(q, mgr.cofactor(f, 1, false) | mgr.cofactor(f, 1, true));
}

TEST_F(BddTest, ForallIsConjunctionOfCofactors) {
  const Bdd f = (v(0) & v(1)) | (v(2) & !v(1));
  const Bdd q = mgr.forall(f, v(1));
  EXPECT_EQ(q, mgr.cofactor(f, 1, false) & mgr.cofactor(f, 1, true));
}

TEST_F(BddTest, QuantifyingNonSupportVariableIsIdentity) {
  const Bdd f = v(0) & v(2);
  EXPECT_EQ(mgr.exists(f, v(1)), f);
  EXPECT_EQ(mgr.forall(f, v(1)), f);
}

TEST_F(BddTest, MultiVariableCubeQuantification) {
  const Bdd f = (v(0) & v(1) & v(2)) | (v(3) & !v(1));
  const Bdd cube = mgr.cube({1, 2});
  Bdd expected = f;
  for (Var q : {Var{1}, Var{2}}) {
    expected = mgr.cofactor(expected, q, false) | mgr.cofactor(expected, q, true);
  }
  EXPECT_EQ(mgr.exists(f, cube), expected);
}

TEST_F(BddTest, DualityOfQuantifiers) {
  const Bdd f = (v(0) ^ v(1)) | (v(2) & v(3));
  const Bdd cube = mgr.cube({0, 3});
  EXPECT_EQ(mgr.forall(f, cube), !mgr.exists(!f, cube));
}

TEST_F(BddTest, AndExistsEqualsExistsOfAnd) {
  const Bdd f = (v(0) & v(1)) | v(2);
  const Bdd g = ((!v(1)) | v(3)) & (v(4) ^ v(0));
  const Bdd cube = mgr.cube({1, 4});
  EXPECT_EQ(mgr.and_exists(f, g, cube), mgr.exists(f & g, cube));
}

class AndExistsRandom : public ::testing::TestWithParam<int> {};

TEST_P(AndExistsRandom, MatchesComposition) {
  std::mt19937 rng(GetParam() + 1000);
  constexpr int kNumVars = 6;
  BddManager mgr(kNumVars);
  const Bdd f = RandomExpr::generate(rng, kNumVars, 4).build(mgr);
  const Bdd g = RandomExpr::generate(rng, kNumVars, 4).build(mgr);
  const Bdd cube = mgr.cube({0, 2, 4});
  EXPECT_EQ(mgr.and_exists(f, g, cube), mgr.exists(f & g, cube));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AndExistsRandom, ::testing::Range(0, 20));

// --------------------------------------------------------------------------
// Composition, cofactors, renaming
// --------------------------------------------------------------------------

TEST_F(BddTest, ShannonExpansion) {
  const Bdd f = (v(0) & v(1)) | (v(2) ^ v(3));
  for (Var x : {Var{0}, Var{1}, Var{2}, Var{3}}) {
    EXPECT_EQ(f, ite(v(x), mgr.cofactor(f, x, true), mgr.cofactor(f, x, false)));
  }
}

TEST_F(BddTest, ComposeSubstitutesFunction) {
  const Bdd f = v(0) & v(1);
  const Bdd g = v(2) | v(3);
  // f[v1 := g] == v0 & (v2 | v3)
  EXPECT_EQ(mgr.compose(f, 1, g), v(0) & (v(2) | v(3)));
}

TEST_F(BddTest, ComposeWithFunctionAboveRoot) {
  // The substituted function's support is above the composed variable.
  const Bdd f = v(3) & v(4);
  const Bdd g = v(0) ^ v(1);
  EXPECT_EQ(mgr.compose(f, 4, g), v(3) & (v(0) ^ v(1)));
}

TEST_F(BddTest, ComposeOfAbsentVariableIsIdentity) {
  const Bdd f = v(0) | v(2);
  EXPECT_EQ(mgr.compose(f, 1, v(3)), f);
}

TEST_F(BddTest, PermuteRenamesVariables) {
  const Bdd f = (v(0) & v(1)) | v(2);
  // 0->3, 1->4, 2->5.
  std::vector<Var> perm{3, 4, 5};
  const Bdd renamed = mgr.permute(f, perm);
  EXPECT_EQ(renamed, (v(3) & v(4)) | v(5));
  // Renaming back is the identity.
  std::vector<Var> back{0, 1, 2, 0, 1, 2};
  EXPECT_EQ(mgr.permute(renamed, back), f);
}

TEST_F(BddTest, PermuteInterleavedCurrentNext) {
  // The usage pattern of image computation: swap adjacent var pairs.
  BddManager m(0);
  const Var c0 = m.new_var("c0"), n0 = m.new_var("n0");
  const Var c1 = m.new_var("c1"), n1 = m.new_var("n1");
  const Bdd f = (m.var(c0) ^ m.var(c1)) & m.var(c1);
  std::vector<Var> to_next{n0, n0, n1, n1};
  to_next[c0] = n0;
  to_next[n0] = c0;
  to_next[c1] = n1;
  to_next[n1] = c1;
  const Bdd g = m.permute(f, to_next);
  EXPECT_EQ(g, (m.var(n0) ^ m.var(n1)) & m.var(n1));
  EXPECT_EQ(m.permute(g, to_next), f);
}

// g = permute(f, perm) must satisfy g(a) == f(b) with b[v] = a[perm[v]].
void expect_renamed(BddManager& m, const RandomExpr& expr, const Bdd& g,
                    const std::vector<Var>& perm) {
  const unsigned n = static_cast<unsigned>(perm.size());
  std::vector<bool> a(n), b(n);
  for (unsigned bits = 0; bits < (1u << n); ++bits) {
    for (unsigned v = 0; v < n; ++v) a[v] = (bits >> v) & 1;
    for (unsigned v = 0; v < n; ++v) b[v] = a[perm[v]];
    ASSERT_EQ(m.eval(g, a), expr.eval(b)) << "assignment bits=" << bits;
  }
}

class PermuteRandom : public ::testing::TestWithParam<int> {};

TEST_P(PermuteRandom, InterleavedPairsBuildNodesWithoutTheCache) {
  // Current variable i sits right above its next variable i + kPairs:
  // the renaming the FSM performs. Every renamed label stays above its
  // renamed children, so no ITE (and no cache probe) is needed.
  std::mt19937 rng(GetParam());
  constexpr unsigned kPairs = 4;
  BddManager m(2 * kPairs);
  std::vector<Var> order, to_next(2 * kPairs);
  for (Var i = 0; i < kPairs; ++i) {
    order.insert(order.end(), {i, i + kPairs});
    to_next[i] = i + kPairs;
    to_next[i + kPairs] = i;
  }
  m.set_order(order);
  const RandomExpr expr = RandomExpr::generate(rng, kPairs, 5);
  const Bdd f = expr.build(m);

  const std::size_t lookups = m.stats().cache_lookups;
  const Bdd g = m.permute(f, to_next);
  EXPECT_EQ(m.stats().cache_lookups, lookups);
  expect_renamed(m, expr, g, to_next);
  EXPECT_EQ(m.permute(g, to_next), f);
  EXPECT_TRUE(m.check_canonical());
}

TEST_P(PermuteRandom, LevelCrossingRenamingFallsBackToIte) {
  // Reversing the variables moves every label across its children's
  // levels; the ITE fallback must still produce the canonical result.
  std::mt19937 rng(GetParam());
  constexpr unsigned kVars = 6;
  BddManager m(kVars);
  const RandomExpr expr = RandomExpr::generate(rng, kVars, 5);
  const Bdd f = expr.build(m);
  std::vector<Var> reverse(kVars);
  for (Var v = 0; v < kVars; ++v) reverse[v] = kVars - 1 - v;

  const Bdd g = m.permute(f, reverse);
  expect_renamed(m, expr, g, reverse);
  EXPECT_EQ(m.permute(g, reverse), f);
  EXPECT_TRUE(m.check_canonical());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PermuteRandom, ::testing::Range(0, 20));

// --------------------------------------------------------------------------
// Counting and minterms
// --------------------------------------------------------------------------

TEST_F(BddTest, SatCountBasics) {
  const std::vector<Var> all{0, 1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.bdd_false(), all), 0.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.bdd_true(), all), 64.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(v(0), all), 32.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(v(0) & v(1), all), 16.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(v(0) | v(1), all), 48.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(v(0) ^ v(1), all), 32.0);
}

TEST_F(BddTest, SatCountOverSubsetOfVariables) {
  const Bdd f = v(1) & !v(3);
  EXPECT_DOUBLE_EQ(mgr.sat_count(f, {1, 3}), 1.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(f, {0, 1, 3}), 2.0);
}

class SatCountRandom : public ::testing::TestWithParam<int> {};

TEST_P(SatCountRandom, MatchesExhaustiveEnumeration) {
  std::mt19937 rng(GetParam() + 2000);
  constexpr int kNumVars = 6;
  BddManager mgr(kNumVars);
  const RandomExpr expr = RandomExpr::generate(rng, kNumVars, 4);
  const Bdd f = expr.build(mgr);

  unsigned expected = 0;
  std::vector<bool> assignment(kNumVars);
  for (unsigned bits = 0; bits < (1u << kNumVars); ++bits) {
    for (int i = 0; i < kNumVars; ++i) assignment[i] = (bits >> i) & 1;
    if (expr.eval(assignment)) ++expected;
  }
  EXPECT_DOUBLE_EQ(mgr.sat_count(f, {0, 1, 2, 3, 4, 5}), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatCountRandom, ::testing::Range(0, 25));

TEST_F(BddTest, SatOneReturnsSatisfyingCube) {
  const Bdd f = (v(0) & !v(2)) | (v(1) & v(3));
  const auto cube = mgr.sat_one(f);
  ASSERT_FALSE(cube.empty());
  Bdd check = mgr.bdd_true();
  for (const auto& [var, val] : cube) check &= mgr.literal(var, val);
  EXPECT_TRUE(check.subset_of(f));
}

TEST_F(BddTest, SatOneOfFalseIsEmpty) {
  EXPECT_TRUE(mgr.sat_one(mgr.bdd_false()).empty());
}

TEST_F(BddTest, PickMintermSatisfiesFunction) {
  const Bdd f = (v(0) & !v(2)) | (v(1) & v(3));
  const std::vector<Var> vars{0, 1, 2, 3};
  const auto minterm = mgr.pick_minterm(f, vars);
  ASSERT_EQ(minterm.size(), vars.size());
  std::vector<bool> assignment(mgr.num_vars(), false);
  for (const auto& [var, val] : minterm) assignment[var] = val;
  EXPECT_TRUE(mgr.eval(f, assignment));
}

TEST_F(BddTest, EnumerateMintermsIsExhaustive) {
  const Bdd f = v(0) ^ v(1);
  const auto minterms = mgr.enumerate_minterms(f, {0, 1}, 100);
  EXPECT_EQ(minterms.size(), 2u);
  for (const auto& m : minterms) {
    std::vector<bool> assignment(mgr.num_vars(), false);
    for (const auto& [var, val] : m) assignment[var] = val;
    EXPECT_TRUE(mgr.eval(f, assignment));
  }
}

TEST_F(BddTest, EnumerateMintermsHonoursLimit) {
  const auto minterms = mgr.enumerate_minterms(mgr.bdd_true(), {0, 1, 2}, 3);
  EXPECT_EQ(minterms.size(), 3u);
}

TEST_F(BddTest, EnumerateCountMatchesSatCount) {
  const Bdd f = (v(0) | v(1)) & (v(2) ^ v(3));
  const std::vector<Var> vars{0, 1, 2, 3};
  const auto minterms = mgr.enumerate_minterms(f, vars, 10000);
  EXPECT_DOUBLE_EQ(static_cast<double>(minterms.size()),
                   mgr.sat_count(f, vars));
}

// --------------------------------------------------------------------------
// Support, node counts
// --------------------------------------------------------------------------

TEST_F(BddTest, SupportListsExactlyTheUsedVariables) {
  const Bdd f = (v(0) & v(3)) | (v(0) & v(5));
  EXPECT_EQ(mgr.support(f), (std::vector<Var>{0, 3, 5}));
  EXPECT_TRUE(mgr.support(mgr.bdd_true()).empty());
}

TEST_F(BddTest, SupportExcludesReducedVariables) {
  // v1 cancels out of the function entirely.
  const Bdd f = (v(1) & v(0)) | ((!v(1)) & v(0));
  EXPECT_EQ(mgr.support(f), (std::vector<Var>{0}));
}

TEST_F(BddTest, NodeCountSingleVariable) {
  EXPECT_EQ(mgr.node_count(v(0)), 1u);
  EXPECT_EQ(mgr.node_count(mgr.bdd_true()), 0u);
}

TEST_F(BddTest, NodeCountSharedSubgraphs) {
  // With complement edges, parity needs just one node per level: the two
  // polarities of each tail share a node through complemented edges.
  const Bdd f = v(0) ^ v(1) ^ v(2);
  EXPECT_EQ(mgr.node_count(f), 3u);
  // Counting a vector shares common nodes (g is f's tail).
  const Bdd g = v(1) ^ v(2);
  EXPECT_EQ(mgr.node_count(std::vector<Bdd>{f, g}), 3u);
}

// --------------------------------------------------------------------------
// Cubes
// --------------------------------------------------------------------------

TEST_F(BddTest, CubeIsConjunctionOfPositiveLiterals) {
  EXPECT_EQ(mgr.cube({0, 2, 4}), v(0) & v(2) & v(4));
  EXPECT_EQ(mgr.cube({}), mgr.bdd_true());
}

TEST_F(BddTest, CubeOrderIndependent) {
  EXPECT_EQ(mgr.cube({4, 0, 2}), mgr.cube({0, 2, 4}));
}

// --------------------------------------------------------------------------
// Garbage collection
// --------------------------------------------------------------------------

TEST_F(BddTest, GcFreesUnreferencedNodes) {
  {
    Bdd garbage = (v(0) ^ v(1)) & (v(2) ^ v(3)) & (v(4) | v(5));
    EXPECT_GT(mgr.live_node_count(), 6u);
  }
  const std::size_t freed = mgr.gc();
  EXPECT_GT(freed, 0u);
}

TEST_F(BddTest, GcPreservesReferencedFunctions) {
  Bdd keep = (v(0) & v(1)) | (v(2) ^ v(3));
  const std::size_t nodes_before = mgr.node_count(keep);
  {
    Bdd garbage = (v(0) | v(4)) ^ v(5);
  }
  mgr.gc();
  EXPECT_EQ(mgr.node_count(keep), nodes_before);
  // Function still evaluates correctly after collection.
  std::vector<bool> a(mgr.num_vars(), false);
  a[0] = a[1] = true;
  EXPECT_TRUE(mgr.eval(keep, a));
}

TEST_F(BddTest, NodesAreReusedAfterGc) {
  {
    Bdd garbage = v(0) ^ v(1) ^ v(2) ^ v(3);
  }
  mgr.gc();
  const std::size_t allocated_before = mgr.stats().unique_misses;
  Bdd rebuilt = v(0) ^ v(1) ^ v(2) ^ v(3);
  // Rebuilding allocates again (nodes were freed) but from the free list.
  EXPECT_GE(mgr.stats().unique_misses, allocated_before);
  EXPECT_FALSE(rebuilt.is_false());
}

TEST_F(BddTest, HandleCopySemanticsKeepNodesAlive) {
  Bdd a = v(0) & v(1);
  Bdd b = a;          // copy
  Bdd c = std::move(a);  // move leaves `a` detached
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(b, c);
  mgr.gc();
  EXPECT_EQ(b, v(0) & v(1));
}

// A disjunction of `cubes` random `width`-literal cubes over `vars`
// variables, built one small operation at a time.
Bdd random_cover(BddManager& m, std::mt19937& rng, unsigned vars,
                 unsigned width, int cubes) {
  std::uniform_int_distribution<Var> pick(0, vars - 1);
  Bdd f = m.bdd_false();
  for (int c = 0; c < cubes; ++c) {
    Bdd cube = m.bdd_true();
    for (unsigned k = 0; k < width; ++k) {
      cube &= m.literal(pick(rng), rng() % 2 == 0);
    }
    f |= cube;
  }
  return f;
}

TEST(BddGcTest, PoolTracksTheLiveSet) {
  // Build-and-drop rounds create far more nodes than the floor. Each
  // collection re-arms at twice the live set it leaves, so the pool
  // stays near `floor + 2 x peak live` instead of growing with the
  // total ever created.
  constexpr unsigned kVars = 20;
  BddManager m(kVars);
  m.set_gc_threshold(BddManager::kGcFloor);
  std::mt19937 rng(5);
  std::size_t created = 0;
  std::size_t peak_live = 0;
  std::size_t peak_pool = 0;
  std::vector<std::size_t> runs;
  for (int round = 0; round < 40; ++round) {
    const std::size_t misses = m.stats().unique_misses;
    {
      const Bdd f = random_cover(m, rng, kVars, 8, 150);
      peak_live = std::max(peak_live, m.live_node_count());
      peak_pool = std::max(peak_pool, m.stats().allocated_nodes);
    }
    created += m.stats().unique_misses - misses;
    runs.push_back(m.stats().gc_runs);
  }
  ASSERT_GT(created, 8 * (BddManager::kGcFloor + peak_live));
  // Slack: one operation's worth of allocation past the trigger.
  EXPECT_LE(peak_pool, BddManager::kGcFloor +
                           BddManager::kGcLiveFactor * peak_live +
                           peak_live);
  EXPECT_GT(runs.back(), runs[runs.size() / 2]);
  EXPECT_GT(runs[runs.size() / 2], runs.front());
}

TEST(BddGcTest, SeededThresholdIsTheFloor) {
  BddManager m(12);
  m.set_gc_threshold(32);
  EXPECT_EQ(m.gc_threshold(), 32u);

  std::mt19937 rng(9);
  Bdd keep = random_cover(m, rng, 12, 6, 40);
  { const Bdd garbage = random_cover(m, rng, 12, 6, 40); }
  m.gc();
  const std::size_t live = m.live_node_count();
  ASSERT_GT(BddManager::kGcLiveFactor * live, 32u);
  EXPECT_EQ(m.gc_threshold(), BddManager::kGcLiveFactor * live);

  // A live set too small to clear the seed leaves the seed in charge.
  keep = m.var(0);
  m.gc();
  ASSERT_LT(BddManager::kGcLiveFactor * m.live_node_count(), 32u);
  EXPECT_EQ(m.gc_threshold(), 32u);

  // Automatic collection fires at operation boundaries and re-arms the
  // same way.
  const std::size_t runs = m.stats().gc_runs;
  keep = random_cover(m, rng, 12, 6, 40);
  EXPECT_GT(m.stats().gc_runs, runs);
  m.gc();
  EXPECT_EQ(m.gc_threshold(),
            std::max<std::size_t>(
                32, BddManager::kGcLiveFactor * m.live_node_count()));
}

TEST(BddGcTest, CollectionKeepsTheCacheCounters) {
  // A collection invalidates the memos but not the hit-rate counters;
  // only an explicit clear_cache restarts them.
  BddManager m(8);
  std::mt19937 rng(3);
  const Bdd f = random_cover(m, rng, 8, 4, 20);
  const Bdd g = random_cover(m, rng, 8, 4, 20);
  const Bdd h = f & g;
  const std::size_t lookups = m.stats().cache_lookups;
  const std::size_t hits = m.stats().cache_hits;
  ASSERT_GT(lookups, 0u);
  m.gc();
  EXPECT_EQ(m.stats().cache_lookups, lookups);
  EXPECT_EQ(m.stats().cache_hits, hits);
  EXPECT_EQ(f & g, h);  // Recomputed: the memo is gone.
  EXPECT_GT(m.stats().cache_lookups, lookups);
  m.clear_cache();
  EXPECT_EQ(m.stats().cache_lookups, 0u);
}

// --------------------------------------------------------------------------
// Reordering
// --------------------------------------------------------------------------

// Evaluates `f` on every assignment over `num_vars` variables and returns
// the truth table as a bit vector; used to prove reordering is semantics-
// preserving.
std::vector<bool> truth_table(BddManager& mgr, const Bdd& f, int num_vars) {
  std::vector<bool> table;
  std::vector<bool> assignment(num_vars);
  for (unsigned bits = 0; bits < (1u << num_vars); ++bits) {
    for (int i = 0; i < num_vars; ++i) assignment[i] = (bits >> i) & 1;
    table.push_back(mgr.eval(f, assignment));
  }
  return table;
}

TEST_F(BddTest, AdjacentSwapPreservesFunctions) {
  const Bdd f = (v(0) & v(1)) | (v(2) ^ v(3)) | ((!v(4)) & v(5));
  const auto before = truth_table(mgr, f, 6);
  for (unsigned lvl = 0; lvl + 1 < mgr.num_vars(); ++lvl) {
    mgr.swap_adjacent_levels(lvl);
    EXPECT_EQ(truth_table(mgr, f, 6), before) << "after swap at level " << lvl;
  }
}

TEST_F(BddTest, SwapIsItsOwnInverse) {
  const Bdd f = ite(v(2), v(0) ^ v(1), v(3) & v(4));
  const std::size_t nodes_before = mgr.node_count(f);
  mgr.swap_adjacent_levels(1);
  mgr.swap_adjacent_levels(1);
  EXPECT_EQ(mgr.node_count(f), nodes_before);
  EXPECT_EQ(mgr.var_at_level(1), Var{1});
}

TEST_F(BddTest, SiftingPreservesSemantics) {
  const Bdd f = (v(0) & v(3)) | (v(1) & v(4)) | (v(2) & v(5));
  const auto before = truth_table(mgr, f, 6);
  mgr.reorder_sift();
  EXPECT_EQ(truth_table(mgr, f, 6), before);
}

TEST(BddReorderTest, SiftingImprovesPathologicalOrder) {
  // f = x0&y0 | x1&y1 | ... with all x's before all y's is exponential;
  // the interleaved order x0 y0 x1 y1 ... is linear. Sifting should get
  // close to the interleaved size.
  constexpr int kPairs = 6;
  BddManager mgr(2 * kPairs);
  Bdd f = mgr.bdd_false();
  // Variables 0..5 are x0..x5, 6..11 are y0..y5 — the bad order.
  for (int i = 0; i < kPairs; ++i) {
    f |= mgr.var(i) & mgr.var(kPairs + i);
  }
  const std::size_t before = mgr.node_count(f);
  mgr.reorder_sift();
  const std::size_t after = mgr.node_count(f);
  EXPECT_LT(after, before);
  EXPECT_LE(after, 3u * 2 * kPairs);  // Linear-size bound.
}

TEST(BddReorderTest, SetOrderInstallsExactPermutation) {
  BddManager mgr(4);
  const Bdd f = (mgr.var(0) & mgr.var(2)) | mgr.var(3);
  const auto before = truth_table(mgr, f, 4);
  mgr.set_order({3, 1, 0, 2});
  EXPECT_EQ(mgr.var_at_level(0), Var{3});
  EXPECT_EQ(mgr.var_at_level(1), Var{1});
  EXPECT_EQ(mgr.var_at_level(2), Var{0});
  EXPECT_EQ(mgr.var_at_level(3), Var{2});
  EXPECT_EQ(truth_table(mgr, f, 4), before);
}

class ReorderRandom : public ::testing::TestWithParam<int> {};

TEST_P(ReorderRandom, RandomOrdersPreserveRandomFunctions) {
  std::mt19937 rng(GetParam() + 3000);
  constexpr int kNumVars = 6;
  BddManager mgr(kNumVars);
  const Bdd f = RandomExpr::generate(rng, kNumVars, 5).build(mgr);
  const auto before = truth_table(mgr, f, kNumVars);

  std::vector<Var> order{0, 1, 2, 3, 4, 5};
  std::shuffle(order.begin(), order.end(), rng);
  mgr.set_order(order);
  EXPECT_EQ(truth_table(mgr, f, kNumVars), before);

  mgr.reorder_sift();
  EXPECT_EQ(truth_table(mgr, f, kNumVars), before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderRandom, ::testing::Range(0, 20));

// --------------------------------------------------------------------------
// Diagnostics
// --------------------------------------------------------------------------

TEST_F(BddTest, DotExportMentionsVariablesAndTerminals) {
  std::ostringstream os;
  mgr.set_var_name(0, "req");
  mgr.write_dot(os, v(0) & !v(1), "example");
  const std::string dot = os.str();
  EXPECT_NE(dot.find("req"), std::string::npos);
  EXPECT_NE(dot.find("t1"), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST_F(BddTest, StatsTrackCacheAndUniqueTable) {
  Bdd f = (v(0) & v(1)) | (v(2) & v(3));
  Bdd g = (v(0) & v(1)) | (v(2) & v(3));  // Same ops again: cache hits.
  EXPECT_EQ(f, g);
  EXPECT_GT(mgr.stats().cache_lookups, 0u);
  EXPECT_GT(mgr.stats().unique_misses, 0u);
}

// --------------------------------------------------------------------------
// Computed-cache sizing
// --------------------------------------------------------------------------

// Synthetic raw stores (the op code is opaque to the cache).
void store_fillers(BddManager& m, std::uint32_t first, std::uint32_t count) {
  for (std::uint32_t i = first; i < first + count; ++i) {
    m.debug_cache_store(/*op=*/100, i, i + 1, i + 2, i);
  }
}

TEST(BddCacheTest, MemoStoredBeforeAGrowthIsOneLookupAfterIt) {
  BddManager m(0);
  const std::size_t start = m.stats().cache_entries;
  ASSERT_EQ(start, 256u);
  // An empty pool grows the table only under sustained pressure: more
  // than 4x its size in stores. Park the memo as the last store before
  // the growing one.
  store_fillers(m, 0, 4 * start - 1);
  m.debug_cache_store(/*op=*/101, 1, 2, 3, /*result=*/7);
  ASSERT_EQ(m.stats().cache_entries, start);
  store_fillers(m, 1u << 20, 1);
  ASSERT_EQ(m.stats().cache_entries, 4 * start);

  const std::size_t lookups = m.stats().cache_lookups;
  const std::size_t hits = m.stats().cache_hits;
  NodeIndex out = 0;
  EXPECT_TRUE(m.debug_cache_find(101, 1, 2, 3, &out));
  EXPECT_EQ(out, 7u);
  EXPECT_EQ(m.stats().cache_lookups - lookups, 1u);
  EXPECT_EQ(m.stats().cache_hits - hits, 1u);
}

TEST(BddCacheTest, TableFollowsThePoolUnlessStorePressureIsSustained) {
  constexpr unsigned kVars = 96;
  BddManager m(kVars);
  const auto occupied = [&m] {
    m.live_node_count();  // Refreshes allocated_nodes; nothing is freed.
    return m.stats().allocated_nodes;
  };
  const std::size_t start = m.stats().cache_entries;

  // Light pressure on a tiny pool: up to 4x the table size in stores
  // (the old rule quadrupled after a quarter) leaves the table alone.
  store_fillers(m, 0, 4 * start);
  EXPECT_EQ(m.stats().cache_entries, start);
  EXPECT_LT(occupied(), 4 * start);
  // Sustained pressure still grows it, past the pool.
  store_fillers(m, 1u << 20, 1);
  EXPECT_EQ(m.stats().cache_entries, 4 * start);

  // A pool with at least 16x the start size in occupied slots admits the
  // next quadrupling after only a quarter of the table in stores. Pair
  // cubes are built by make_node alone, without touching the cache.
  std::vector<Bdd> cubes;
  for (Var i = 0; i < kVars; ++i) {
    for (Var j = i + 1; j < kVars; ++j) cubes.push_back(m.cube({i, j}));
  }
  ASSERT_GE(occupied(), 16 * start);
  store_fillers(m, 1u << 21, start);  // (4 * start) / 4 stores.
  EXPECT_EQ(m.stats().cache_entries, 4 * start);
  store_fillers(m, 1u << 22, 1);
  EXPECT_EQ(m.stats().cache_entries, 16 * start);
  EXPECT_LE(m.stats().cache_entries, occupied());
}

TEST(BddCacheTest, EntriesFromBeforeClearCacheStopMatching) {
  // clear_cache's O(1) epoch bump invalidates every earlier entry.
  BddManager m(1, /*cache_size_log2=*/2);
  m.debug_cache_store(9, 1, 2, 3, 42);
  NodeIndex out = 0;
  EXPECT_TRUE(m.debug_cache_find(9, 1, 2, 3, &out));
  EXPECT_EQ(out, 42u);
  m.clear_cache();
  EXPECT_FALSE(m.debug_cache_find(9, 1, 2, 3, &out));
  m.debug_cache_store(9, 1, 2, 3, 43);  // Stores after the bump match.
  EXPECT_TRUE(m.debug_cache_find(9, 1, 2, 3, &out));
  EXPECT_EQ(out, 43u);
}

TEST(BddCacheTest, ColdRecomputationOverAModelReusesEveryNode) {
  // Every entry-point class over a real model's transition parts, run
  // again after clear_cache: each recursion re-runs instead of
  // replaying a memo, lands on the same canonical edges, and finds
  // every node in the unique tables, so the pool does not grow.
  circuits::TokenRingSpec spec;
  spec.cells = 16;
  fsm::SymbolicFsm fsm(circuits::make_token_ring(spec));
  BddManager& mgr = fsm.mgr();
  // The battery's garbage outgrows the default collection floor; a
  // collection would free the nodes a cold rerun is meant to find.
  mgr.set_gc_threshold(std::size_t{1} << 30);
  const auto battery = [&fsm, &mgr] {
    const std::vector<Bdd>& parts = fsm.transition_parts();
    Bdd a = mgr.bdd_true();
    Bdd b = mgr.bdd_true();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      (i % 2 == 0 ? a : b) &= parts[i];
    }
    Bdd cube = mgr.bdd_true();
    for (const Var v : fsm.next_vars()) cube &= mgr.var(v);
    const Bdd conj = mgr.apply_and(a, b);
    return std::vector<Bdd>{conj,
                            mgr.apply_xor(a, b),
                            mgr.apply_ite(fsm.initial_states(), a, b),
                            mgr.exists(conj, cube),
                            mgr.and_exists(a, b, cube),
                            fsm.reachable(fsm.initial_states())};
  };
  const std::vector<Bdd> first = battery();
  mgr.live_node_count();  // Refreshes stats().allocated_nodes.
  const std::size_t after_first = mgr.stats().allocated_nodes;
  for (int round = 0; round < 3; ++round) {
    mgr.clear_cache();
    EXPECT_EQ(battery(), first) << "round " << round;
  }
  mgr.live_node_count();
  EXPECT_LE(mgr.stats().allocated_nodes, after_first);
  EXPECT_TRUE(mgr.check_canonical());
}

TEST(BddStressTest, LargeXorChainHasLinearNodes) {
  constexpr int kNumVars = 24;
  BddManager mgr(kNumVars);
  Bdd f = mgr.bdd_false();
  for (int i = 0; i < kNumVars; ++i) f ^= mgr.var(i);
  // Parity of n variables has exactly n nodes with complement edges
  // (2n-1 without them: both polarities per level minus the shared root).
  EXPECT_EQ(mgr.node_count(f), static_cast<std::size_t>(kNumVars));
}

TEST(BddStressTest, AdderEqualityRelation) {
  // Builds bit-blasted (a + b) mod 2^8 == c as a single relation and counts
  // solutions: for every (a, b) there is exactly one c -> 2^16 models.
  constexpr int kWidth = 8;
  BddManager mgr(3 * kWidth);
  std::vector<Var> all;
  for (Var i = 0; i < 3 * kWidth; ++i) all.push_back(i);
  const auto a = [&](int i) { return mgr.var(i); };
  const auto b = [&](int i) { return mgr.var(kWidth + i); };
  const auto c = [&](int i) { return mgr.var(2 * kWidth + i); };

  Bdd relation = mgr.bdd_true();
  Bdd carry = mgr.bdd_false();
  for (int i = 0; i < kWidth; ++i) {
    const Bdd sum = a(i) ^ b(i) ^ carry;
    relation &= c(i).iff(sum);
    carry = (a(i) & b(i)) | (carry & (a(i) ^ b(i)));
  }
  EXPECT_DOUBLE_EQ(mgr.sat_count(relation, all), std::exp2(2 * kWidth));
}


// --------------------------------------------------------------------------
// Generalized cofactor (Coudert-Madre restrict)
// --------------------------------------------------------------------------

TEST_F(BddTest, SimplifyAgreesOnCareSet) {
  const Bdd f = (v(0) & v(1)) | (v(2) ^ v(3));
  const Bdd care = v(0) | v(2);
  const Bdd s = mgr.simplify(f, care);
  EXPECT_EQ(s & care, f & care);
}

TEST_F(BddTest, SimplifyWithFullCareIsIdentity) {
  const Bdd f = v(0) ^ v(1);
  EXPECT_EQ(mgr.simplify(f, mgr.bdd_true()), f);
}

TEST_F(BddTest, SimplifyShrinksAgainstTightCare) {
  // Within care = (v0 & v1), f = v0 & v1 & v2 collapses to v2.
  const Bdd f = v(0) & v(1) & v(2);
  const Bdd care = v(0) & v(1);
  const Bdd s = mgr.simplify(f, care);
  EXPECT_EQ(s, v(2));
  EXPECT_LT(mgr.node_count(s), mgr.node_count(f));
}

class SimplifyRandom : public ::testing::TestWithParam<int> {};

TEST_P(SimplifyRandom, CareSetIdentityHolds) {
  std::mt19937 rng(GetParam() + 4000);
  constexpr int kNumVars = 6;
  BddManager mgr(kNumVars);
  const Bdd f = RandomExpr::generate(rng, kNumVars, 4).build(mgr);
  Bdd care = RandomExpr::generate(rng, kNumVars, 4).build(mgr);
  if (care.is_false()) care = mgr.var(0);
  const Bdd s = mgr.simplify(f, care);
  EXPECT_EQ(s & care, f & care);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifyRandom, ::testing::Range(0, 20));

}  // namespace
}  // namespace covest::bdd
