// google-benchmark microbenchmarks for the BDD substrate: the operations
// that dominate both model checking and coverage estimation.
#include <benchmark/benchmark.h>

#include <vector>

#include "bdd/bdd.h"
#include "circuits/circuits.h"
#include "fsm/symbolic_fsm.h"

namespace {

using namespace covest;
using bdd::Bdd;
using bdd::BddManager;

/// n-bit ripple adder relation c == a + b: a classic BDD stressor.
Bdd adder_relation(BddManager& mgr, int width) {
  Bdd relation = mgr.bdd_true();
  Bdd carry = mgr.bdd_false();
  for (int i = 0; i < width; ++i) {
    const Bdd a = mgr.var(static_cast<bdd::Var>(3 * i));
    const Bdd b = mgr.var(static_cast<bdd::Var>(3 * i + 1));
    const Bdd c = mgr.var(static_cast<bdd::Var>(3 * i + 2));
    relation &= c.iff(a ^ b ^ carry);
    carry = (a & b) | (carry & (a ^ b));
  }
  return relation;
}

void BM_AdderRelation(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    BddManager mgr(static_cast<unsigned>(3 * width));
    const Bdd rel = adder_relation(mgr, width);
    benchmark::DoNotOptimize(rel.index());
    state.PauseTiming();
    mgr.live_node_count();
    state.counters["peak_live_nodes"] = static_cast<double>(
        mgr.stats().peak_live_nodes);
    state.counters["cache_hit_rate"] = mgr.stats().cache_hit_rate();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_AdderRelation)->Arg(8)->Arg(16)->Arg(24);

void BM_AndExistsRelationalProduct(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  BddManager mgr(static_cast<unsigned>(3 * width));
  const Bdd rel = adder_relation(mgr, width);
  std::vector<bdd::Var> abs;
  for (int i = 0; i < width; ++i) {
    abs.push_back(static_cast<bdd::Var>(3 * i));
    abs.push_back(static_cast<bdd::Var>(3 * i + 1));
  }
  const Bdd cube = mgr.cube(abs);
  Bdd constraint = mgr.var(0) ^ mgr.var(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.and_exists(rel, constraint, cube));
    mgr.clear_cache();  // Measure the computation, not the cache.
  }
}
BENCHMARK(BM_AndExistsRelationalProduct)->Arg(8)->Arg(16);

void BM_SatCount(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  BddManager mgr(static_cast<unsigned>(3 * width));
  const Bdd rel = adder_relation(mgr, width);
  std::vector<bdd::Var> all;
  for (unsigned v = 0; v < mgr.num_vars(); ++v) all.push_back(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.sat_count(rel, all));
  }
}
BENCHMARK(BM_SatCount)->Arg(8)->Arg(16);

void BM_QueueReachability(benchmark::State& state) {
  const unsigned bits = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    fsm::SymbolicFsm f(
        circuits::make_circular_queue(circuits::CircularQueueSpec{bits}));
    const Bdd reached = f.reachable(f.initial_states());
    benchmark::DoNotOptimize(reached.index());
    state.PauseTiming();
    f.mgr().live_node_count();
    state.counters["peak_live_nodes"] = static_cast<double>(
        f.mgr().stats().peak_live_nodes);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_QueueReachability)->Arg(2)->Arg(4)->Arg(6);

void BM_SiftingReorder(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    BddManager mgr(static_cast<unsigned>(2 * pairs));
    // Pathological order: all x's above all y's.
    Bdd f = mgr.bdd_false();
    for (int i = 0; i < pairs; ++i) {
      f |= mgr.var(static_cast<bdd::Var>(i)) &
           mgr.var(static_cast<bdd::Var>(pairs + i));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(mgr.reorder_sift());
  }
}
BENCHMARK(BM_SiftingReorder)->Arg(6)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
