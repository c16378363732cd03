// Tests for the symbolic FSM layer: elaboration, image/preimage,
// reachability, counting and traces.
#include <gtest/gtest.h>

#include "circuits/circuits.h"
#include "fsm/symbolic_fsm.h"
#include "fsm/trace.h"
#include "model/model.h"
#include "model/model_parser.h"

namespace covest::fsm {
namespace {

using bdd::Bdd;
using expr::Expr;

model::Model two_bit_counter() {
  model::ModelBuilder b("c2");
  const Expr c = b.state_word("c", 2, 0);
  const Expr en = b.input_bool("en");
  b.next("c", ite(en, c + Expr::word_const(1, 2), c));
  return b.build();
}

class FsmTest : public ::testing::Test {
 protected:
  FsmTest() : fsm(two_bit_counter()) {}
  SymbolicFsm fsm;

  Bdd c_equals(std::uint64_t v) {
    return fsm.blast_bool(Expr::var("c") == Expr::word_const(v, 2));
  }
};

TEST_F(FsmTest, LayoutAllocatesCurrentAndNextPairs) {
  const SignalLayout& c = fsm.layout("c");
  EXPECT_EQ(c.current.size(), 2u);
  EXPECT_EQ(c.next.size(), 2u);
  const SignalLayout& en = fsm.layout("en");
  EXPECT_EQ(en.current.size(), 1u);
  EXPECT_EQ(fsm.current_vars().size(), 3u);  // c[0], c[1], en.
  EXPECT_THROW(fsm.layout("nosuch"), std::runtime_error);
}

TEST_F(FsmTest, InitialStatesLeaveInputsFree) {
  // init: c == 0, en free -> 2 states of the 8-state space.
  EXPECT_DOUBLE_EQ(fsm.count_states(fsm.initial_states()), 2.0);
}

TEST_F(FsmTest, ForwardImageOfInitial) {
  // From c=0: en=0 keeps c=0, en=1 gives c=1; next input free.
  const Bdd img = fsm.forward(fsm.initial_states());
  EXPECT_DOUBLE_EQ(fsm.count_states(img), 4.0);
  EXPECT_TRUE((img - (c_equals(0) | c_equals(1))).is_false());
}

TEST_F(FsmTest, ForwardOfEnabledStatesIncrements) {
  const Bdd enabled = c_equals(2) & fsm.blast_bool(Expr::var("en"));
  const Bdd img = fsm.forward(enabled);
  EXPECT_EQ(img, c_equals(3));
}

TEST_F(FsmTest, BackwardIsAdjointOfForward) {
  // S intersects backward(T) iff forward(S) intersects T.
  const Bdd s = c_equals(1);
  const Bdd t = c_equals(2);
  EXPECT_EQ(fsm.forward(s).intersects(t), s.intersects(fsm.backward(t)));
  const Bdd t2 = c_equals(3);
  EXPECT_EQ(fsm.forward(s).intersects(t2), s.intersects(fsm.backward(t2)));
}

TEST_F(FsmTest, ReachableIsWholeCounterSpace) {
  const Bdd reach = fsm.reachable(fsm.initial_states());
  EXPECT_DOUBLE_EQ(fsm.count_states(reach), 8.0);  // 4 counts x 2 inputs.
}

TEST_F(FsmTest, ForwardRingsArePairwiseDisjointAndOrdered) {
  const auto rings = fsm.forward_rings(fsm.initial_states());
  ASSERT_EQ(rings.size(), 4u);  // c=0,1,2,3 discovered in BFS order.
  for (std::size_t i = 0; i < rings.size(); ++i) {
    for (std::size_t j = i + 1; j < rings.size(); ++j) {
      EXPECT_FALSE(rings[i].intersects(rings[j]));
    }
  }
  EXPECT_TRUE(rings[3].subset_of(c_equals(3)));
}

TEST_F(FsmTest, ForwardRingsStopEarlyAtTarget) {
  const Bdd target = c_equals(1);
  const auto rings = fsm.forward_rings(fsm.initial_states(), &target);
  EXPECT_EQ(rings.size(), 2u);
}

TEST_F(FsmTest, TransitionRelationMatchesPartsProduct) {
  // From every single state, `forward` is the successor set the product
  // of the transition parts defines: conjoin, quantify the current
  // space, rename back.
  bdd::BddManager& mgr = fsm.mgr();
  Bdd product = mgr.bdd_true();
  for (const Bdd& part : fsm.transition_parts()) product &= part;
  const Bdd cur_cube = mgr.cube(fsm.current_vars());
  const auto minterms =
      mgr.enumerate_minterms(mgr.bdd_true(), fsm.current_vars(), 16);
  ASSERT_EQ(minterms.size(), 8u);
  for (const auto& minterm : minterms) {
    const Bdd state = fsm.state_cube(minterm);
    const Bdd successors =
        fsm.to_current(mgr.and_exists(state, product, cur_cube));
    EXPECT_EQ(fsm.forward(state), successors);
  }
  // T & (c==2 & en) forces next c == 3.
  EXPECT_EQ(fsm.forward(c_equals(2) & fsm.blast_bool(Expr::var("en"))),
            c_equals(3));
}

TEST_F(FsmTest, RenamingRoundTrips) {
  const Bdd s = c_equals(2);
  EXPECT_EQ(fsm.to_current(fsm.to_next(s)), s);
}

TEST_F(FsmTest, FormatStatesDecodesSignals) {
  const auto lines = fsm.format_states(c_equals(3), 10);
  ASSERT_EQ(lines.size(), 2u);  // en free: two minterms.
  EXPECT_NE(lines[0].find("c=3"), std::string::npos);
}

TEST_F(FsmTest, UnassignedStateVariableIsFreeRunning) {
  model::ModelBuilder b("free");
  b.state_bool("x");  // No next(): nondeterministic.
  const model::Model m = b.build();
  SymbolicFsm f(m);
  const Bdd x = f.blast_bool(Expr::var("x"));
  // Both values reachable from either value.
  EXPECT_TRUE(f.forward(x).is_true());
  EXPECT_TRUE(f.forward(!x).is_true());
}

TEST_F(FsmTest, DontcareCollectsModelDontcares) {
  model::ModelBuilder b("dc");
  const Expr w = b.state_word("w", 2, 0);
  b.next("w", w);
  b.dontcare(w == Expr::word_const(3, 2));
  SymbolicFsm f(b.build());
  EXPECT_DOUBLE_EQ(f.mgr().sat_count(f.dontcare(), f.current_vars()), 1.0);
}

TEST_F(FsmTest, ContradictoryInitThrows) {
  model::ModelBuilder b("bad");
  const Expr x = b.state_bool("x", true);
  b.next("x", x);
  b.init_constraint(!x);
  const model::Model m = b.build();
  EXPECT_THROW(SymbolicFsm{m}, std::runtime_error);
}

// --------------------------------------------------------------------------
// Traces
// --------------------------------------------------------------------------

TEST_F(FsmTest, ShortestTraceReachesTarget) {
  const auto trace = shortest_trace(fsm, fsm.initial_states(), c_equals(2));
  ASSERT_TRUE(trace.has_value());
  ASSERT_EQ(trace->steps.size(), 3u);  // 0 -> 1 -> 2.
  EXPECT_EQ(trace->steps[0].values.at("c"), 0u);
  EXPECT_EQ(trace->steps[1].values.at("c"), 1u);
  EXPECT_EQ(trace->steps[2].values.at("c"), 2u);
  // The inputs recorded along the way must drive the increments.
  EXPECT_EQ(trace->steps[0].values.at("en"), 1u);
  EXPECT_EQ(trace->steps[1].values.at("en"), 1u);
}

TEST_F(FsmTest, TraceStepsAreValidTransitions) {
  const auto trace = shortest_trace(fsm, fsm.initial_states(), c_equals(3));
  ASSERT_TRUE(trace.has_value());
  for (std::size_t i = 0; i + 1 < trace->steps.size(); ++i) {
    const auto& cur = trace->steps[i].values;
    const auto& nxt = trace->steps[i + 1].values;
    const std::uint64_t expected =
        cur.at("en") ? (cur.at("c") + 1) % 4 : cur.at("c");
    EXPECT_EQ(nxt.at("c"), expected) << "step " << i;
  }
}

TEST_F(FsmTest, TraceToUnreachableTargetIsNullopt) {
  // c==3 unreachable when en is never allowed... instead use empty target.
  EXPECT_FALSE(
      shortest_trace(fsm, fsm.initial_states(), fsm.mgr().bdd_false())
          .has_value());
}

TEST_F(FsmTest, TraceOfLengthZero) {
  const auto trace = shortest_trace(fsm, fsm.initial_states(), c_equals(0));
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->steps.size(), 1u);
}

TEST_F(FsmTest, TraceRendersAllSignals) {
  const auto trace = shortest_trace(fsm, fsm.initial_states(), c_equals(1));
  ASSERT_TRUE(trace.has_value());
  const std::string text = trace->to_string(fsm);
  EXPECT_NE(text.find("step 0:"), std::string::npos);
  EXPECT_NE(text.find("c="), std::string::npos);
  EXPECT_NE(text.find("en="), std::string::npos);
}

// --------------------------------------------------------------------------
// Elaborated benchmark circuits sanity
// --------------------------------------------------------------------------

TEST(FsmCircuitTest, CounterReachableSpace) {
  SymbolicFsm f(circuits::make_mod_counter({3, 5}));
  const Bdd reach = f.reachable(f.initial_states());
  // count in 0..4, stall/reset free: 5 * 4 = 20 states.
  EXPECT_DOUBLE_EQ(f.count_states(reach), 20.0);
}

TEST(FsmCircuitTest, QueuePointersStayInRange) {
  SymbolicFsm f(circuits::make_circular_queue({2}));
  const Bdd reach = f.reachable(f.initial_states());
  EXPECT_GT(f.count_states(reach), 0.0);
  // pend=1 states are reachable (stalled pointer wraps happen).
  const Bdd pend = f.blast_bool(Expr::var("pend"));
  EXPECT_TRUE(reach.intersects(pend));
}

TEST(FsmCircuitTest, BufferCreditStatesAriseOnlyFromEmptyAccept) {
  SymbolicFsm f(circuits::make_priority_buffer({8, false}));
  const Bdd reach = f.reachable(f.initial_states());
  const Bdd cred = f.blast_bool(Expr::var("lo_cred"));
  EXPECT_TRUE(reach.intersects(cred));
  // Every predecessor of a reachable credit state has an empty buffer
  // with incoming lo entries.
  const Bdd pred = f.backward(reach & cred) & reach;
  const Bdd empty_accept = f.blast_bool(
      (Expr::var("hi") == Expr::word_const(0, 4)) &
      (Expr::var("lo") == Expr::word_const(0, 4)) &
      (Expr::var("in_lo") > Expr::word_const(0, 2)) & !Expr::var("clear"));
  EXPECT_TRUE(pred.subset_of(empty_accept));
}

TEST(FsmCircuitTest, PipelineHoldCountsDown) {
  SymbolicFsm f(circuits::make_pipeline({2, 3}));
  const Bdd reach = f.reachable(f.initial_states());
  const Bdd hold3 =
      f.blast_bool(Expr::var("hold") == Expr::word_const(3, 2));
  EXPECT_TRUE(reach.intersects(hold3));
  const Bdd hold2 =
      f.blast_bool(Expr::var("hold") == Expr::word_const(2, 2));
  EXPECT_TRUE(f.forward(reach & hold3).subset_of(hold2));
}

TEST(FsmCircuitTest, RingInitialStatesAreConjoinedBottomUp) {
  circuits::TokenRingSpec spec;
  spec.cells = 32;
  const model::Model ring = circuits::make_token_ring(spec);
  const SymbolicFsm f(ring);
  bdd::BddManager& m = f.mgr();
  const std::size_t created = m.stats().unique_misses;

  // The same model without INIT values elaborates identically up to the
  // initial states, so the difference in created nodes is exactly what
  // conjoining the 64 INIT bits cost. Conjoined in declaration order
  // under the installed static order, they rebuilt ~1,800 nodes.
  model::Model no_init = ring;
  for (const model::Signal& s : ring.signals()) {
    if (s.kind == model::SignalKind::kState) no_init.set_init(s.name, Expr());
  }
  const SymbolicFsm bare(no_init);
  EXPECT_TRUE(bare.initial_states().is_true());

  // Canonicity: the declaration-order conjunction is the same edge.
  Bdd declared = m.bdd_true();
  std::size_t bits = 0;
  for (const model::Signal& s : ring.signals()) {
    if (s.kind != model::SignalKind::kState || !s.init.valid()) continue;
    const expr::BitVec value = f.blast(s.init);
    const SignalLayout& l = f.layout(s.name);
    ASSERT_EQ(value.bits.size(), l.current.size());
    for (std::size_t i = 0; i < l.current.size(); ++i, ++bits) {
      declared &= m.var(l.current[i]).iff(value.bits[i]);
    }
  }
  EXPECT_EQ(f.initial_states(), declared);
  ASSERT_EQ(bits, 64u);
  EXPECT_LE(created - bare.mgr().stats().unique_misses, 2 * bits);
}

}  // namespace
}  // namespace covest::fsm
