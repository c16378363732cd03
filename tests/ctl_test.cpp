// Tests for the CTL layer: AST/collapse/subset checks, the parser, and the
// symbolic checker validated against the explicit-state engine on
// randomized models (the first oracle).
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <random>

#include "circuits/circuits.h"
#include "ctl/checker.h"
#include "ctl/ctl.h"
#include "ctl/ctl_parser.h"
#include "fsm/symbolic_fsm.h"
#include "model/model.h"
#include "xstate/explicit_model.h"

namespace covest::ctl {
namespace {

using expr::Expr;

// --------------------------------------------------------------------------
// AST and collapse
// --------------------------------------------------------------------------

TEST(CtlAstTest, PropositionalSubtreesCollapse) {
  const Formula f = (!Formula::prop(Expr::var("a"))) &
                    Formula::prop(Expr::var("b"));
  const Formula c = collapse_propositional(f);
  EXPECT_EQ(c.op(), CtlOp::kProp);
  EXPECT_EQ(expr::to_string(c.prop()), "!a & b");
}

TEST(CtlAstTest, ImplicationsDoNotCollapse) {
  const Formula f = Formula::prop(Expr::var("a"))
                        .implies(Formula::prop(Expr::var("b")));
  const Formula c = collapse_propositional(f);
  EXPECT_EQ(c.op(), CtlOp::kImplies);
  EXPECT_EQ(c.arg(0).op(), CtlOp::kProp);
}

TEST(CtlAstTest, AntecedentsCollapseInsideImplication) {
  const Formula f =
      ((!Formula::prop(Expr::var("a"))) & Formula::prop(Expr::var("b")))
          .implies(Formula::AX(Formula::prop(Expr::var("c"))));
  const Formula c = collapse_propositional(f);
  ASSERT_EQ(c.op(), CtlOp::kImplies);
  EXPECT_EQ(c.arg(0).op(), CtlOp::kProp);
  EXPECT_EQ(expr::to_string(c.arg(0).prop()), "!a & b");
  EXPECT_EQ(c.arg(1).op(), CtlOp::kAX);
}

TEST(CtlAstTest, CollapseIsIdempotent) {
  const Formula f = Formula::AG(
      (Formula::prop(Expr::var("a")) | Formula::prop(Expr::var("b"))));
  const Formula once = collapse_propositional(f);
  const Formula twice = collapse_propositional(once);
  EXPECT_EQ(to_string(once), to_string(twice));
}

// --------------------------------------------------------------------------
// Acceptable ACTL subset
// --------------------------------------------------------------------------

TEST(CtlSubsetTest, AcceptsThePaperShapes) {
  const auto ok = [](const char* text) {
    EXPECT_EQ(acceptable_actl_violation(parse_ctl(text)), "") << text;
  };
  ok("a");
  ok("a -> AX b");
  ok("AG (a -> AX b)");
  ok("AG a & AG b");
  ok("A[a U b]");
  ok("AF a");
  ok("AG (p1 -> A[p2 U A[p3 U p4]])");  // The paper's pipeline shape.
  ok("AG ((!stall) & (!reset) & count < 5 -> AX (count == 3))");
}

TEST(CtlSubsetTest, RejectsOutsideShapes) {
  const auto bad = [](const char* text) {
    EXPECT_NE(acceptable_actl_violation(parse_ctl(text)), "") << text;
  };
  bad("EF a");
  bad("EG a");
  bad("E[a U b]");
  bad("AG a | AG b");   // Disjunction of temporal formulas.
  bad("!AX a");         // Negated temporal formula.
  bad("AX a -> AX b");  // Temporal antecedent.
}

// --------------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------------

TEST(CtlParserTest, ParsesTemporalOperators) {
  EXPECT_EQ(parse_ctl("AG (a -> AX b)").op(), CtlOp::kAG);
  EXPECT_EQ(parse_ctl("A[a U b]").op(), CtlOp::kAU);
  EXPECT_EQ(parse_ctl("E[a U b]").op(), CtlOp::kEU);
  EXPECT_EQ(parse_ctl("EF a").op(), CtlOp::kEF);
  EXPECT_EQ(parse_ctl("AF a").op(), CtlOp::kAF);
  EXPECT_EQ(parse_ctl("EX a").op(), CtlOp::kEX);
  EXPECT_EQ(parse_ctl("EG a").op(), CtlOp::kEG);
}

TEST(CtlParserTest, ImplicationSplitsFormulaLevels) {
  const Formula f = parse_ctl("(!stall) & count < 5 -> AX (count == 3)");
  ASSERT_EQ(f.op(), CtlOp::kImplies);
  EXPECT_EQ(f.arg(0).op(), CtlOp::kProp);
  EXPECT_EQ(f.arg(1).op(), CtlOp::kAX);
}

TEST(CtlParserTest, NestedUntil) {
  const Formula f = parse_ctl("AG (p1 -> A[p2 U A[p3 U p4]])");
  ASSERT_EQ(f.op(), CtlOp::kAG);
  const Formula& imp = f.arg(0);
  ASSERT_EQ(imp.op(), CtlOp::kImplies);
  ASSERT_EQ(imp.arg(1).op(), CtlOp::kAU);
  EXPECT_EQ(imp.arg(1).arg(1).op(), CtlOp::kAU);
}

TEST(CtlParserTest, ParenthesisedArithmeticAtomBacktracks) {
  const Formula f = parse_ctl("AG ((x + y) == 3)");
  ASSERT_EQ(f.op(), CtlOp::kAG);
  ASSERT_EQ(f.arg(0).op(), CtlOp::kProp);
  EXPECT_EQ(expr::to_string(f.arg(0).prop()), "x + y == 3");
}

TEST(CtlParserTest, ParenthesisedFormulaStaysFormula) {
  const Formula f = parse_ctl("(a -> AX b) & AG c");
  ASSERT_EQ(f.op(), CtlOp::kAnd);
  EXPECT_EQ(f.arg(0).op(), CtlOp::kImplies);
  EXPECT_EQ(f.arg(1).op(), CtlOp::kAG);
}

TEST(CtlParserTest, TemporalKeywordsCannotBeSignals) {
  EXPECT_THROW(parse_ctl("AG (AX == 3)"), std::runtime_error);
}

TEST(CtlParserTest, RejectsTrailingInput) {
  EXPECT_THROW(parse_ctl("AG a b"), std::runtime_error);
}

TEST(CtlParserTest, RoundTripsThroughToString) {
  for (const char* text :
       {"AG (a -> AX b)", "A[a U b] & AF c", "AG (p1 -> A[p2 U A[p3 U p4]])",
        "AG ((!stall) & count < 5 -> AX (count == 3))"}) {
    const Formula f = parse_ctl(text);
    const Formula reparsed = parse_ctl(to_string(f));
    EXPECT_EQ(to_string(reparsed), to_string(f)) << text;
  }
}

// Depth bound (expr::kMaxSyntaxDepth): a formula's depth counts its
// atoms' expression depth, so one bound covers both parsers.
std::string repeat(const std::string& s, unsigned n) {
  std::string out;
  out.reserve(s.size() * n);
  for (unsigned i = 0; i < n; ++i) out += s;
  return out;
}

std::string chain(const std::string& term, const std::string& op,
                  unsigned terms) {
  std::string out = term;
  for (unsigned i = 1; i < terms; ++i) out += op + term;
  return out;
}

void expect_too_deep(const std::string& text) {
  try {
    parse_ctl(text);
    FAIL() << "accepted " << text.size() << " bytes";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("syntax error at line 1, column ", 0), 0u) << what;
    EXPECT_NE(what.find("nested deeper than 256 levels"), std::string::npos)
        << what;
  }
}

TEST(CtlDepthBoundTest, FormulasAtTheBoundParse) {
  const unsigned d = expr::kMaxSyntaxDepth;
  EXPECT_EQ(parse_ctl(repeat("!", d - 1) + "true").depth(), d);
  EXPECT_EQ(parse_ctl(repeat("AX ", d - 1) + "p").depth(), d);
  EXPECT_EQ(parse_ctl(repeat("(", d) + "p" + repeat(")", d)).depth(), 1u);
  EXPECT_EQ(parse_ctl(chain("true", " & ", d)).depth(), d);
  // Three nesting levels per `AG (p -> `: AG, the paren and the
  // right-associative `->`.
  EXPECT_EQ(parse_ctl(repeat("AG (p -> ", d / 3) + "p" + repeat(")", d / 3))
                .depth(),
            2 * (d / 3) + 1);
  expect_too_deep(repeat("AG (p -> ", d / 3 + 1) + "p" +
                  repeat(")", d / 3 + 1));
}

TEST(CtlDepthBoundTest, CrashReproductionsAreLocatedErrors) {
  // Each of these used to overflow the stack.
  expect_too_deep(repeat("!", 100000) + "true");
  expect_too_deep(chain("true", " & ", 100000));
  expect_too_deep(repeat("(", 100000) + "p" + repeat(")", 100000));
  // One level past the bound, in each shape.
  const unsigned d = expr::kMaxSyntaxDepth;
  expect_too_deep(repeat("!", d) + "true");
  expect_too_deep(repeat("EF ", d) + "p");
  expect_too_deep(repeat("A [p U ", d + 1) + "p" + repeat("]", d + 1));
  expect_too_deep(chain("p", " | ", d + 1));
  expect_too_deep(chain("p", " -> ", d + 1));
  expect_too_deep(chain("p", " <-> ", d + 1));
}

TEST(CtlDepthBoundTest, TemporalAndAtomDepthShareTheBound) {
  // 200 temporal levels over a 100-level atom: each part alone is
  // legal, together they pass the bound.
  const std::string atom = chain("x", " + ", 100);
  EXPECT_EQ(parse_ctl(repeat("AG ", 150) + atom).depth(), 250u);
  expect_too_deep(repeat("AG ", 200) + atom);
  expect_too_deep(repeat("AG (", 200) + atom + repeat(")", 200));
}

TEST(CtlDepthBoundTest, ParenBacktrackingStaysBounded) {
  // `(!( ... ) ^ y)`: three nesting levels per group, read as one
  // arithmetic atom because of the '^' after each inner group. The bound
  // caps the nesting.
  const auto nested = [](unsigned levels) {
    return repeat("(!(", levels) + "x" + repeat(") ^ y)", levels);
  };
  const Formula f = parse_ctl(nested(85));  // 255 levels: at the bound.
  EXPECT_EQ(f.op(), CtlOp::kProp);
  expect_too_deep(nested(86));
  expect_too_deep(nested(400));
}

TEST(CtlDepthBoundTest, ParenGroupsBeforeAnExpressionOperatorParseOnce) {
  // Levels of `(!( ... ) ^ y)` around a ~100 KB balanced formula. Each
  // group is followed by `^`, which only an expression can take, so the
  // parser reads it as an atom at once instead of first trying the
  // formula reading and re-parsing the group once per level. 80 levels
  // then cost about what one level costs; re-parsing per level, they
  // cost about 40 times as much (2.0 s against 46 ms, Release).
  const std::function<std::string(unsigned)> balanced = [&](unsigned d) {
    return d == 0 ? std::string("x")
                  : "(" + balanced(d - 1) + " & " + balanced(d - 1) + ")";
  };
  const std::string inner = balanced(14);
  ASSERT_GT(inner.size(), 95'000u);
  const auto parse_ms = [&](unsigned levels) {
    const std::string text =
        repeat("(!(", levels) + inner + repeat(") ^ y)", levels);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(parse_ctl(text).op(), CtlOp::kProp);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  const double one_level = parse_ms(1);
  const double eighty_levels = parse_ms(80);
  EXPECT_LT(eighty_levels, 10 * one_level)
      << "80 levels: " << eighty_levels << " ms, 1 level: " << one_level
      << " ms";
}

// --------------------------------------------------------------------------
// Checker on hand-built models
// --------------------------------------------------------------------------

class CheckerTest : public ::testing::Test {
 protected:
  CheckerTest() : fsm(circuits::make_mod_counter({3, 5})), mc(fsm) {}
  fsm::SymbolicFsm fsm;
  ModelChecker mc;
};

TEST_F(CheckerTest, CounterIncrementHolds) {
  EXPECT_TRUE(mc.holds(
      parse_ctl("AG ((!stall) & (!reset) & count == 2 -> AX (count == 3))")));
}

TEST_F(CheckerTest, WrongIncrementFails) {
  EXPECT_FALSE(mc.holds(
      parse_ctl("AG ((!stall) & (!reset) & count == 2 -> AX (count == 4))")));
}

TEST_F(CheckerTest, CounterStaysBelowLimit) {
  EXPECT_TRUE(mc.holds(parse_ctl("AG (count < 5)")));
  EXPECT_FALSE(mc.holds(parse_ctl("AG (count < 4)")));
}

TEST_F(CheckerTest, ResetEventuallyPossible) {
  EXPECT_TRUE(mc.holds(parse_ctl("AG EF (count == 0)")));
}

TEST_F(CheckerTest, EventualWrapUnderInputs) {
  // Without fairness, stalling forever avoids the wrap: AF fails.
  EXPECT_FALSE(mc.holds(parse_ctl("AF (count == 4)")));
  // But a path to the wrap exists.
  EXPECT_TRUE(mc.holds(parse_ctl("EF (count == 4)")));
}

TEST_F(CheckerTest, CounterexampleTraceEndsInViolation) {
  const CheckResult r = mc.check(parse_ctl("AG (count < 3)"));
  EXPECT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(r.counterexample->steps.back().values.at("count"), 3u);
}

TEST_F(CheckerTest, MemoizationReusesSubformulas) {
  const Formula f = parse_ctl("AG (count < 5)");
  mc.sat(f);
  const std::size_t size_after_first = mc.memo_size();
  mc.sat(f);
  EXPECT_EQ(mc.memo_size(), size_after_first);
}

TEST_F(CheckerTest, MemoIsKeyedStructurallyAcrossSeparateParses) {
  // The memo is keyed by structural hash, not AST node address: parsing
  // the same text twice (distinct shared-AST nodes) must hit the memo,
  // so identical SPEC sub-formulas share satisfaction sets across a
  // suite.
  const Formula a = parse_ctl("AG (count < 5 -> AX (count < 6))");
  const Formula b = parse_ctl("AG (count < 5 -> AX (count < 6))");
  ASSERT_NE(a.id(), b.id());
  EXPECT_TRUE(structural_equal(a, b));
  EXPECT_EQ(structural_hash(a), structural_hash(b));

  const bdd::Bdd sat_a = mc.sat(a);
  const std::size_t size_after_first = mc.memo_size();
  EXPECT_EQ(mc.sat(b), sat_a);
  EXPECT_EQ(mc.memo_size(), size_after_first);

  // A structurally different formula is a new entry.
  mc.sat(parse_ctl("AG (count < 4 -> AX (count < 6))"));
  EXPECT_GT(mc.memo_size(), size_after_first);
}

TEST(CheckerFairnessTest, FairnessTurnsLivenessTrue) {
  // With FAIRNESS !stall, the pipeline-style argument applies to the
  // counter: AF(count==4) becomes true because eternal stalling is
  // unfair... reset still breaks it, so restrict to !reset via fairness
  // as well for the test model.
  model::ModelBuilder b("fair_counter");
  const Expr count = b.state_word("count", 3, 0);
  const Expr stall = b.input_bool("stall");
  const Expr wrapped = ite(count == Expr::word_const(4, 3),
                           Expr::word_const(0, 3),
                           count + Expr::word_const(1, 3));
  b.next("count", ite(stall, count, wrapped));
  b.fairness(!stall);
  fsm::SymbolicFsm f(b.build());
  ModelChecker mc(f);
  EXPECT_TRUE(mc.holds(parse_ctl("AF (count == 4)")));
  EXPECT_FALSE(f.fairness().empty());
}

TEST(CheckerFairnessTest, FairStatesAreAllStatesWithFreeInputs) {
  fsm::SymbolicFsm f(circuits::make_pipeline({2, 3}));
  ModelChecker mc(f);
  // Every state can start a fair path (stall is a free input).
  EXPECT_TRUE(mc.fair_states().is_true());
}

// --------------------------------------------------------------------------
// Randomized equivalence with the explicit-state engine
// --------------------------------------------------------------------------

// Random small models: 3 boolean latches with random next functions over
// latches and one input, plus (sometimes) a fairness constraint.
model::Model random_model(std::mt19937& rng, bool with_fairness) {
  model::ModelBuilder b("rand");
  const Expr x = b.state_bool("x", false);
  const Expr y = b.state_bool("y", false);
  const Expr z = b.state_bool("z");  // Free initial value.
  const Expr in = b.input_bool("in");
  const std::vector<Expr> pool{x, y, z, in, x ^ y, y & z, (!x), x | (y & in)};
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  const auto rand_expr = [&] {
    Expr e = pool[pick(rng)];
    if (pick(rng) % 2 == 0) e = e ^ pool[pick(rng)];
    if (pick(rng) % 3 == 0) e = !e;
    return e;
  };
  b.next("x", rand_expr());
  b.next("y", rand_expr());
  b.next("z", rand_expr());
  if (with_fairness) b.fairness(rand_expr());
  return b.build();
}

// Random full-CTL formula over the signals of `random_model`.
Formula random_ctl(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> pick(0, 12);
  const std::vector<const char*> atoms{"x", "y", "z", "in"};
  std::uniform_int_distribution<std::size_t> atom(0, atoms.size() - 1);
  if (depth == 0) {
    Expr e = Expr::var(atoms[atom(rng)]);
    if (pick(rng) % 2 == 0) e = !e;
    return Formula::prop(e);
  }
  switch (pick(rng)) {
    case 0: return !random_ctl(rng, depth - 1);
    case 1: return random_ctl(rng, depth - 1) & random_ctl(rng, depth - 1);
    case 2: return random_ctl(rng, depth - 1) | random_ctl(rng, depth - 1);
    case 3:
      return random_ctl(rng, depth - 1).implies(random_ctl(rng, depth - 1));
    case 4: return Formula::AX(random_ctl(rng, depth - 1));
    case 5: return Formula::EX(random_ctl(rng, depth - 1));
    case 6: return Formula::AF(random_ctl(rng, depth - 1));
    case 7: return Formula::EF(random_ctl(rng, depth - 1));
    case 8: return Formula::AG(random_ctl(rng, depth - 1));
    case 9: return Formula::EG(random_ctl(rng, depth - 1));
    case 10:
      return Formula::AU(random_ctl(rng, depth - 1),
                         random_ctl(rng, depth - 1));
    case 11:
      return Formula::EU(random_ctl(rng, depth - 1),
                         random_ctl(rng, depth - 1));
    default: return random_ctl(rng, 0);
  }
}

class CtlOracleEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CtlOracleEquivalence, SymbolicMatchesExplicitOnRandomModels) {
  std::mt19937 rng(GetParam());
  const bool with_fairness = GetParam() % 3 == 0;
  const model::Model m = random_model(rng, with_fairness);

  fsm::SymbolicFsm sym(m);
  ModelChecker mc(sym);
  xstate::ExplicitModel xm(m);

  // Bit k of the explicit state index corresponds to current var k.
  const auto& vars = sym.current_vars();
  ASSERT_EQ(std::size_t{1} << vars.size(), xm.num_states());

  for (int trial = 0; trial < 8; ++trial) {
    const Formula f = collapse_propositional(random_ctl(rng, 3));
    const bdd::Bdd sat = mc.sat(f);
    const std::vector<bool> xsat = xm.sat(f);
    for (std::size_t s = 0; s < xm.num_states(); ++s) {
      std::vector<bool> assignment(sym.mgr().num_vars(), false);
      for (std::size_t k = 0; k < vars.size(); ++k) {
        assignment[vars[k]] = (s >> k) & 1;
      }
      ASSERT_EQ(sym.mgr().eval(sat, assignment), xsat[s])
          << "state " << s << " formula " << to_string(f)
          << (with_fairness ? " (fair)" : "");
    }
    EXPECT_EQ(mc.holds(f), xm.holds(f)) << to_string(f);
  }
}

// The care-set contract (checker.h): restricted to the reachable states,
// `sat` is exact there, and everything read off it — `holds` and
// `check`'s counterexample — matches the full-space checker.
TEST_P(CtlOracleEquivalence, ReachableCareSetIsExactOnReachableStates) {
  std::mt19937 rng(GetParam());
  const bool with_fairness = GetParam() % 3 == 0;
  const model::Model m = random_model(rng, with_fairness);

  fsm::SymbolicFsm sym(m);
  ModelChecker full(sym);
  ModelChecker restricted(sym);
  const bdd::Bdd& reach = restricted.restrict_to_reachable();
  EXPECT_EQ(reach, sym.reachable(sym.initial_states()));
  EXPECT_EQ(&restricted.restrict_to_reachable(), &reach);
  xstate::ExplicitModel xm(m);

  const auto& vars = sym.current_vars();
  ASSERT_EQ(std::size_t{1} << vars.size(), xm.num_states());

  for (int trial = 0; trial < 8; ++trial) {
    const Formula f = collapse_propositional(random_ctl(rng, 3));
    const bdd::Bdd sat = restricted.sat(f);
    const std::vector<bool> xsat = xm.sat(f);
    for (std::size_t s = 0; s < xm.num_states(); ++s) {
      if (!xm.reachable()[s]) continue;
      std::vector<bool> assignment(sym.mgr().num_vars(), false);
      for (std::size_t k = 0; k < vars.size(); ++k) {
        assignment[vars[k]] = (s >> k) & 1;
      }
      ASSERT_EQ(sym.mgr().eval(sat, assignment), xsat[s])
          << "state " << s << " formula " << to_string(f)
          << (with_fairness ? " (fair)" : "");
    }
    EXPECT_EQ(restricted.holds(f), full.holds(f)) << to_string(f);

    const CheckResult want = full.check(f);
    const CheckResult got = restricted.check(f);
    EXPECT_EQ(got.holds, want.holds) << to_string(f);
    ASSERT_EQ(got.counterexample.has_value(), want.counterexample.has_value())
        << to_string(f);
    if (want.counterexample) {
      EXPECT_EQ(got.counterexample->to_string(sym),
                want.counterexample->to_string(sym))
          << to_string(f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CtlOracleEquivalence, ::testing::Range(0, 30));

TEST(CareSetTest, OnlyUnreachableStatesChange) {
  // x stays false forever, so x=1 is unreachable: full-space EF x holds
  // exactly there, while the restricted checker drops it.
  model::ModelBuilder b("stuck");
  const Expr x = b.state_bool("x", false);
  b.next("x", x);
  fsm::SymbolicFsm sym(b.build());
  ModelChecker full(sym);
  ModelChecker restricted(sym);
  restricted.restrict_to_reachable();

  const Formula ef = Formula::EF(Formula::prop(x));
  EXPECT_EQ(full.sat(ef), sym.blast_bool(x));
  EXPECT_TRUE(restricted.sat(ef).is_false());
  EXPECT_FALSE(full.holds(ef));
  EXPECT_FALSE(restricted.holds(ef));

  const Formula ag = Formula::AG(Formula::prop(!x));
  EXPECT_EQ(full.sat(ag), !sym.blast_bool(x));
  EXPECT_TRUE(full.holds(ag));
  EXPECT_TRUE(restricted.holds(ag));
}

}  // namespace
}  // namespace covest::ctl
