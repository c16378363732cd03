// Randomized differential battery: the whole suite pipeline
// (engine::Session — parse/elaborate, symbolic verification, Table-1
// coverage estimation over one BddManager) against the
// independent explicit-state oracle (xstate::ExplicitModel +
// brute-force Definition-3 coverage), on hundreds of seeded random
// models and random ACTL suites.
//
// Per seed it asserts, for the same random model / suite / OBSERVE
// sets:
//   * identical pass/fail verdict for every property,
//   * identical reachable-state and coverage-space counts,
//   * identical covered-state counts and coverage percentages for every
//     signal row,
// and, on a sub-sample of seeds, that a replay under the chaining image
// order stays byte-identical to the default run.
//
// Reproduction: every failure message carries its seed; set
// COVEST_DIFF_SEED=<n> to re-run exactly that seed (and only it),
// COVEST_DIFF_COUNT=<k> to change the sweep width (default 200).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "core/coverage_oracle.h"
#include "core/observed.h"
#include "ctl/ctl.h"
#include "engine/engine.h"
#include "engine/result_json.h"
#include "model/model.h"
#include "xstate/explicit_model.h"

namespace covest {
namespace {

using ctl::Formula;
using engine::CoverageRequest;
using engine::PropertySpec;
using engine::SuiteResult;
using expr::Expr;

// --------------------------------------------------------------------------
// Seeded random model + suite generator
// --------------------------------------------------------------------------

struct GeneratedSuite {
  model::Model model;
  std::vector<Formula> formulas;            ///< Parallel to request props.
  std::vector<std::string> signal_names;    ///< Requested row order.
  CoverageRequest request;
};

/// Random boolean expression over the given signal names.
Expr random_expr(std::mt19937& rng, const std::vector<std::string>& names,
                 int depth) {
  std::uniform_int_distribution<int> pick(0, 7);
  std::uniform_int_distribution<std::size_t> var(0, names.size() - 1);
  if (depth == 0) {
    Expr e = Expr::var(names[var(rng)]);
    return pick(rng) % 2 == 0 ? e : !e;
  }
  switch (pick(rng)) {
    case 0: return !random_expr(rng, names, depth - 1);
    case 1:
      return random_expr(rng, names, depth - 1) &
             random_expr(rng, names, depth - 1);
    case 2:
      return random_expr(rng, names, depth - 1) |
             random_expr(rng, names, depth - 1);
    case 3:
      return random_expr(rng, names, depth - 1) ^
             random_expr(rng, names, depth - 1);
    default: {
      Expr e = Expr::var(names[var(rng)]);
      return pick(rng) % 2 == 0 ? e : !e;
    }
  }
}

/// Random formula from the acceptable ACTL grammar (paper Section 2.1):
/// propositions, b -> f, AX, AG, A[f U g], AF, conjunction.
Formula random_acceptable(std::mt19937& rng,
                          const std::vector<std::string>& atoms, int depth) {
  std::uniform_int_distribution<int> pick(0, 6);
  if (depth == 0) return Formula::prop(random_expr(rng, atoms, 1));
  switch (pick(rng)) {
    case 0: return Formula::prop(random_expr(rng, atoms, 1));
    case 1:
      return Formula::prop(random_expr(rng, atoms, 1))
          .implies(random_acceptable(rng, atoms, depth - 1));
    case 2: return Formula::AX(random_acceptable(rng, atoms, depth - 1));
    case 3: return Formula::AG(random_acceptable(rng, atoms, depth - 1));
    case 4:
      return Formula::AU(random_acceptable(rng, atoms, depth - 1),
                         random_acceptable(rng, atoms, depth - 1));
    case 5:
      return random_acceptable(rng, atoms, depth - 1) &
             random_acceptable(rng, atoms, depth - 1);
    default: return Formula::AF(random_acceptable(rng, atoms, depth - 1));
  }
}

GeneratedSuite generate(std::uint32_t seed) {
  std::mt19937 rng(seed * 2654435761u + 0x9e3779b9u);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> d6(0, 5);

  GeneratedSuite g;
  model::ModelBuilder b("diff" + std::to_string(seed));
  const std::vector<std::string> state_names = {"x", "y", "z"};
  // Mixed initial values: some concrete, some free — the initial set is
  // never empty, so "all initial states satisfy f" is never vacuous.
  b.state_bool("x", false);
  b.state_bool("y", coin(rng) == 0);
  if (coin(rng) == 0) {
    b.state_bool("z", true);
  } else {
    b.state_bool("z");  // Unconstrained initial value.
  }
  b.input_bool("in");

  std::vector<std::string> expr_names = {"x", "y", "z", "in"};
  g.signal_names = {"x", "y", "z", "in"};
  if (d6(rng) < 2) {
    // Occasionally a DEFINE, observable like any signal (the estimator
    // keeps an observed DEFINE symbolic so its label can flip).
    b.define("d", random_expr(rng, expr_names, 1));
    g.signal_names.push_back("d");
  }
  const bool has_define =
      g.signal_names.size() == 5;  // "d" was added above.

  // Random next-state functions over the full signal set (defines
  // excluded from next-state support to keep the generator simple).
  for (const std::string& s : state_names) {
    b.next(s, random_expr(rng, expr_names, 2));
  }

  // Fairness about a third of the time: a random literal. Whatever fair
  // set results — even a degenerate one — both engines must agree on it.
  if (d6(rng) < 2) {
    Expr f = Expr::var(expr_names[static_cast<std::size_t>(d6(rng)) %
                                  expr_names.size()]);
    b.fairness(coin(rng) == 0 ? f : !f);
  }

  g.model = b.build();

  // Random suite: 2–4 properties, each with a random OBSERVE set (empty
  // means "relevant to every requested signal").
  std::vector<std::string> atoms = expr_names;
  if (has_define) atoms.push_back("d");
  std::uniform_int_distribution<int> nprops(2, 4);
  const int props = nprops(rng);
  for (int i = 0; i < props; ++i) {
    const Formula f = random_acceptable(rng, atoms, 3);
    std::vector<std::string> observe;
    if (coin(rng) == 0) {
      for (const std::string& s : g.signal_names) {
        if (coin(rng) == 0) observe.push_back(s);
      }
    }
    g.formulas.push_back(f);
    g.request.properties.push_back(PropertySpec::of(f, observe));
  }

  g.request.model = g.model;
  g.request.signals = g.signal_names;
  g.request.uncovered_limit = 0;  // Counts and percentages are the contract.
  return g;
}

// --------------------------------------------------------------------------
// The explicit-state side of the differential
// --------------------------------------------------------------------------

struct OracleSuite {
  std::vector<bool> verdicts;         ///< Per property.
  double reachable_count = 0;
  double space_count = 0;             ///< |reachable ∧ fair|.
  std::vector<double> covered_counts;  ///< Per requested signal row.
  std::vector<double> percents;
};

OracleSuite oracle_run(const GeneratedSuite& g) {
  OracleSuite o;
  const xstate::ExplicitModel xm(g.model);

  std::vector<Formula> collapsed;
  for (const Formula& f : g.formulas) {
    collapsed.push_back(ctl::collapse_propositional(f));
    o.verdicts.push_back(xm.holds(collapsed.back()));
  }

  // The coverage space of the defaults (restrict_to_fair = true, no
  // DONTCAREs here): states both reachable and fair. Any state on a
  // path to a fair state is itself fair, so plain reachability
  // intersected with the fair set equals fair-restricted reachability.
  std::vector<bool> space(xm.num_states());
  for (std::size_t s = 0; s < xm.num_states(); ++s) {
    if (xm.reachable()[s]) o.reachable_count += 1.0;
    space[s] = xm.reachable()[s] && xm.fair()[s];
    if (space[s]) o.space_count += 1.0;
  }

  for (const std::string& name : g.request.signals) {
    std::vector<bool> covered(xm.num_states(), false);
    for (std::size_t j = 0; j < g.formulas.size(); ++j) {
      if (!o.verdicts[j]) continue;  // skip_failing=false skips failures.
      const std::vector<std::string>& obs = g.request.properties[j].observe;
      if (!obs.empty() &&
          std::find(obs.begin(), obs.end(), name) == obs.end()) {
        continue;
      }
      for (const core::ObservedSignal& q :
           core::observe_all_bits(g.model, name)) {
        const core::Def3Result r =
            core::definition3_covered(xm, g.formulas[j], q, true);
        for (const std::size_t s : r.covered) covered[s] = true;
      }
    }
    double count = 0;
    for (std::size_t s = 0; s < xm.num_states(); ++s) {
      if (covered[s] && space[s]) count += 1.0;
    }
    o.covered_counts.push_back(count);
    o.percents.push_back(o.space_count == 0.0
                             ? 100.0
                             : 100.0 * count / o.space_count);
  }
  return o;
}

// --------------------------------------------------------------------------
// The differential assertion
// --------------------------------------------------------------------------

std::string canonical(const SuiteResult& r) {
  engine::JsonOptions opts;
  opts.include_stats = false;
  return engine::to_json(r, opts);
}

/// One seed, end to end; returns how many signal rows had a non-empty
/// covered set (generator-health accounting). `check_strategies`
/// additionally replays the suite under the chaining image order and
/// holds it to byte-identity.
std::size_t run_seed(std::uint32_t seed, bool check_strategies) {
  SCOPED_TRACE("COVEST_DIFF_SEED=" + std::to_string(seed));
  const GeneratedSuite g = generate(seed);

  engine::Engine eng;
  auto session = eng.open(g.request);
  const SuiteResult serial = session->run(g.request);
  EXPECT_TRUE(serial.error.empty()) << serial.error;
  if (!serial.error.empty()) return 0;

  const OracleSuite o = oracle_run(g);

  // Verdicts.
  EXPECT_EQ(serial.properties.size(), o.verdicts.size());
  if (serial.properties.size() != o.verdicts.size()) return 0;
  std::size_t failures = 0;
  for (std::size_t j = 0; j < o.verdicts.size(); ++j) {
    EXPECT_EQ(serial.properties[j].holds, o.verdicts[j])
        << "property " << j << ": " << serial.properties[j].ctl_text;
    if (!o.verdicts[j]) ++failures;
  }
  EXPECT_EQ(serial.failures, failures);

  // State-space bookkeeping.
  EXPECT_DOUBLE_EQ(serial.reachable_states, o.reachable_count);
  EXPECT_DOUBLE_EQ(serial.space_count, o.space_count);

  // Covered counts and percentages, row by row.
  EXPECT_EQ(serial.signals.size(), o.covered_counts.size());
  if (serial.signals.size() != o.covered_counts.size()) return 0;
  std::size_t interesting = 0;
  for (std::size_t i = 0; i < serial.signals.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.signals[i].covered_count, o.covered_counts[i])
        << "signal " << serial.signals[i].name;
    EXPECT_DOUBLE_EQ(serial.signals[i].percent, o.percents[i])
        << "signal " << serial.signals[i].name;
    if (o.covered_counts[i] > 0.0) ++interesting;
  }

  if (check_strategies) {
    const std::string expect = canonical(serial);
    // Image-order parity: the baseline above ran under the default
    // (partitioned) order. The cluster visit order is baked into the
    // session at elaboration, so replay through a *fresh* session under
    // the chaining order and hold it to byte-identity.
    CoverageRequest replay = g.request;
    replay.options.image_strategy = image::ImageStrategy::kChaining;
    auto chaining_session = eng.open(replay);
    EXPECT_EQ(canonical(chaining_session->run(replay)), expect);
  }
  return interesting;
}

std::uint32_t env_u32(const char* name, std::uint32_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  return static_cast<std::uint32_t>(std::strtoul(text, nullptr, 10));
}

TEST(DifferentialOracleTest, RandomSuitesAgreeWithExplicitOracle) {
  const char* pinned = std::getenv("COVEST_DIFF_SEED");
  if (pinned != nullptr && *pinned != '\0') {
    // Reproduction mode: exactly the reported seed, with the strategy
    // replay always on.
    (void)run_seed(env_u32("COVEST_DIFF_SEED", 0), /*check_strategies=*/true);
    return;
  }
  const std::uint32_t count = env_u32("COVEST_DIFF_COUNT", 200);
  std::size_t interesting_rows = 0;
  for (std::uint32_t seed = 0; seed < count; ++seed) {
    interesting_rows += run_seed(seed, /*check_strategies=*/seed % 8 == 0);
    if (HasFailure()) {
      return;  // The SCOPED_TRACE already names the failing seed.
    }
  }
  // Generator health: the sweep must exercise non-trivial coverage, not
  // just vacuous 0% rows.
  EXPECT_GT(interesting_rows, 20u)
      << "the random generator stopped producing covered states";
}

}  // namespace
}  // namespace covest
