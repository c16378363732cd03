// CTL formula AST and structural utilities.
//
// Atomic propositions are boolean `expr::Expr`s over model signals. After
// parsing (or programmatic construction) formulas are *collapsed*:
// purely-propositional And/Or/Not/Iff subtrees merge into single kProp
// atoms, while implications keep their structure. The collapse matters to
// the coverage semantics: the paper's observability transformation
// (Definition 5) treats `b -> f` specially — only the consequent
// contributes coverage — so `b -> b'` must stay an implication, whereas
// `!stall & count < 5` is one propositional atom.
//
// The acceptable ACTL subset of the paper (Section 2.1):
//
//   f ::= b | b -> f | AX f | AG f | A[f U g] | f & g      (+ AF f sugar)
//
// `acceptable_actl_violation` reports why a formula falls outside it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"

namespace covest::ctl {

enum class CtlOp {
  kProp,
  kNot, kAnd, kOr, kImplies, kIff,
  kAX, kEX, kAF, kEF, kAG, kEG,
  kAU, kEU,
};

struct FormulaNode;

/// Immutable shared-AST CTL formula handle.
class Formula {
 public:
  Formula() = default;

  bool valid() const { return node_ != nullptr; }
  CtlOp op() const;
  /// kProp only: the atomic proposition.
  const expr::Expr& prop() const;
  /// Subformula access (0-based; AU/EU have two, unary temporal one).
  const Formula& arg(std::size_t i) const;
  std::size_t arity() const;
  /// Tree depth, atoms counting their expression's depth, so a collapsed
  /// formula's atoms are never deeper than the formula was.
  unsigned depth() const;

  /// Stable identity for memoization tables.
  const void* id() const { return node_.get(); }

  /// Underlying shared node (null for an invalid handle).
  const FormulaNode* node() const { return node_.get(); }

  // -- Factories --------------------------------------------------------------
  static Formula prop(expr::Expr e);
  static Formula make(CtlOp op, std::vector<Formula> args);

  static Formula AX(Formula f) { return make(CtlOp::kAX, {std::move(f)}); }
  static Formula EX(Formula f) { return make(CtlOp::kEX, {std::move(f)}); }
  static Formula AF(Formula f) { return make(CtlOp::kAF, {std::move(f)}); }
  static Formula EF(Formula f) { return make(CtlOp::kEF, {std::move(f)}); }
  static Formula AG(Formula f) { return make(CtlOp::kAG, {std::move(f)}); }
  static Formula EG(Formula f) { return make(CtlOp::kEG, {std::move(f)}); }
  static Formula AU(Formula f, Formula g) {
    return make(CtlOp::kAU, {std::move(f), std::move(g)});
  }
  static Formula EU(Formula f, Formula g) {
    return make(CtlOp::kEU, {std::move(f), std::move(g)});
  }

  Formula implies(const Formula& rhs) const {
    return make(CtlOp::kImplies, {*this, rhs});
  }

 private:
  explicit Formula(std::shared_ptr<const FormulaNode> node)
      : node_(std::move(node)) {}
  std::shared_ptr<const FormulaNode> node_;
};

struct FormulaNode {
  CtlOp op = CtlOp::kProp;
  expr::Expr prop;
  std::vector<Formula> args;
  /// Structural hash over op/atom/subformulas, computed once at
  /// construction (subformula hashes are already cached, so this is O(1)
  /// per node).
  std::size_t hash = 0;
  /// See Formula::depth.
  unsigned depth = 1;
};

inline unsigned Formula::depth() const { return node_->depth; }

inline Formula operator!(const Formula& f) {
  return Formula::make(CtlOp::kNot, {f});
}
inline Formula operator&(const Formula& a, const Formula& b) {
  return Formula::make(CtlOp::kAnd, {a, b});
}
inline Formula operator|(const Formula& a, const Formula& b) {
  return Formula::make(CtlOp::kOr, {a, b});
}

/// Structural hash of a formula (cached per node, O(1) after
/// construction). Structurally identical formulas hash equal even when
/// parsed separately — the key property the model checker's memo relies
/// on to share satisfaction sets across a suite.
std::size_t structural_hash(const Formula& f);

/// Structural equality: same operator tree and structurally equal atoms.
bool structural_equal(const Formula& a, const Formula& b);

/// Hash/equality functors for structural formula keys in hash maps.
struct FormulaStructuralHash {
  std::size_t operator()(const Formula& f) const { return structural_hash(f); }
};
struct FormulaStructuralEq {
  bool operator()(const Formula& a, const Formula& b) const {
    return structural_equal(a, b);
  }
};

/// Merges propositional And/Or/Not/Iff subtrees into single kProp atoms.
/// Implications are never merged (unless buried under a propositional
/// operator, where the structure cannot be preserved anyway). Idempotent.
Formula collapse_propositional(const Formula& f);

/// Empty string when `f` (after collapse) lies in the paper's acceptable
/// ACTL subset; otherwise a human-readable reason.
std::string acceptable_actl_violation(const Formula& f);

/// Rewrites every atomic proposition through `fn` (used for DEFINE
/// expansion and the observability flip).
Formula transform_props(const Formula& f,
                        const std::function<expr::Expr(const expr::Expr&)>& fn);

/// Pretty-prints (A[.. U ..] style, minimal parentheses).
std::string to_string(const Formula& f);

}  // namespace covest::ctl
