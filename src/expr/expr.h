// Word-level expression AST.
//
// Circuit models (next-state functions, initial constraints, DEFINEs) and
// the atomic propositions of CTL formulas are expressions over named
// signals. Two signal types exist: `bool` and `uint<W>` (an unsigned
// bit-vector with wrap-around arithmetic, W <= 32).
//
// Expressions are immutable and cheaply shareable. They are evaluated in
// three ways:
//   * type inference / checking against a symbol resolver,
//   * concrete evaluation (used by the explicit-state reference engine),
//   * bit-blasting to BDDs (see bitblast.h).
//
// The coverage estimator's "flip the observed signal" substitution
// (Definition 2 of the paper) is `substitute_signal`, which rewrites every
// reference to a signal with an arbitrary replacement expression.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace covest::expr {

/// Type of an expression or signal: boolean or uint<width>.
struct Type {
  bool is_bool = true;
  unsigned width = 1;  ///< Bit width; 1 for booleans.

  static Type boolean() { return Type{true, 1}; }
  static Type word(unsigned width) { return Type{false, width}; }
  bool operator==(const Type&) const = default;
};

std::string to_string(const Type& t);

enum class Op {
  kConst,    // value/width literal
  kVarRef,   // named signal
  kNot,      // boolean negation
  kBitNot,   // bitwise complement (word)
  kAnd,      // boolean or bitwise conjunction
  kOr,       // boolean or bitwise disjunction
  kXor,      // boolean or bitwise exclusive-or
  kImplies,  // boolean implication
  kIff,      // boolean equivalence
  kAdd,      // word addition mod 2^W
  kSub,      // word subtraction mod 2^W
  kMul,      // word multiplication mod 2^W
  kEq, kNe, kLt, kLe, kGt, kGe,  // comparisons -> bool
  kIte,      // cond ? then : else
  kExtract,  // single-bit extract: word[i] -> bool
};

class Expr;
struct ExprNode {
  Op op;
  std::uint64_t value = 0;     ///< kConst: literal value. kExtract: bit index.
  unsigned const_width = 0;    ///< kConst: declared width (0 = boolean).
  bool const_is_bool = false;  ///< kConst: boolean literal?
  std::string name;            ///< kVarRef: signal name.
  std::vector<Expr> args;
  /// Levels from this node down to its deepest leaf; leaves are 1.
  unsigned depth = 1;
};

/// Immutable shared-AST expression handle.
class Expr {
 public:
  Expr() = default;

  bool valid() const { return node_ != nullptr; }
  const ExprNode& node() const { return *node_; }
  Op op() const { return node_->op; }
  /// Tree depth (leaves are 1); the parsers bound it (lexer.h).
  unsigned depth() const { return node_->depth; }

  // -- Factories ------------------------------------------------------------

  static Expr bool_const(bool value);
  static Expr word_const(std::uint64_t value, unsigned width);
  static Expr var(std::string name);
  static Expr make(Op op, std::vector<Expr> args);
  static Expr extract(Expr word, unsigned bit);

  // Named combinators (boolean).
  Expr implies(const Expr& rhs) const { return make(Op::kImplies, {*this, rhs}); }
  Expr iff(const Expr& rhs) const { return make(Op::kIff, {*this, rhs}); }

  /// Structural identity of the shared AST node (not semantic equality;
  /// `operator==` below builds an equality *expression* instead).
  bool same_node(const Expr& rhs) const { return node_ == rhs.node_; }

 private:
  explicit Expr(std::shared_ptr<const ExprNode> node)
      : node_(std::move(node)) {}
  std::shared_ptr<const ExprNode> node_;
};

/// cond ? then_e : else_e (types of the branches must agree).
Expr ite(const Expr& cond, const Expr& then_e, const Expr& else_e);

// Operator sugar for the builder API used by examples and bench circuits.
inline Expr operator!(const Expr& e) { return Expr::make(Op::kNot, {e}); }
inline Expr operator~(const Expr& e) { return Expr::make(Op::kBitNot, {e}); }
inline Expr operator&(const Expr& a, const Expr& b) { return Expr::make(Op::kAnd, {a, b}); }
inline Expr operator|(const Expr& a, const Expr& b) { return Expr::make(Op::kOr, {a, b}); }
inline Expr operator^(const Expr& a, const Expr& b) { return Expr::make(Op::kXor, {a, b}); }
inline Expr operator+(const Expr& a, const Expr& b) { return Expr::make(Op::kAdd, {a, b}); }
inline Expr operator-(const Expr& a, const Expr& b) { return Expr::make(Op::kSub, {a, b}); }
inline Expr operator*(const Expr& a, const Expr& b) { return Expr::make(Op::kMul, {a, b}); }
inline Expr operator==(const Expr& a, const Expr& b) { return Expr::make(Op::kEq, {a, b}); }
inline Expr operator!=(const Expr& a, const Expr& b) { return Expr::make(Op::kNe, {a, b}); }
inline Expr operator<(const Expr& a, const Expr& b) { return Expr::make(Op::kLt, {a, b}); }
inline Expr operator<=(const Expr& a, const Expr& b) { return Expr::make(Op::kLe, {a, b}); }
inline Expr operator>(const Expr& a, const Expr& b) { return Expr::make(Op::kGt, {a, b}); }
inline Expr operator>=(const Expr& a, const Expr& b) { return Expr::make(Op::kGe, {a, b}); }

// -- Analysis ---------------------------------------------------------------

/// Resolves a signal name to its type; returns nullopt for unknown names.
using TypeResolver = std::function<std::optional<Type>(const std::string&)>;

/// Infers the expression type, throwing `std::runtime_error` with a
/// human-readable message on any type error or unknown signal.
Type infer_type(const Expr& e, const TypeResolver& resolver);

/// Resolves a signal name to a concrete value (booleans as 0/1).
using ValueResolver = std::function<std::uint64_t(const std::string&)>;

/// Evaluates under a concrete assignment. The expression must be
/// well-typed; word results are truncated to their inferred width.
std::uint64_t eval(const Expr& e, const ValueResolver& values,
                   const TypeResolver& types);

/// All distinct signal names referenced by `e`, in first-use order.
std::vector<std::string> referenced_signals(const Expr& e);

/// Node count of `e` read as a tree — a subexpression shared by several
/// parents counts once per use, as a walk without a memo visits it —
/// saturated at `limit`. One visit per distinct node: linear in the
/// DAG, however large the tree it stands for.
std::uint64_t tree_size(const Expr& e, std::uint64_t limit);

/// Structural hash: equal for structurally identical expressions even when
/// the shared AST nodes differ (e.g. the same atom parsed twice).
std::size_t structural_hash(const Expr& e);

/// Structural equality over op/name/constant/bit-index/operands. Invalid
/// handles compare equal to each other only.
bool structural_equal(const Expr& a, const Expr& b);

/// Rewrites every reference to `signal` with `replacement`.
/// This implements the paper's observability flip: for a boolean observed
/// signal q the replacement is `!q`; for bit j of a word signal w it is
/// `w ^ (1 << j)`.
Expr substitute_signal(const Expr& e, const std::string& signal,
                       const Expr& replacement);

/// Rewrites every signal reference for which `replacement(name)` returns
/// an expression (not nullptr) with it, in one pass; untouched subtrees
/// stay shared.
Expr substitute_signals(
    const Expr& e,
    const std::function<const Expr*(const std::string&)>& replacement);

/// Pretty-prints with minimal parentheses.
std::string to_string(const Expr& e);

}  // namespace covest::expr
