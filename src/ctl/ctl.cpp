#include "ctl/ctl.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>

namespace covest::ctl {

using expr::Expr;

CtlOp Formula::op() const { return node_->op; }

const Expr& Formula::prop() const {
  if (node_->op != CtlOp::kProp) {
    throw std::logic_error("prop() on a non-atomic formula");
  }
  return node_->prop;
}

const Formula& Formula::arg(std::size_t i) const { return node_->args.at(i); }

std::size_t Formula::arity() const { return node_->args.size(); }

namespace {

std::size_t node_hash(const FormulaNode& n) {
  std::uint64_t h = static_cast<std::uint64_t>(n.op) + 0x9e3779b97f4a7c15ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  if (n.op == CtlOp::kProp) mix(expr::structural_hash(n.prop));
  for (const Formula& a : n.args) mix(structural_hash(a));
  return static_cast<std::size_t>(h);
}

}  // namespace

Formula Formula::prop(Expr e) {
  auto node = std::make_shared<FormulaNode>();
  node->op = CtlOp::kProp;
  node->depth = e.valid() ? e.depth() : 1;
  node->prop = std::move(e);
  node->hash = node_hash(*node);
  return Formula(std::move(node));
}

Formula Formula::make(CtlOp op, std::vector<Formula> args) {
  if (op == CtlOp::kProp) {
    throw std::logic_error("use Formula::prop for atomic propositions");
  }
  auto node = std::make_shared<FormulaNode>();
  node->op = op;
  node->args = std::move(args);
  for (const Formula& f : node->args) {
    if (!f.valid()) throw std::runtime_error("invalid subformula");
    node->depth = std::max(node->depth, f.depth() + 1);
  }
  const std::size_t expected =
      (op == CtlOp::kAU || op == CtlOp::kEU || op == CtlOp::kAnd ||
       op == CtlOp::kOr || op == CtlOp::kImplies || op == CtlOp::kIff)
          ? 2
          : 1;
  if (node->args.size() != expected) {
    throw std::logic_error("wrong arity for CTL operator");
  }
  node->hash = node_hash(*node);
  return Formula(std::move(node));
}

std::size_t structural_hash(const Formula& f) {
  return f.valid() ? f.node()->hash : 0;
}

bool structural_equal(const Formula& a, const Formula& b) {
  if (a.id() == b.id()) return true;
  if (!a.valid() || !b.valid()) return false;
  if (a.op() != b.op() || a.arity() != b.arity()) return false;
  if (structural_hash(a) != structural_hash(b)) return false;
  if (a.op() == CtlOp::kProp) return expr::structural_equal(a.prop(), b.prop());
  for (std::size_t i = 0; i < a.arity(); ++i) {
    if (!structural_equal(a.arg(i), b.arg(i))) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Collapse
// ---------------------------------------------------------------------------

namespace {

// Subtrees mergeable into one atom. Implications are excluded: the paper
// gives `b -> f` its own coverage rule (only the consequent contributes),
// so `(a -> b) & c` keeps its structure while `!a & b` merges. Users who
// *want* an implication inside an atom can write it at the expression
// level, e.g. `((a -> b)) == flag` — "the syntax of the formula better
// captures the verification intent of the user" (paper, Section 2.1).
bool subtree_is_propositional(const Formula& f) {
  switch (f.op()) {
    case CtlOp::kProp:
      return true;
    case CtlOp::kNot:
    case CtlOp::kAnd:
    case CtlOp::kOr:
    case CtlOp::kIff:
      for (std::size_t i = 0; i < f.arity(); ++i) {
        if (!subtree_is_propositional(f.arg(i))) return false;
      }
      return true;
    default:
      return false;
  }
}

Expr subtree_to_expr(const Formula& f) {
  switch (f.op()) {
    case CtlOp::kProp:
      return f.prop();
    case CtlOp::kNot:
      return !subtree_to_expr(f.arg(0));
    case CtlOp::kAnd:
      return subtree_to_expr(f.arg(0)) & subtree_to_expr(f.arg(1));
    case CtlOp::kOr:
      return subtree_to_expr(f.arg(0)) | subtree_to_expr(f.arg(1));
    case CtlOp::kImplies:
      return subtree_to_expr(f.arg(0)).implies(subtree_to_expr(f.arg(1)));
    case CtlOp::kIff:
      return subtree_to_expr(f.arg(0)).iff(subtree_to_expr(f.arg(1)));
    default:
      throw std::logic_error("subtree_to_expr on temporal operator");
  }
}

}  // namespace

Formula collapse_propositional(const Formula& f) {
  // Implications keep their structure: the coverage semantics of
  // `b -> f` differs from the atom `b -> f` (Definition 5 gives coverage
  // only to the consequent).
  if (f.op() == CtlOp::kProp) return f;

  if (subtree_is_propositional(f)) {
    return Formula::prop(subtree_to_expr(f));
  }

  std::vector<Formula> args;
  for (std::size_t i = 0; i < f.arity(); ++i) {
    args.push_back(collapse_propositional(f.arg(i)));
  }
  return Formula::make(f.op(), std::move(args));
}

// ---------------------------------------------------------------------------
// Acceptable ACTL subset
// ---------------------------------------------------------------------------

namespace {

std::string check_acceptable(const Formula& f) {
  switch (f.op()) {
    case CtlOp::kProp:
      return {};
    case CtlOp::kImplies: {
      if (f.arg(0).op() != CtlOp::kProp) {
        return "the antecedent of '->' must be propositional";
      }
      return check_acceptable(f.arg(1));
    }
    case CtlOp::kAnd: {
      std::string r = check_acceptable(f.arg(0));
      if (!r.empty()) return r;
      return check_acceptable(f.arg(1));
    }
    case CtlOp::kAX:
    case CtlOp::kAG:
    case CtlOp::kAF:
      return check_acceptable(f.arg(0));
    case CtlOp::kAU: {
      std::string r = check_acceptable(f.arg(0));
      if (!r.empty()) return r;
      return check_acceptable(f.arg(1));
    }
    case CtlOp::kOr:
      return "disjunction of temporal formulas is outside the subset";
    case CtlOp::kNot:
      return "negation of a temporal formula is outside the subset";
    case CtlOp::kIff:
      return "'<->' between temporal formulas is outside the subset";
    case CtlOp::kEX:
    case CtlOp::kEF:
    case CtlOp::kEG:
    case CtlOp::kEU:
      return "existential path quantifiers are outside the ACTL subset";
  }
  return "unknown operator";
}

}  // namespace

std::string acceptable_actl_violation(const Formula& f) {
  return check_acceptable(collapse_propositional(f));
}

// ---------------------------------------------------------------------------
// Prop rewriting
// ---------------------------------------------------------------------------

Formula transform_props(
    const Formula& f,
    const std::function<expr::Expr(const expr::Expr&)>& fn) {
  if (f.op() == CtlOp::kProp) {
    return Formula::prop(fn(f.prop()));
  }
  std::vector<Formula> args;
  for (std::size_t i = 0; i < f.arity(); ++i) {
    args.push_back(transform_props(f.arg(i), fn));
  }
  return Formula::make(f.op(), std::move(args));
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

namespace {

void print(std::ostream& os, const Formula& f, bool parenthesize) {
  const auto wrap = [&](const char* prefix, const Formula& sub) {
    os << prefix;
    print(os, sub, true);
  };
  switch (f.op()) {
    case CtlOp::kProp:
      os << expr::to_string(f.prop());
      return;
    case CtlOp::kNot:
      wrap("!", f.arg(0));
      return;
    case CtlOp::kAX: wrap("AX ", f.arg(0)); return;
    case CtlOp::kEX: wrap("EX ", f.arg(0)); return;
    case CtlOp::kAF: wrap("AF ", f.arg(0)); return;
    case CtlOp::kEF: wrap("EF ", f.arg(0)); return;
    case CtlOp::kAG: wrap("AG ", f.arg(0)); return;
    case CtlOp::kEG: wrap("EG ", f.arg(0)); return;
    case CtlOp::kAU:
    case CtlOp::kEU:
      os << (f.op() == CtlOp::kAU ? "A[" : "E[");
      print(os, f.arg(0), false);
      os << " U ";
      print(os, f.arg(1), false);
      os << "]";
      return;
    default:
      break;
  }
  // Binary boolean connectives.
  const char* token = f.op() == CtlOp::kAnd       ? " & "
                      : f.op() == CtlOp::kOr      ? " | "
                      : f.op() == CtlOp::kImplies ? " -> "
                                                  : " <-> ";
  if (parenthesize) os << "(";
  print(os, f.arg(0), true);
  os << token;
  print(os, f.arg(1), true);
  if (parenthesize) os << ")";
}

}  // namespace

std::string to_string(const Formula& f) {
  if (!f.valid()) return "<null>";
  std::ostringstream os;
  print(os, f, false);
  return os.str();
}

}  // namespace covest::ctl
