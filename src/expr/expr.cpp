// Expression construction, typing, evaluation, substitution, printing.
#include "expr/expr.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace covest::expr {

std::string to_string(const Type& t) {
  if (t.is_bool) return "bool";
  return "uint<" + std::to_string(t.width) + ">";
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

Expr Expr::bool_const(bool value) {
  auto node = std::make_shared<ExprNode>();
  node->op = Op::kConst;
  node->value = value ? 1 : 0;
  node->const_is_bool = true;
  node->const_width = 1;
  return Expr(std::move(node));
}

Expr Expr::word_const(std::uint64_t value, unsigned width) {
  if (width == 0 || width > 32) {
    throw std::runtime_error("word constant width must be in 1..32");
  }
  auto node = std::make_shared<ExprNode>();
  node->op = Op::kConst;
  node->value = value & ((width == 64 ? ~0ull : (1ull << width) - 1));
  node->const_is_bool = false;
  node->const_width = width;
  return Expr(std::move(node));
}

Expr Expr::var(std::string name) {
  auto node = std::make_shared<ExprNode>();
  node->op = Op::kVarRef;
  node->name = std::move(name);
  return Expr(std::move(node));
}

Expr Expr::make(Op op, std::vector<Expr> args) {
  auto node = std::make_shared<ExprNode>();
  node->op = op;
  node->args = std::move(args);
  for (const Expr& a : node->args) {
    if (!a.valid()) throw std::runtime_error("invalid operand expression");
    node->depth = std::max(node->depth, a.depth() + 1);
  }
  return Expr(std::move(node));
}

Expr Expr::extract(Expr word, unsigned bit) {
  auto node = std::make_shared<ExprNode>();
  node->op = Op::kExtract;
  node->value = bit;
  node->depth = word.valid() ? word.depth() + 1 : 1;
  node->args = {std::move(word)};
  return Expr(std::move(node));
}

Expr ite(const Expr& cond, const Expr& then_e, const Expr& else_e) {
  return Expr::make(Op::kIte, {cond, then_e, else_e});
}

// ---------------------------------------------------------------------------
// Type inference
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void type_error(const std::string& message, const Expr& e) {
  throw std::runtime_error("type error: " + message + " in '" + to_string(e) +
                           "'");
}

}  // namespace

Type infer_type(const Expr& e, const TypeResolver& resolver) {
  const ExprNode& n = e.node();
  switch (n.op) {
    case Op::kConst:
      return n.const_is_bool ? Type::boolean() : Type::word(n.const_width);
    case Op::kVarRef: {
      const auto t = resolver(n.name);
      if (!t) type_error("unknown signal '" + n.name + "'", e);
      return *t;
    }
    case Op::kNot: {
      const Type t = infer_type(n.args[0], resolver);
      if (!t.is_bool) type_error("'!' needs a boolean operand", e);
      return Type::boolean();
    }
    case Op::kBitNot: {
      const Type t = infer_type(n.args[0], resolver);
      if (t.is_bool) type_error("'~' needs a word operand", e);
      return t;
    }
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor: {
      const Type a = infer_type(n.args[0], resolver);
      const Type b = infer_type(n.args[1], resolver);
      if (a.is_bool != b.is_bool) {
        type_error("mixed bool/word operands", e);
      }
      if (a.is_bool) return Type::boolean();
      return Type::word(std::max(a.width, b.width));
    }
    case Op::kImplies:
    case Op::kIff: {
      const Type a = infer_type(n.args[0], resolver);
      const Type b = infer_type(n.args[1], resolver);
      if (!a.is_bool || !b.is_bool) type_error("needs boolean operands", e);
      return Type::boolean();
    }
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul: {
      const Type a = infer_type(n.args[0], resolver);
      const Type b = infer_type(n.args[1], resolver);
      if (a.is_bool || b.is_bool) type_error("arithmetic needs words", e);
      return Type::word(std::max(a.width, b.width));
    }
    case Op::kEq:
    case Op::kNe: {
      const Type a = infer_type(n.args[0], resolver);
      const Type b = infer_type(n.args[1], resolver);
      if (a.is_bool != b.is_bool) type_error("mixed bool/word comparison", e);
      return Type::boolean();
    }
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      const Type a = infer_type(n.args[0], resolver);
      const Type b = infer_type(n.args[1], resolver);
      if (a.is_bool || b.is_bool) {
        type_error("ordered comparison needs words", e);
      }
      return Type::boolean();
    }
    case Op::kIte: {
      const Type c = infer_type(n.args[0], resolver);
      if (!c.is_bool) type_error("ite condition must be boolean", e);
      const Type a = infer_type(n.args[1], resolver);
      const Type b = infer_type(n.args[2], resolver);
      if (a.is_bool != b.is_bool) type_error("ite branch type mismatch", e);
      if (a.is_bool) return Type::boolean();
      return Type::word(std::max(a.width, b.width));
    }
    case Op::kExtract: {
      const Type t = infer_type(n.args[0], resolver);
      if (t.is_bool) type_error("bit-extract needs a word", e);
      if (n.value >= t.width) type_error("bit index out of range", e);
      return Type::boolean();
    }
  }
  throw std::logic_error("unhandled expression op");
}

// ---------------------------------------------------------------------------
// Concrete evaluation
// ---------------------------------------------------------------------------

namespace {

std::uint64_t mask_width(std::uint64_t v, const Type& t) {
  if (t.is_bool) return v & 1;
  if (t.width >= 64) return v;
  return v & ((1ull << t.width) - 1);
}

}  // namespace

std::uint64_t eval(const Expr& e, const ValueResolver& values,
                   const TypeResolver& types) {
  const ExprNode& n = e.node();
  switch (n.op) {
    case Op::kConst:
      return n.value;
    case Op::kVarRef:
      return mask_width(values(n.name), infer_type(e, types));
    case Op::kNot:
      return eval(n.args[0], values, types) == 0 ? 1 : 0;
    case Op::kBitNot:
      return mask_width(~eval(n.args[0], values, types),
                        infer_type(e, types));
    case Op::kAnd: {
      const auto a = eval(n.args[0], values, types);
      const auto b = eval(n.args[1], values, types);
      return infer_type(e, types).is_bool ? ((a != 0 && b != 0) ? 1 : 0)
                                          : (a & b);
    }
    case Op::kOr: {
      const auto a = eval(n.args[0], values, types);
      const auto b = eval(n.args[1], values, types);
      return infer_type(e, types).is_bool ? ((a != 0 || b != 0) ? 1 : 0)
                                          : (a | b);
    }
    case Op::kXor: {
      const auto a = eval(n.args[0], values, types);
      const auto b = eval(n.args[1], values, types);
      return infer_type(e, types).is_bool ? (((a != 0) != (b != 0)) ? 1 : 0)
                                          : (a ^ b);
    }
    case Op::kImplies:
      return (eval(n.args[0], values, types) == 0 ||
              eval(n.args[1], values, types) != 0)
                 ? 1
                 : 0;
    case Op::kIff:
      return ((eval(n.args[0], values, types) != 0) ==
              (eval(n.args[1], values, types) != 0))
                 ? 1
                 : 0;
    case Op::kAdd:
      return mask_width(eval(n.args[0], values, types) +
                            eval(n.args[1], values, types),
                        infer_type(e, types));
    case Op::kSub:
      return mask_width(eval(n.args[0], values, types) -
                            eval(n.args[1], values, types),
                        infer_type(e, types));
    case Op::kMul:
      return mask_width(eval(n.args[0], values, types) *
                            eval(n.args[1], values, types),
                        infer_type(e, types));
    case Op::kEq:
      return eval(n.args[0], values, types) == eval(n.args[1], values, types);
    case Op::kNe:
      return eval(n.args[0], values, types) != eval(n.args[1], values, types);
    case Op::kLt:
      return eval(n.args[0], values, types) < eval(n.args[1], values, types);
    case Op::kLe:
      return eval(n.args[0], values, types) <= eval(n.args[1], values, types);
    case Op::kGt:
      return eval(n.args[0], values, types) > eval(n.args[1], values, types);
    case Op::kGe:
      return eval(n.args[0], values, types) >= eval(n.args[1], values, types);
    case Op::kIte:
      return eval(n.args[0], values, types) != 0
                 ? eval(n.args[1], values, types)
                 : eval(n.args[2], values, types);
    case Op::kExtract:
      return (eval(n.args[0], values, types) >> n.value) & 1;
  }
  throw std::logic_error("unhandled expression op");
}

// ---------------------------------------------------------------------------
// Signal analysis and substitution
// ---------------------------------------------------------------------------

namespace {

void collect_signals(const Expr& e, std::vector<std::string>& out,
                     std::unordered_set<std::string>& seen) {
  const ExprNode& n = e.node();
  if (n.op == Op::kVarRef) {
    if (seen.insert(n.name).second) out.push_back(n.name);
    return;
  }
  for (const Expr& a : n.args) collect_signals(a, out, seen);
}

}  // namespace

std::vector<std::string> referenced_signals(const Expr& e) {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  collect_signals(e, out, seen);
  return out;
}

namespace {

std::uint64_t tree_size_of(
    const ExprNode& n, std::uint64_t limit,
    std::unordered_map<const ExprNode*, std::uint64_t>& memo) {
  if (n.args.empty()) return 1;
  const auto it = memo.find(&n);
  if (it != memo.end()) return it->second;
  std::uint64_t size = 1;
  for (const Expr& a : n.args) {
    size = std::min(limit, size + tree_size_of(a.node(), limit, memo));
  }
  memo.emplace(&n, size);
  return size;
}

}  // namespace

std::uint64_t tree_size(const Expr& e, std::uint64_t limit) {
  if (!e.valid()) return 0;
  std::unordered_map<const ExprNode*, std::uint64_t> memo;
  return std::min(limit, tree_size_of(e.node(), limit, memo));
}

std::size_t structural_hash(const Expr& e) {
  if (!e.valid()) return 0;
  const ExprNode& n = e.node();
  // splitmix64-style mixing keeps sibling order and op significant.
  std::uint64_t h = static_cast<std::uint64_t>(n.op) + 0x9e3779b97f4a7c15ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  switch (n.op) {
    case Op::kConst:
      mix(n.value);
      mix(n.const_width);
      mix(n.const_is_bool ? 1 : 0);
      break;
    case Op::kVarRef:
      mix(std::hash<std::string>{}(n.name));
      break;
    case Op::kExtract:
      mix(n.value);
      break;
    default:
      break;
  }
  for (const Expr& a : n.args) mix(structural_hash(a));
  return static_cast<std::size_t>(h);
}

bool structural_equal(const Expr& a, const Expr& b) {
  if (a.same_node(b)) return true;
  if (!a.valid() || !b.valid()) return false;
  const ExprNode& na = a.node();
  const ExprNode& nb = b.node();
  if (na.op != nb.op || na.args.size() != nb.args.size()) return false;
  switch (na.op) {
    case Op::kConst:
      if (na.value != nb.value || na.const_width != nb.const_width ||
          na.const_is_bool != nb.const_is_bool) {
        return false;
      }
      break;
    case Op::kVarRef:
      if (na.name != nb.name) return false;
      break;
    case Op::kExtract:
      if (na.value != nb.value) return false;
      break;
    default:
      break;
  }
  for (std::size_t i = 0; i < na.args.size(); ++i) {
    if (!structural_equal(na.args[i], nb.args[i])) return false;
  }
  return true;
}

Expr substitute_signal(const Expr& e, const std::string& signal,
                       const Expr& replacement) {
  return substitute_signals(e, [&](const std::string& name) {
    return name == signal ? &replacement : nullptr;
  });
}

Expr substitute_signals(
    const Expr& e,
    const std::function<const Expr*(const std::string&)>& replacement) {
  const ExprNode& n = e.node();
  if (n.op == Op::kVarRef) {
    const Expr* r = replacement(n.name);
    return r != nullptr ? *r : e;
  }
  if (n.args.empty()) return e;

  bool changed = false;
  std::vector<Expr> new_args;
  new_args.reserve(n.args.size());
  for (const Expr& a : n.args) {
    Expr repl = substitute_signals(a, replacement);
    if (!repl.same_node(a)) changed = true;
    new_args.push_back(std::move(repl));
  }
  if (!changed) return e;
  if (n.op == Op::kExtract) {
    return Expr::extract(new_args[0], static_cast<unsigned>(n.value));
  }
  return Expr::make(n.op, std::move(new_args));
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

namespace {

int precedence(Op op) {
  switch (op) {
    case Op::kIte: return 0;
    case Op::kIff: return 1;
    case Op::kImplies: return 2;
    case Op::kOr: return 3;
    case Op::kXor: return 4;
    case Op::kAnd: return 5;
    case Op::kEq: case Op::kNe: case Op::kLt:
    case Op::kLe: case Op::kGt: case Op::kGe: return 6;
    case Op::kAdd: case Op::kSub: return 7;
    case Op::kMul: return 8;
    case Op::kNot: case Op::kBitNot: return 9;
    case Op::kConst: case Op::kVarRef: case Op::kExtract: return 10;
  }
  return 10;
}

const char* op_token(Op op) {
  switch (op) {
    case Op::kAnd: return " & ";
    case Op::kOr: return " | ";
    case Op::kXor: return " ^ ";
    case Op::kImplies: return " -> ";
    case Op::kIff: return " <-> ";
    case Op::kAdd: return " + ";
    case Op::kSub: return " - ";
    case Op::kMul: return " * ";
    case Op::kEq: return " == ";
    case Op::kNe: return " != ";
    case Op::kLt: return " < ";
    case Op::kLe: return " <= ";
    case Op::kGt: return " > ";
    case Op::kGe: return " >= ";
    default: return "?";
  }
}

void print(std::ostream& os, const Expr& e, int parent_prec) {
  const ExprNode& n = e.node();
  const int prec = precedence(n.op);
  const bool need_parens = prec < parent_prec;
  if (need_parens) os << "(";
  switch (n.op) {
    case Op::kConst:
      if (n.const_is_bool) {
        os << (n.value ? "true" : "false");
      } else {
        os << n.value;
      }
      break;
    case Op::kVarRef:
      os << n.name;
      break;
    case Op::kNot:
      os << "!";
      print(os, n.args[0], prec + 1);
      break;
    case Op::kBitNot:
      os << "~";
      print(os, n.args[0], prec + 1);
      break;
    case Op::kIte:
      print(os, n.args[0], prec + 1);
      os << " ? ";
      print(os, n.args[1], prec + 1);
      os << " : ";
      print(os, n.args[2], prec);
      break;
    case Op::kExtract:
      print(os, n.args[0], prec);
      os << "[" << n.value << "]";
      break;
    default:
      print(os, n.args[0], prec + 1);
      os << op_token(n.op);
      print(os, n.args[1], prec + 1);
      break;
  }
  if (need_parens) os << ")";
}

}  // namespace

std::string to_string(const Expr& e) {
  if (!e.valid()) return "<null>";
  std::ostringstream os;
  print(os, e, 0);
  return os.str();
}

}  // namespace covest::expr
