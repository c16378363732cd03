#include "expr/expr_parser.h"

#include <stdexcept>

namespace covest::expr {

namespace {

unsigned min_width(std::uint64_t value) {
  unsigned w = 1;
  while ((value >> w) != 0) ++w;
  return w;
}

/// The comparison operators of `cmp`, by spelling.
struct Comparison {
  std::string_view spelling;
  Op op;
};
constexpr Comparison kComparisons[] = {
    {"==", Op::kEq}, {"!=", Op::kNe}, {"<", Op::kLt},
    {"<=", Op::kLe}, {">", Op::kGt},  {">=", Op::kGe},
};

}  // namespace

Expr ExprParser::checked(Expr e) const {
  ts_.check_depth(e.depth());
  return e;
}

Expr ExprParser::parse() { return parse_ternary(); }

Expr ExprParser::parse_atom() { return parse_cmp(); }

Expr ExprParser::parse_ternary() {
  Expr cond = parse_iff();
  if (ts_.accept_punct("?")) {
    const TokenStream::Nest nest(ts_);
    Expr then_e = parse_ternary();
    ts_.expect_punct(":");
    Expr else_e = parse_ternary();
    return checked(ite(cond, then_e, else_e));
  }
  return cond;
}

Expr ExprParser::parse_iff() {
  Expr lhs = parse_implies();
  while (ts_.accept_punct("<->")) {
    lhs = checked(lhs.iff(parse_implies()));
  }
  return lhs;
}

Expr ExprParser::parse_implies() {
  Expr lhs = parse_or();
  if (ts_.accept_punct("->")) {
    const TokenStream::Nest nest(ts_);
    return checked(lhs.implies(parse_implies()));  // Right associative.
  }
  return lhs;
}

Expr ExprParser::parse_or() {
  Expr lhs = parse_xor();
  while (ts_.peek().is_punct("|") || ts_.peek().is_punct("||")) {
    ts_.next();
    lhs = checked(lhs | parse_xor());
  }
  return lhs;
}

Expr ExprParser::parse_xor() {
  Expr lhs = parse_and();
  while (ts_.accept_punct("^")) {
    lhs = checked(lhs ^ parse_and());
  }
  return lhs;
}

Expr ExprParser::parse_and() {
  Expr lhs = parse_cmp();
  while (ts_.peek().is_punct("&") || ts_.peek().is_punct("&&")) {
    ts_.next();
    lhs = checked(lhs & parse_cmp());
  }
  return lhs;
}

Expr ExprParser::parse_cmp() {
  Expr lhs = parse_add();
  const Token& t = ts_.peek();
  if (t.kind != TokenKind::kPunct) return lhs;
  for (const Comparison& c : kComparisons) {
    if (t.text == c.spelling) {
      ts_.next();
      Expr rhs = parse_add();
      return checked(Expr::make(c.op, {std::move(lhs), std::move(rhs)}));
    }
  }
  return lhs;
}

Expr ExprParser::parse_add() {
  Expr lhs = parse_mul();
  while (ts_.peek().is_punct("+") || ts_.peek().is_punct("-")) {
    const bool is_add = ts_.next().text == "+";
    Expr rhs = parse_mul();
    lhs = checked(is_add ? lhs + rhs : lhs - rhs);
  }
  return lhs;
}

Expr ExprParser::parse_mul() {
  Expr lhs = parse_unary();
  while (ts_.accept_punct("*")) {
    lhs = checked(lhs * parse_unary());
  }
  return lhs;
}

Expr ExprParser::parse_unary() {
  if (ts_.accept_punct("!")) {
    const TokenStream::Nest nest(ts_);
    return checked(!parse_unary());
  }
  if (ts_.accept_punct("~")) {
    const TokenStream::Nest nest(ts_);
    return checked(~parse_unary());
  }
  return parse_primary();
}

Expr ExprParser::parse_primary() {
  const Token& t = ts_.peek();
  if (t.kind == TokenKind::kNumber) {
    ts_.next();
    return Expr::word_const(t.value, min_width(t.value));
  }
  if (t.is_ident("true")) {
    ts_.next();
    return Expr::bool_const(true);
  }
  if (t.is_ident("false")) {
    ts_.next();
    return Expr::bool_const(false);
  }
  if (t.is_ident("ite")) {
    ts_.next();
    ts_.expect_punct("(");
    const TokenStream::Nest nest(ts_);
    Expr cond = parse_ternary();
    ts_.expect_punct(",");
    Expr then_e = parse_ternary();
    ts_.expect_punct(",");
    Expr else_e = parse_ternary();
    ts_.expect_punct(")");
    return checked(ite(cond, then_e, else_e));
  }
  if (t.kind == TokenKind::kIdent) {
    if (reserved_ != nullptr && reserved_(t.text)) {
      ts_.fail("temporal operator '" + std::string(t.text) +
               "' cannot appear inside an atomic proposition");
    }
    ts_.next();
    Expr ref = Expr::var(std::string(t.text));
    if (ts_.accept_punct("[")) {
      const Token& idx = ts_.peek();
      if (idx.kind != TokenKind::kNumber) ts_.fail("expected bit index");
      ts_.next();
      ts_.expect_punct("]");
      return Expr::extract(ref, static_cast<unsigned>(idx.value));
    }
    return ref;
  }
  if (ts_.accept_punct("(")) {
    const TokenStream::Nest nest(ts_);
    Expr inner = parse_ternary();
    ts_.expect_punct(")");
    return inner;
  }
  ts_.fail("expected an expression");
}

Expr parse_expression(const std::string& text) {
  TokenStream ts(text);
  ExprParser parser(ts);
  Expr e = parser.parse();
  if (!ts.at_end()) ts.fail("unexpected trailing input");
  return e;
}

}  // namespace covest::expr
