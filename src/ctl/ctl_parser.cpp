#include "ctl/ctl_parser.h"

#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "expr/expr_parser.h"

namespace covest::ctl {

namespace {

using expr::Token;
using expr::TokenKind;
using expr::TokenStream;

bool is_temporal_keyword(std::string_view id) {
  return id == "AX" || id == "EX" || id == "AF" || id == "EF" ||
         id == "AG" || id == "EG" || id == "A" || id == "E" || id == "U";
}

class CtlParser {
 public:
  explicit CtlParser(TokenStream& ts) : ts_(ts) {}

  Formula parse() { return parse_iff(); }

 private:
  /// Returns `f` after failing the parse when it is too deep.
  Formula checked(Formula f) const {
    ts_.check_depth(f.depth());
    return f;
  }

  Formula parse_iff() {
    Formula lhs = parse_implies();
    while (ts_.accept_punct("<->")) {
      lhs = checked(Formula::make(CtlOp::kIff, {lhs, parse_implies()}));
    }
    return lhs;
  }

  Formula parse_implies() {
    Formula lhs = parse_or();
    if (ts_.accept_punct("->")) {
      const TokenStream::Nest nest(ts_);
      return checked(lhs.implies(parse_implies()));
    }
    return lhs;
  }

  Formula parse_or() {
    Formula lhs = parse_and();
    while (ts_.peek().is_punct("|") || ts_.peek().is_punct("||")) {
      ts_.next();
      lhs = checked(lhs | parse_and());
    }
    return lhs;
  }

  Formula parse_and() {
    Formula lhs = parse_unary();
    while (ts_.peek().is_punct("&") || ts_.peek().is_punct("&&")) {
      ts_.next();
      lhs = checked(lhs & parse_unary());
    }
    return lhs;
  }

  Formula parse_unary() {
    if (ts_.accept_punct("!")) {
      const TokenStream::Nest nest(ts_);
      return checked(!parse_unary());
    }
    const Token& t = ts_.peek();
    if (t.kind == TokenKind::kIdent) {
      const std::string_view op = t.text;
      if (op == "AX" || op == "EX" || op == "AF" || op == "EF" ||
          op == "AG" || op == "EG") {
        ts_.next();
        const TokenStream::Nest nest(ts_);
        Formula sub = parse_unary();
        if (op == "AX") return checked(Formula::AX(sub));
        if (op == "EX") return checked(Formula::EX(sub));
        if (op == "AF") return checked(Formula::AF(sub));
        if (op == "EF") return checked(Formula::EF(sub));
        if (op == "AG") return checked(Formula::AG(sub));
        return checked(Formula::EG(sub));
      }
      if (op == "A" || op == "E") {
        ts_.next();
        const bool universal = op == "A";
        ts_.expect_punct("[");
        const TokenStream::Nest nest(ts_);
        Formula left = parse_iff();
        if (!ts_.accept_ident("U")) ts_.fail("expected 'U' in until formula");
        Formula right = parse_iff();
        ts_.expect_punct("]");
        return checked(universal ? Formula::AU(left, right)
                                 : Formula::EU(left, right));
      }
    }
    return parse_primary();
  }

  Formula parse_primary() {
    if (ts_.peek().is_punct("(")) {
      // Ambiguity: '(' may open a subformula or an arithmetic atom like
      // `(x + y) == 3`. A token after the matching ')' that can only
      // continue an expression settles it: the group is an atom. Else
      // try the formula reading, and backtrack to the atom if it fails.
      if (group_continues_expression()) return parse_atom();
      const std::size_t mark = ts_.position();
      try {
        ts_.next();  // '('
        const TokenStream::Nest nest(ts_);
        Formula inner = parse_iff();
        ts_.expect_punct(")");
        return inner;
      } catch (const expr::SyntaxTooDeep&) {
        throw;  // The atom reading would nest at least as deep.
      } catch (const std::exception&) {
        ts_.rewind(mark);
        return parse_atom();
      }
    }
    return parse_atom();
  }

  /// Whether the token after the ')' matching the '(' at the cursor can
  /// only continue an expression (false for an unbalanced group). Each
  /// scan records the match of every '(' it passes, so a parse scans
  /// each token at most once even though every nesting level asks.
  bool group_continues_expression() {
    const std::size_t open = ts_.position();
    auto it = close_of_.find(open);
    if (it == close_of_.end()) {
      std::vector<std::size_t> opens;
      for (std::size_t ahead = 0;; ++ahead) {
        const Token& t = ts_.peek(ahead);
        if (t.kind == TokenKind::kEnd) break;
        if (t.is_punct("(")) {
          opens.push_back(open + ahead);
        } else if (t.is_punct(")")) {
          close_of_.emplace(opens.back(), open + ahead);
          opens.pop_back();
          if (opens.empty()) break;
        }
      }
      for (const std::size_t unclosed : opens) {
        close_of_.emplace(unclosed, kUnbalanced);
      }
      it = close_of_.find(open);
    }
    if (it->second == kUnbalanced) return false;
    const Token& after = ts_.peek(it->second - open + 1);
    if (after.kind != TokenKind::kPunct) return false;
    static constexpr std::string_view kExprContinuations[] = {
        "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "?", "^", "["};
    for (const std::string_view cont : kExprContinuations) {
      if (after.text == cont) return true;
    }
    return false;
  }

  Formula parse_atom() {
    expr::ExprParser parser(ts_, is_temporal_keyword);
    return Formula::prop(parser.parse_atom());
  }

  static constexpr std::size_t kUnbalanced = static_cast<std::size_t>(-1);

  TokenStream& ts_;
  /// Token position of a '(' -> position of its ')' (or kUnbalanced).
  std::unordered_map<std::size_t, std::size_t> close_of_;
};

}  // namespace

Formula parse_ctl(expr::TokenStream& ts) {
  CtlParser parser(ts);
  return collapse_propositional(parser.parse());
}

Formula parse_ctl(const std::string& text) {
  expr::TokenStream ts(text);
  Formula f = parse_ctl(ts);
  if (!ts.at_end()) ts.fail("unexpected trailing input after CTL formula");
  return f;
}

}  // namespace covest::ctl
