// Recursive-descent parser for word-level expressions.
//
// The grammar (loosest binding first):
//   expr   := iff [ '?' expr ':' expr ]          -- ternary
//   iff    := imp ( '<->' imp )*
//   imp    := or  [ '->' imp ]                   -- right associative
//   or     := xor ( ('|'|'||') xor )*
//   xor    := and ( '^' and )*
//   and    := cmp ( ('&'|'&&') cmp )*
//   cmp    := add [ ('=='|'!='|'<'|'<='|'>'|'>=') add ]
//   add    := mul ( ('+'|'-') mul )*
//   mul    := unary ( '*' unary )*
//   unary  := ('!'|'~') unary | primary
//   primary:= number | 'true' | 'false' | ident [ '[' number ']' ]
//           | '(' expr ')' | 'ite' '(' expr ',' expr ',' expr ')'
//
// Number literals become word constants of minimal width; binary operators
// zero-extend the narrower operand, so `count + 1` keeps `count`'s width.
//
// The CTL parser reuses this parser for atomic propositions; `reserved`
// makes temporal keywords (AX, AG, A, ...) terminate expression parsing.
//
// Every parenthesis, `ite(`, prefix operator and right-associative step
// is a nesting level of the shared TokenStream, and every node built is
// checked against kMaxSyntaxDepth (lexer.h), so a parse fails with a
// located syntax error instead of building a tree deeper than the bound.
#pragma once

#include <string>
#include <string_view>

#include "expr/expr.h"
#include "expr/lexer.h"

namespace covest::expr {

class ExprParser {
 public:
  /// Parses from `stream`; identifiers for which `reserved` returns true
  /// are never consumed as variable references (used for temporal
  /// keywords).
  explicit ExprParser(TokenStream& stream,
                      bool (*reserved)(std::string_view) = nullptr)
      : ts_(stream), reserved_(reserved) {}

  Expr parse();

  /// Parses a comparison-level expression — no top-level boolean
  /// connectives. The CTL parser uses this for atomic propositions, so
  /// that `p -> AX q` keeps `->` at the formula level while `count + 1`
  /// still parses greedily.
  Expr parse_atom();

 private:
  Expr parse_ternary();
  Expr parse_iff();
  Expr parse_implies();
  Expr parse_or();
  Expr parse_xor();
  Expr parse_and();
  Expr parse_cmp();
  Expr parse_add();
  Expr parse_mul();
  Expr parse_unary();
  Expr parse_primary();
  /// Returns `e` after failing the parse when it is too deep.
  Expr checked(Expr e) const;

  TokenStream& ts_;
  bool (*reserved_)(std::string_view);
};

/// Parses a complete standalone expression; throws if trailing tokens remain.
Expr parse_expression(const std::string& text);

}  // namespace covest::expr
