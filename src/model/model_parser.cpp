#include "model/model_parser.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "expr/expr_parser.h"
#include "expr/lexer.h"

namespace covest::model {

namespace {

using expr::Token;
using expr::TokenKind;
using expr::TokenStream;

unsigned bits_for(std::uint64_t max_value) {
  unsigned w = 1;
  while ((max_value >> w) != 0) ++w;
  return w;
}

expr::Type parse_type(TokenStream& ts) {
  if (ts.accept_ident("bool") || ts.accept_ident("boolean")) {
    return expr::Type::boolean();
  }
  if (ts.accept_ident("uint")) {
    ts.expect_punct("<");
    const Token& w = ts.peek();
    if (w.kind != TokenKind::kNumber || w.value == 0 || w.value > 32) {
      ts.fail("expected width in 1..32");
    }
    ts.next();
    ts.expect_punct(">");
    return expr::Type::word(static_cast<unsigned>(w.value));
  }
  if (ts.peek().kind == TokenKind::kNumber) {
    // Range sugar "lo..hi" -> uint of the width needed for hi.
    const Token& lo = ts.next();
    ts.expect_punct("..");
    const Token& hi = ts.peek();
    if (hi.kind != TokenKind::kNumber) ts.fail("expected range upper bound");
    ts.next();
    if (lo.value != 0) ts.fail("ranges must start at 0");
    if (hi.value == 0) ts.fail("range upper bound must be positive");
    return expr::Type::word(bits_for(hi.value));
  }
  ts.fail("expected a type (bool, uint<W> or 0..N)");
}

expr::Expr parse_rhs_expression(TokenStream& ts) {
  expr::ExprParser parser(ts);
  return parser.parse();
}

/// Collects the raw text of a SPEC body up to OBSERVE or ';': its
/// tokens joined by single spaces.
std::string collect_spec_text(TokenStream& ts) {
  std::string text;
  while (!ts.at_end() && !ts.peek().is_punct(";") &&
         !ts.peek().is_ident("OBSERVE")) {
    if (!text.empty()) text += ' ';
    text += ts.next().text;
  }
  return text;
}

}  // namespace

Model parse_model(const std::string& source) {
  TokenStream ts(source);
  Model model;
  bool named = false;

  while (!ts.at_end()) {
    const std::string_view keyword = ts.expect_ident().text;

    if (keyword == "MODULE") {
      const Token& name = ts.expect_ident();
      if (!named) {
        model = Model(std::string(name.text));
        named = true;
      }
      ts.expect_punct(";");
      continue;
    }

    if (keyword == "VAR" || keyword == "IVAR") {
      Signal s;
      s.name = ts.expect_ident().text;
      ts.expect_punct(":");
      s.kind = keyword == "VAR" ? SignalKind::kState : SignalKind::kInput;
      s.type = parse_type(ts);
      ts.expect_punct(";");
      model.add_signal(std::move(s));
      continue;
    }

    if (keyword == "DEFINE") {
      const std::size_t name_at = ts.position();
      Signal s;
      s.name = ts.expect_ident().text;
      ts.expect_punct(":=");
      s.kind = SignalKind::kDefine;
      s.define = parse_rhs_expression(ts);
      ts.expect_punct(";");
      // Expands the define once and infers its type from the expansion;
      // an expansion past either bound is located at the define's name.
      try {
        model.add_signal(std::move(s));
      } catch (const expr::SyntaxTooDeep& e) {
        ts.rewind(name_at);
        ts.fail(e.what());
      } catch (const DefineTooLarge& e) {
        ts.rewind(name_at);
        ts.fail(e.what());
      }
      continue;
    }

    if (keyword == "INIT") {
      // "INIT name := expr;" assigns; "INIT expr;" constrains.
      if (ts.peek().kind == TokenKind::kIdent &&
          ts.peek(1).is_punct(":=")) {
        const std::string name(ts.expect_ident().text);
        ts.expect_punct(":=");
        model.set_init(name, parse_rhs_expression(ts));
      } else {
        model.add_init_constraint(parse_rhs_expression(ts));
      }
      ts.expect_punct(";");
      continue;
    }

    if (keyword == "NEXT") {
      const std::string name(ts.expect_ident().text);
      ts.expect_punct(":=");
      model.set_next(name, parse_rhs_expression(ts));
      ts.expect_punct(";");
      continue;
    }

    if (keyword == "FAIRNESS") {
      model.add_fairness(parse_rhs_expression(ts));
      ts.expect_punct(";");
      continue;
    }

    if (keyword == "DONTCARE") {
      model.add_dontcare(parse_rhs_expression(ts));
      ts.expect_punct(";");
      continue;
    }

    if (keyword == "SPEC") {
      SpecEntry spec;
      spec.ctl_text = collect_spec_text(ts);
      if (ts.accept_ident("OBSERVE")) {
        do {
          spec.observed.emplace_back(ts.expect_ident().text);
        } while (ts.accept_punct(","));
      }
      ts.expect_punct(";");
      model.add_spec(std::move(spec));
      continue;
    }

    ts.fail("unknown statement '" + std::string(keyword) + "'");
  }

  model.validate();
  return model;
}

std::string read_model_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open model file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

Model parse_model_source(const std::string& source, const std::string& path) {
  try {
    return parse_model(source);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

Model parse_model_file(const std::string& path) {
  return parse_model_source(read_model_file(path), path);
}

}  // namespace covest::model
