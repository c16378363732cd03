// Tests for the expression AST: typing, evaluation, substitution,
// bit-blasting and parsing.
#include <gtest/gtest.h>

#include <map>

#include "bdd/bdd.h"
#include "expr/bitblast.h"
#include "expr/expr.h"
#include "expr/expr_parser.h"
#include "expr/lexer.h"

namespace covest::expr {
namespace {

// A fixed signal environment used across the tests:
//   count : uint<3>, flag : bool, stall : bool, big : uint<5>.
std::optional<Type> test_types(const std::string& name) {
  if (name == "count") return Type::word(3);
  if (name == "big") return Type::word(5);
  if (name == "flag" || name == "stall") return Type::boolean();
  return std::nullopt;
}

class ExprTest : public ::testing::Test {
 protected:
  Expr count = Expr::var("count");
  Expr big = Expr::var("big");
  Expr flag = Expr::var("flag");
  Expr stall = Expr::var("stall");
  TypeResolver types = test_types;

  std::uint64_t eval_with(const Expr& e, std::uint64_t count_v,
                          std::uint64_t big_v, bool flag_v, bool stall_v) {
    return eval(
        e,
        [&](const std::string& n) -> std::uint64_t {
          if (n == "count") return count_v;
          if (n == "big") return big_v;
          if (n == "flag") return flag_v;
          return stall_v;
        },
        types);
  }
};

// --------------------------------------------------------------------------
// Typing
// --------------------------------------------------------------------------

TEST_F(ExprTest, InferBoolAndWordTypes) {
  EXPECT_EQ(infer_type(flag, types), Type::boolean());
  EXPECT_EQ(infer_type(count, types), Type::word(3));
  EXPECT_EQ(infer_type(count + big, types), Type::word(5));
  EXPECT_EQ(infer_type(count == big, types), Type::boolean());
  EXPECT_EQ(infer_type(!flag, types), Type::boolean());
  EXPECT_EQ(infer_type(ite(flag, count, big), types), Type::word(5));
}

TEST_F(ExprTest, TypeErrorsAreReported) {
  EXPECT_THROW(infer_type(Expr::var("nosuch"), types), std::runtime_error);
  EXPECT_THROW(infer_type(!count, types), std::runtime_error);
  EXPECT_THROW(infer_type(flag + count, types), std::runtime_error);
  EXPECT_THROW(infer_type(flag < stall, types), std::runtime_error);
  EXPECT_THROW(infer_type(ite(count, flag, flag), types), std::runtime_error);
  EXPECT_THROW(infer_type(count == flag, types), std::runtime_error);
  EXPECT_THROW(infer_type(Expr::extract(count, 3), types), std::runtime_error);
}

TEST_F(ExprTest, ExtractIsBoolean) {
  EXPECT_EQ(infer_type(Expr::extract(count, 2), types), Type::boolean());
}

// --------------------------------------------------------------------------
// Evaluation
// --------------------------------------------------------------------------

TEST_F(ExprTest, ArithmeticWrapsAtWidth) {
  EXPECT_EQ(eval_with(count + Expr::word_const(1, 3), 7, 0, false, false), 0u);
  EXPECT_EQ(eval_with(count - Expr::word_const(1, 3), 0, 0, false, false), 7u);
  EXPECT_EQ(eval_with(count * Expr::word_const(3, 3), 5, 0, false, false),
            7u);  // 15 mod 8.
}

TEST_F(ExprTest, MixedWidthZeroExtends) {
  // count (3 bits) + big (5 bits) evaluates at width 5.
  EXPECT_EQ(eval_with(count + big, 7, 30, false, false), 5u);  // 37 mod 32.
}

TEST_F(ExprTest, ComparisonsAndBooleans) {
  EXPECT_EQ(eval_with(count < Expr::word_const(5, 3), 4, 0, false, false), 1u);
  EXPECT_EQ(eval_with(count < Expr::word_const(5, 3), 5, 0, false, false), 0u);
  EXPECT_EQ(eval_with(flag.implies(stall), 0, 0, true, false), 0u);
  EXPECT_EQ(eval_with(flag.implies(stall), 0, 0, false, false), 1u);
  EXPECT_EQ(eval_with(flag.iff(stall), 0, 0, true, true), 1u);
  EXPECT_EQ(eval_with(flag ^ stall, 0, 0, true, false), 1u);
}

TEST_F(ExprTest, IteSelectsBranch) {
  const Expr e = ite(flag, count, count + Expr::word_const(1, 3));
  EXPECT_EQ(eval_with(e, 3, 0, true, false), 3u);
  EXPECT_EQ(eval_with(e, 3, 0, false, false), 4u);
}

TEST_F(ExprTest, ExtractReadsBit) {
  EXPECT_EQ(eval_with(Expr::extract(count, 1), 2, 0, false, false), 1u);
  EXPECT_EQ(eval_with(Expr::extract(count, 1), 5, 0, false, false), 0u);
}

// --------------------------------------------------------------------------
// Substitution (the observability flip)
// --------------------------------------------------------------------------

TEST_F(ExprTest, SubstituteBooleanFlip) {
  const Expr e = flag & stall;
  const Expr flipped = substitute_signal(e, "flag", !flag);
  EXPECT_EQ(to_string(flipped), "!flag & stall");
  EXPECT_EQ(eval_with(flipped, 0, 0, false, true), 1u);
  EXPECT_EQ(eval_with(flipped, 0, 0, true, true), 0u);
}

TEST_F(ExprTest, SubstituteWordBitFlip) {
  // count -> count ^ 2 flips bit 1 everywhere count is referenced.
  const Expr e = count == Expr::word_const(3, 3);
  const Expr flipped =
      substitute_signal(e, "count", count ^ Expr::word_const(2, 3));
  // Original true at count=3; flipped true at count=1 (1^2=3).
  EXPECT_EQ(eval_with(e, 3, 0, false, false), 1u);
  EXPECT_EQ(eval_with(flipped, 3, 0, false, false), 0u);
  EXPECT_EQ(eval_with(flipped, 1, 0, false, false), 1u);
}

TEST_F(ExprTest, SubstituteLeavesOtherSignalsAlone) {
  const Expr e = flag & stall;
  const Expr subst = substitute_signal(e, "nosuch", !flag);
  EXPECT_TRUE(subst.same_node(e));
}

TEST_F(ExprTest, ReferencedSignalsInFirstUseOrder) {
  const Expr e = (count + big == big) & flag;
  EXPECT_EQ(referenced_signals(e),
            (std::vector<std::string>{"count", "big", "flag"}));
}

// --------------------------------------------------------------------------
// Printing
// --------------------------------------------------------------------------

TEST_F(ExprTest, ToStringRoundTripsThroughParser) {
  const Expr e = ((!flag) & (count < Expr::word_const(5, 3)))
                     .implies(stall | Expr::extract(count, 0));
  const Expr reparsed = parse_expression(to_string(e));
  // Compare by printing again: the printer is deterministic.
  EXPECT_EQ(to_string(reparsed), to_string(e));
}

// --------------------------------------------------------------------------
// Bit-blasting
// --------------------------------------------------------------------------

class BlastTest : public ::testing::Test {
 protected:
  BlastTest() {
    for (int i = 0; i < 3; ++i) count_bits.bits.push_back(mgr.var(i));
    count_bits.is_bool = false;
    flag_bits.bits.push_back(mgr.var(3));
    flag_bits.is_bool = true;
  }

  BitVec resolve(const std::string& name) {
    if (name == "count") return count_bits;
    if (name == "flag") return flag_bits;
    return {};
  }

  // Exhaustively compares the blasted BDD against concrete evaluation.
  void check_equivalence(const Expr& e) {
    const auto types = [](const std::string& n) -> std::optional<Type> {
      if (n == "count") return Type::word(3);
      if (n == "flag") return Type::boolean();
      return std::nullopt;
    };
    const bdd::Bdd f = bit_blast_bool(
        e, mgr, [this](const std::string& n) { return resolve(n); }, types);
    for (unsigned c = 0; c < 8; ++c) {
      for (unsigned fl = 0; fl < 2; ++fl) {
        std::vector<bool> assignment(mgr.num_vars(), false);
        for (int i = 0; i < 3; ++i) assignment[i] = (c >> i) & 1;
        assignment[3] = fl;
        const auto value = eval(
            e,
            [&](const std::string& n) -> std::uint64_t {
              return n == "count" ? c : fl;
            },
            types);
        EXPECT_EQ(mgr.eval(f, assignment), value != 0)
            << to_string(e) << " at count=" << c << " flag=" << fl;
      }
    }
  }

  bdd::BddManager mgr{4};
  BitVec count_bits, flag_bits;
};

TEST_F(BlastTest, ComparisonAgainstConstant) {
  check_equivalence(parse_expression("count < 5"));
  check_equivalence(parse_expression("count <= 5"));
  check_equivalence(parse_expression("count > 2"));
  check_equivalence(parse_expression("count >= 2"));
  check_equivalence(parse_expression("count == 6"));
  check_equivalence(parse_expression("count != 6"));
}

TEST_F(BlastTest, ArithmeticWithWrap) {
  check_equivalence(parse_expression("count + 1 == 0"));
  check_equivalence(parse_expression("count - 1 == 7"));
  check_equivalence(parse_expression("count + count == 6"));
  check_equivalence(parse_expression("count * 3 == 1"));
}

TEST_F(BlastTest, BooleanStructure) {
  check_equivalence(parse_expression("flag -> count == 0"));
  check_equivalence(parse_expression("(!flag) & count[1]"));
  check_equivalence(parse_expression("flag <-> count[0]"));
  check_equivalence(parse_expression("(flag ? count : count + 1) == 3"));
}

TEST_F(BlastTest, TernaryAndIteFunctionSyntax) {
  check_equivalence(parse_expression("ite(flag, count == 1, count == 2)"));
}

// --------------------------------------------------------------------------
// Lexer / parser details
// --------------------------------------------------------------------------

TEST(LexerTest, TokenizesOperatorsLongestFirst) {
  const auto tokens = tokenize("a <-> b <= c -> d .. e := f");
  std::vector<std::string> puncts;
  for (const auto& t : tokens) {
    if (t.kind == TokenKind::kPunct) puncts.emplace_back(t.text);
  }
  EXPECT_EQ(puncts,
            (std::vector<std::string>{"<->", "<=", "->", "..", ":="}));
}

TEST(LexerTest, SkipsCommentsAndTracksLines) {
  const auto tokens = tokenize("a -- comment\nb // other\nc");
  ASSERT_EQ(tokens.size(), 4u);  // a b c <end>
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[2].line, 3);
}

TEST(LexerTest, RejectsIllegalCharacters) {
  EXPECT_THROW(tokenize("a @ b"), std::runtime_error);
}

std::vector<std::string> texts(const std::vector<Token>& tokens) {
  std::vector<std::string> out;
  for (const Token& t : tokens) {
    if (t.kind != TokenKind::kEnd) out.emplace_back(t.text);
  }
  return out;
}

TEST(LexerTest, EveryMultiCharacterOperatorIsOneToken) {
  for (const std::string op :
       {"<->", "&&", "||", "->", "==", "!=", "<=", ">=", ":=", ".."}) {
    const std::string source = "a" + op + "b";  // Tokens view it.
    const auto tokens = tokenize(source);
    ASSERT_EQ(tokens.size(), 4u) << op;
    EXPECT_EQ(tokens[1].kind, TokenKind::kPunct) << op;
    EXPECT_EQ(tokens[1].text, op);
    EXPECT_EQ(tokens[2].column, 2 + static_cast<int>(op.size())) << op;
  }
  // Prefixes of longer operators fall back to single characters.
  EXPECT_EQ(texts(tokenize("a<-b")),
            (std::vector<std::string>{"a", "<", "-", "b"}));
  EXPECT_EQ(texts(tokenize("a<<=>=b")),
            (std::vector<std::string>{"a", "<", "<=", ">=", "b"}));
  EXPECT_EQ(texts(tokenize("a...b")),
            (std::vector<std::string>{"a", "..", ".", "b"}));
}

TEST(LexerTest, CommentsAreSkippedAndCountedInColumns) {
  const auto tokens = tokenize("x -- a comment\ny // another\nz -- eof");
  EXPECT_EQ(texts(tokens), (std::vector<std::string>{"x", "y", "z"}));
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[3].kind, TokenKind::kEnd);
  EXPECT_EQ(tokens[3].line, 3);
  EXPECT_EQ(tokens[3].column, 9);  // Past the trailing comment.
  // A single '-' or '/' starts no comment.
  EXPECT_EQ(texts(tokenize("a - -b")),
            (std::vector<std::string>{"a", "-", "-", "b"}));
  EXPECT_THROW(tokenize("a / b"), std::runtime_error);
}

TEST(LexerTest, IdentifiersKeepPrimesDigitsAndUnderscores) {
  EXPECT_EQ(texts(tokenize("x' _y2'' a_b9 9z")),
            (std::vector<std::string>{"x'", "_y2''", "a_b9", "9", "z"}));
  EXPECT_EQ(tokenize("x'")[0].kind, TokenKind::kIdent);
  EXPECT_THROW(tokenize("'x"), std::runtime_error);
}

TEST(LexerTest, NumbersCarryTheirValueAndSpelling) {
  const auto tokens = tokenize("0 42 007 4294967296");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].value, 0u);
  EXPECT_EQ(tokens[1].value, 42u);
  EXPECT_EQ(tokens[2].value, 7u);
  EXPECT_EQ(tokens[2].text, "007");
  EXPECT_EQ(tokens[3].value, 4294967296u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(tokens[i].kind, TokenKind::kNumber);
}

TEST(LexerTest, LinesAndColumnsOnMultiLineInput) {
  const auto tokens = tokenize("ab  :=\n\t c;\r\n\n  d");
  ASSERT_EQ(tokens.size(), 6u);
  const std::vector<std::pair<int, int>> expected{
      {1, 1}, {1, 5}, {2, 3}, {2, 4}, {4, 3}, {4, 4}};
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(tokens[i].line, expected[i].first) << i;
    EXPECT_EQ(tokens[i].column, expected[i].second) << i;
  }
  try {
    tokenize("a\n  b $");
    FAIL() << "expected a lex error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "lex error at line 2, column 5: unexpected character '$'");
  }
}

TEST(LexerTest, TokenStreamRewindsToASavedPosition) {
  TokenStream ts("a + ( b )");
  EXPECT_TRUE(ts.accept_ident("a"));
  const std::size_t mark = ts.position();
  EXPECT_TRUE(ts.accept_punct("+"));
  EXPECT_EQ(ts.expect_punct("(").column, 5);
  EXPECT_EQ(ts.expect_ident().text, "b");
  ts.rewind(mark);
  EXPECT_TRUE(ts.peek().is_punct("+"));
  EXPECT_EQ(ts.peek(2).text, "b");
  EXPECT_EQ(ts.next().text, "+");
  ts.next();
  ts.next();
  EXPECT_EQ(ts.next().text, ")");
  EXPECT_TRUE(ts.at_end());
  EXPECT_TRUE(ts.next().kind == TokenKind::kEnd);  // next() stays at the end.
  try {
    ts.expect_punct(";");
    FAIL() << "expected a syntax error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "syntax error at line 1, column 10: expected ';' "
                 "(found '<end>')");
  }
}

// --------------------------------------------------------------------------
// Depth bound: kMaxSyntaxDepth levels parse, one more is a located error.
// --------------------------------------------------------------------------

std::string repeat(const std::string& s, unsigned n) {
  std::string out;
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
    parse_expression(text);
    FAIL() << "accepted " << text.size() << " bytes";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("syntax error at line 1, column ", 0), 0u) << what;
    EXPECT_NE(what.find("nested deeper than 256 levels"), std::string::npos)
        << what;
  }
}

TEST(DepthBoundTest, ExpressionsAtTheBoundParse) {
  const unsigned d = kMaxSyntaxDepth;
  EXPECT_EQ(parse_expression(repeat("!", d - 1) + "a").depth(), d);
  EXPECT_EQ(parse_expression(repeat("(", d) + "a" + repeat(")", d)).depth(),
            1u);
  EXPECT_EQ(parse_expression(chain("a", " ^ ", d)).depth(), d);
  EXPECT_EQ(parse_expression(chain("a", " -> ", d)).depth(), d);
  EXPECT_EQ(parse_expression(chain("1", " + ", d)).depth(), d);
}

TEST(DepthBoundTest, OneLevelPastTheBoundIsALocatedError) {
  const unsigned d = kMaxSyntaxDepth;
  expect_too_deep(repeat("!", d) + "a");
  expect_too_deep(repeat("~", d) + "a");
  expect_too_deep(repeat("(", d + 1) + "a" + repeat(")", d + 1));
  expect_too_deep(chain("a", " ^ ", d + 1));
  expect_too_deep(chain("a", " & ", d + 1));
  expect_too_deep(chain("a", " -> ", d + 1));
  expect_too_deep(chain("a", " ? a : ", d + 1));
  expect_too_deep(repeat("ite(a, a, ", d + 1) + "a" + repeat(")", d + 1));
  // The crash reproductions: 100,000 levels of each shape.
  expect_too_deep(repeat("!", 100000) + "a");
  expect_too_deep(repeat("(", 100000) + "a" + repeat(")", 100000));
  expect_too_deep(chain("a", "^", 100000));
}

TEST(ParserTest, PrecedenceImpliesIsRightAssociative) {
  EXPECT_EQ(to_string(parse_expression("a -> b -> c")), "a -> (b -> c)");
}

TEST(ParserTest, PrecedenceAndBindsTighterThanOr) {
  // "a | b & c" groups as a | (b & c); both print minimally the same way.
  EXPECT_EQ(to_string(parse_expression("a | b & c")),
            to_string(parse_expression("a | (b & c)")));
  EXPECT_NE(to_string(parse_expression("a | b & c")),
            to_string(parse_expression("(a | b) & c")));
}

TEST(ParserTest, PrecedenceCmpBindsTighterThanAnd) {
  const Expr e = parse_expression("a < 3 & b == 1");
  EXPECT_EQ(e.op(), Op::kAnd);
  EXPECT_EQ(e.node().args[0].op(), Op::kLt);
  EXPECT_EQ(e.node().args[1].op(), Op::kEq);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  EXPECT_EQ(to_string(parse_expression("(a | b) & c")), "(a | b) & c");
}

TEST(ParserTest, RejectsTrailingInput) {
  EXPECT_THROW(parse_expression("a b"), std::runtime_error);
}

TEST(ParserTest, RejectsEmptyInput) {
  EXPECT_THROW(parse_expression(""), std::runtime_error);
}

TEST(ParserTest, ErrorsCarryLineInformation) {
  try {
    parse_expression("a &\n& b");
    FAIL() << "expected syntax error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace covest::expr
