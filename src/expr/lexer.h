// Tokenizer shared by the model-file parser and the CTL property parser.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace covest::expr {

/// Deepest syntax tree either parser builds, and deepest nesting of
/// parentheses, brackets and prefix operators it descends through.
/// Past it a parse fails with a located syntax error, so untrusted text
/// can overflow neither the parsers' recursion nor the recursive passes
/// over the tree (collapse, hashing, bit-blasting, destruction). Leaves
/// count as depth 1: `a & b & c` is depth 3, `!!a` is depth 3.
inline constexpr unsigned kMaxSyntaxDepth = 256;

/// The located syntax error a parse fails with past kMaxSyntaxDepth.
/// It has its own type so that the CTL parser's '(' backtracking lets it
/// through: the atom reading of the same text nests at least as deep.
class SyntaxTooDeep : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class TokenKind {
  kIdent,   ///< Identifiers and keywords (keywords are contextual).
  kNumber,  ///< Unsigned decimal integer literal.
  kPunct,   ///< Operator or punctuation, in `text`.
  kEnd,     ///< End of input.
};

/// One token. `text` is a view into the source it was lexed from, never
/// an owned copy: it is valid only while that source string is alive and
/// unmodified. Parsers copy out exactly the text they keep (signal
/// names, SPEC bodies); punctuation and keywords are matched in place.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;
  std::uint64_t value = 0;  ///< For kNumber.
  int line = 0;
  int column = 0;

  bool is_punct(std::string_view p) const {
    return kind == TokenKind::kPunct && text == p;
  }
  bool is_ident(std::string_view id) const {
    return kind == TokenKind::kIdent && text == id;
  }
};

/// Splits `source` into tokens; the tokens view `source` (see Token).
/// Comments run from `--` or `//` to the end of the line. Throws
/// `std::runtime_error` with line/column context on illegal characters.
std::vector<Token> tokenize(std::string_view source);
inline std::vector<Token> tokenize(const char* source) {
  return tokenize(std::string_view(source));
}
/// The tokens would outlive a temporary source.
std::vector<Token> tokenize(std::string&& source) = delete;

/// A token cursor shared between cooperating recursive-descent parsers.
/// It also carries the nesting depth those parsers have descended
/// through, so one bound covers a CTL formula and the expressions in its
/// atoms together.
class TokenStream {
 public:
  explicit TokenStream(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}
  /// Lexes `source`, which must outlive the stream.
  explicit TokenStream(std::string_view source) : tokens_(tokenize(source)) {}
  explicit TokenStream(const char* source)
      : TokenStream(std::string_view(source)) {}
  explicit TokenStream(std::string&& source) = delete;

  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t idx = pos_ + ahead;
    return tokens_[idx < tokens_.size() ? idx : tokens_.size() - 1];
  }
  /// Consumes and returns the current token; the reference stays valid
  /// for the stream's lifetime.
  const Token& next() {
    const Token& t = peek();
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  bool accept_punct(std::string_view p) {
    if (!peek().is_punct(p)) return false;
    next();
    return true;
  }
  bool accept_ident(std::string_view id) {
    if (!peek().is_ident(id)) return false;
    next();
    return true;
  }
  /// Consumes a token or throws a located syntax error.
  const Token& expect_punct(std::string_view p);
  const Token& expect_ident();

  bool at_end() const { return peek().kind == TokenKind::kEnd; }
  [[noreturn]] void fail(const std::string& message) const;

  /// Throws SyntaxTooDeep when a tree of `depth` levels would exceed
  /// kMaxSyntaxDepth.
  void check_depth(unsigned depth) const {
    if (depth > kMaxSyntaxDepth) fail_too_deep();
  }

  /// RAII nesting level: one per parenthesis, bracket or prefix operator
  /// a parser recurses into. Entering level kMaxSyntaxDepth + 1 throws
  /// SyntaxTooDeep.
  class Nest {
   public:
    explicit Nest(TokenStream& ts) : ts_(ts) {
      if (ts_.nesting_ == kMaxSyntaxDepth) ts_.fail_too_deep();
      ++ts_.nesting_;
    }
    ~Nest() { --ts_.nesting_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    TokenStream& ts_;
  };

  /// Snapshot/rewind for the CTL parser's backtracking over '(' — a paren
  /// can open either a temporal subformula or an arithmetic atom.
  std::size_t position() const { return pos_; }
  void rewind(std::size_t pos) { pos_ = pos; }

 private:
  /// "syntax error at line L, column C: <message> (found '<token>')".
  std::string located(const std::string& message) const;
  [[noreturn]] void fail_too_deep() const;

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  unsigned nesting_ = 0;
};

}  // namespace covest::expr
