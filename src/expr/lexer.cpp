#include "expr/lexer.h"

#include <array>
#include <stdexcept>

namespace covest::expr {

namespace {

/// Bit flags per byte; 0 is any byte no token may contain.
enum CharClass : unsigned char {
  kSpace = 1,       ///< Blanks; '\n' also advances the line.
  kIdentStart = 2,  ///< Letters and '_'.
  kDigit = 4,
  kIdentTail = 8,   ///< Letters, digits, '_' and '\''.
  kSingleOp = 16,   ///< One-character punctuation.
};

constexpr std::array<unsigned char, 256> make_classes() {
  std::array<unsigned char, 256> t{};
  for (const char c : std::string_view(" \t\n\v\f\r")) {
    t[static_cast<unsigned char>(c)] = kSpace;
  }
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kIdentStart | kIdentTail;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kIdentStart | kIdentTail;
  t['_'] = kIdentStart | kIdentTail;
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit | kIdentTail;
  t['\''] = kIdentTail;
  for (const char c : std::string_view("()[]{};:,?!~&|^+-*<>=.")) {
    t[static_cast<unsigned char>(c)] = kSingleOp;
  }
  return t;
}

constexpr std::array<unsigned char, 256> kClasses = make_classes();

unsigned char class_of(char c) {
  return kClasses[static_cast<unsigned char>(c)];
}

/// Length of the punctuation token at the front of `rest` (whose first
/// character is a kSingleOp): the longest of the multi-character
/// operators `<->`, `&&`, `||`, `->`, `==`, `!=`, `<=`, `>=`, `:=`,
/// `..`, else 1.
std::size_t punct_length(std::string_view rest) {
  const char second = rest.size() > 1 ? rest[1] : '\0';
  switch (rest[0]) {
    case '<':
      if (second == '-' && rest.size() > 2 && rest[2] == '>') return 3;
      return second == '=' ? 2 : 1;
    case '&':
      return second == '&' ? 2 : 1;
    case '|':
      return second == '|' ? 2 : 1;
    case '-':
      return second == '>' ? 2 : 1;
    case '=':
    case '!':
    case '>':
    case ':':
      return second == '=' ? 2 : 1;
    case '.':
      return second == '.' ? 2 : 1;
    default:
      return 1;
  }
}

}  // namespace

std::vector<Token> tokenize(std::string_view source) {
  std::vector<Token> tokens;
  tokens.reserve(source.size() / 4 + 1);
  int line = 1, column = 1;
  std::size_t i = 0;
  const std::size_t n = source.size();

  const auto push = [&](TokenKind kind, std::size_t len,
                        std::uint64_t value = 0) {
    Token& t = tokens.emplace_back();
    t.kind = kind;
    t.text = source.substr(i, len);
    t.value = value;
    t.line = line;
    t.column = column;
    column += static_cast<int>(len);
    i += len;
  };

  while (i < n) {
    const char c = source[i];
    const unsigned char cls = class_of(c);
    if (cls & kSpace) {
      if (c == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
      ++i;
      continue;
    }
    // Comments: "--" or "//" to end of line.
    if (i + 1 < n && (c == '-' || c == '/') && source[i + 1] == c) {
      const std::size_t eol = source.find('\n', i);
      const std::size_t end = eol == std::string_view::npos ? n : eol;
      column += static_cast<int>(end - i);
      i = end;
      continue;
    }
    if (cls & kIdentStart) {
      std::size_t j = i + 1;
      while (j < n && (class_of(source[j]) & kIdentTail)) ++j;
      push(TokenKind::kIdent, j - i);
      continue;
    }
    if (cls & kDigit) {
      std::size_t j = i;
      std::uint64_t value = 0;
      while (j < n && (class_of(source[j]) & kDigit)) {
        value = value * 10 + static_cast<std::uint64_t>(source[j] - '0');
        ++j;
      }
      push(TokenKind::kNumber, j - i, value);
      continue;
    }
    if (cls & kSingleOp) {
      push(TokenKind::kPunct, punct_length(source.substr(i)));
      continue;
    }
    throw std::runtime_error("lex error at line " + std::to_string(line) +
                             ", column " + std::to_string(column) +
                             ": unexpected character '" + std::string(1, c) +
                             "'");
  }
  Token& end = tokens.emplace_back();
  end.kind = TokenKind::kEnd;
  end.line = line;
  end.column = column;
  return tokens;
}

const Token& TokenStream::expect_punct(std::string_view p) {
  if (!peek().is_punct(p)) {
    fail("expected '" + std::string(p) + "'");
  }
  return next();
}

const Token& TokenStream::expect_ident() {
  if (peek().kind != TokenKind::kIdent) fail("expected identifier");
  return next();
}

std::string TokenStream::located(const std::string& message) const {
  const Token& t = peek();
  std::string what = "syntax error at line " + std::to_string(t.line) +
                     ", column " + std::to_string(t.column) + ": " + message +
                     " (found '";
  if (t.kind == TokenKind::kEnd) {
    what += "<end>";
  } else {
    what += t.text;
  }
  return what + "')";
}

void TokenStream::fail(const std::string& message) const {
  throw std::runtime_error(located(message));
}

void TokenStream::fail_too_deep() const {
  throw SyntaxTooDeep(located("nested deeper than " +
                              std::to_string(kMaxSyntaxDepth) + " levels"));
}

}  // namespace covest::expr
