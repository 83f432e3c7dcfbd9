#include "sql/lexer.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "common/strings.h"

namespace bornsql::sql {
namespace {

// Reserved words of the dialect. Function names (POW, LN, SUM, ROW_NUMBER,
// ...) are deliberately NOT keywords: they lex as identifiers and the parser
// recognizes the call syntax, so they stay usable as column names.
constexpr std::array<std::string_view, 59> kKeywords = {
    "ALL", "ANALYZE", "AND", "AS", "ASC", "BETWEEN", "BY", "CASE", "CAST",
    "CONFLICT", "CREATE", "CROSS", "DELETE", "DESC", "DISTINCT", "DO", "DROP",
    "ELSE", "END", "EXISTS", "EXPLAIN", "FROM", "GROUP", "HAVING", "IF", "IN",
    "INDEX", "INNER", "INSERT", "INTO", "IS", "JOIN", "KEY", "LEFT", "LIKE",
    "LIMIT", "NOT", "NOTHING", "NULL", "OFFSET", "ON", "OR", "ORDER", "OVER",
    "PARTITION", "PRIMARY", "SELECT", "SET", "TABLE", "TEMP", "TEMPORARY",
    "THEN", "UNION", "UNIQUE", "UPDATE", "VALUES", "WHEN", "WHERE", "WITH",
};

// Keywords are 2-9 letters, so a case-folded candidate packs into one
// integer at five bits per letter (A=1 ... Z=26). Anything else -- a longer
// word, or one with a digit or '_' -- packs to 0, which no keyword does.
constexpr size_t kMaxKeywordLength = 9;

constexpr uint64_t PackWord(std::string_view word) {
  if (word.size() > kMaxKeywordLength) return 0;
  uint64_t key = 0;
  for (char c : word) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    if (c < 'A' || c > 'Z') return 0;
    key = key << 5 | static_cast<uint64_t>(c - 'A' + 1);
  }
  return key;
}

// (packed key, canonical spelling), sorted by key for binary search.
using KeywordEntry = std::pair<uint64_t, std::string_view>;
constexpr auto kKeywordIndex = [] {
  std::array<KeywordEntry, kKeywords.size()> index;
  for (size_t i = 0; i < kKeywords.size(); ++i) {
    index[i] = {PackWord(kKeywords[i]), kKeywords[i]};
  }
  std::ranges::sort(index);
  return index;
}();
static_assert(kKeywordIndex.front().first != 0, "a keyword failed to pack");
static_assert(std::ranges::adjacent_find(kKeywordIndex, {},
                                         &KeywordEntry::first) ==
                  kKeywordIndex.end(),
              "duplicate keyword");

// The canonical upper-case spelling of `word` if it is a keyword (any
// case), else an empty view. Allocates nothing.
std::string_view FindKeyword(std::string_view word) {
  const uint64_t key = PackWord(word);
  if (key == 0) return {};
  const auto it =
      std::ranges::lower_bound(kKeywordIndex, key, {}, &KeywordEntry::first);
  return it != kKeywordIndex.end() && it->first == key ? it->second
                                                        : std::string_view();
}

// ASCII classes, as <cctype> gives them in the "C" locale the engine runs
// in, without its per-call locale lookup.
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }

}  // namespace

bool IsKeyword(std::string_view word) { return !FindKeyword(word).empty(); }

Result<std::vector<Token>> Lex(std::string_view src) {
  const size_t n = src.size();
  std::vector<Token> out;
  // Driver SQL averages about three source bytes per token (a single-item
  // predict: 1,027 bytes, 341 tokens); reserving one token per two bytes
  // leaves denser statements room before any regrowth.
  out.reserve(n / 2 + 1);
  size_t i = 0;

  // Line/column bookkeeping: `scanned` trails the token starts (which are
  // monotonically increasing), so the whole pass stays O(n).
  size_t line = 1;
  size_t line_start = 0;
  size_t scanned = 0;
  auto sync = [&](size_t to) {
    for (; scanned < to; ++scanned) {
      if (src[scanned] == '\n') {
        ++line;
        line_start = scanned + 1;
      }
    }
  };
  auto locate = [&](size_t at, size_t* out_line, size_t* out_column) {
    sync(at);
    *out_line = line;
    *out_column = at - line_start + 1;
  };
  auto here = [&](size_t at) {
    size_t l = 1, c = 1;
    locate(at, &l, &c);
    return StrFormat("line %zu:%zu", l, c);
  };

  // Appends a token of type `t` starting at byte `at`, built in place, and
  // returns it for the caller to fill in.
  auto emit = [&](TokenType t, size_t at) -> Token& {
    Token& tok = out.emplace_back();
    tok.type = t;
    tok.offset = at;
    locate(at, &tok.line, &tok.column);
    return tok;
  };

  while (i < n) {
    char c = src[i];
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      ++i;
      continue;
    }
    // Comments.
    if (c == '-' && i + 1 < n && src[i + 1] == '-') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      size_t start = i;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) ++i;
      if (i + 1 >= n) {
        return Status::ParseError(StrFormat("unterminated block comment at %s",
                                            here(start).c_str()));
      }
      i += 2;
      continue;
    }
    const size_t at = i;
    // String literal.
    if (c == '\'') {
      std::string body;
      ++i;
      bool closed = false;
      while (i < n) {
        if (src[i] == '\'') {
          if (i + 1 < n && src[i + 1] == '\'') {  // '' escape
            body.push_back('\'');
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        body.push_back(src[i]);
        ++i;
      }
      if (!closed) {
        return Status::ParseError(StrFormat("unterminated string literal at %s",
                                            here(at).c_str()));
      }
      Token& tok = emit(TokenType::kStringLiteral, at);
      tok.text = std::move(body);
      continue;
    }
    // Quoted identifier.
    if (c == '"') {
      std::string body;
      ++i;
      bool closed = false;
      while (i < n) {
        if (src[i] == '"') {
          if (i + 1 < n && src[i + 1] == '"') {
            body.push_back('"');
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        body.push_back(src[i]);
        ++i;
      }
      if (!closed) {
        return Status::ParseError(StrFormat(
            "unterminated quoted identifier at %s", here(at).c_str()));
      }
      Token& tok = emit(TokenType::kIdentifier, at);
      tok.text = std::move(body);
      continue;
    }
    // Number literal.
    if (IsDigit(c) ||
        (c == '.' && i + 1 < n &&
         IsDigit(src[i + 1]))) {
      size_t j = i;
      bool is_double = false;
      while (j < n && IsDigit(src[j])) ++j;
      if (j < n && src[j] == '.') {
        is_double = true;
        ++j;
        while (j < n && IsDigit(src[j])) ++j;
      }
      if (j < n && (src[j] == 'e' || src[j] == 'E')) {
        size_t k = j + 1;
        if (k < n && (src[k] == '+' || src[k] == '-')) ++k;
        if (k < n && IsDigit(src[k])) {
          is_double = true;
          j = k;
          while (j < n && IsDigit(src[j])) ++j;
        }
      }
      Token& tok = emit(
          is_double ? TokenType::kDoubleLiteral : TokenType::kIntLiteral, at);
      tok.text = src.substr(i, j - i);
      const std::string& spelling = tok.text;
      if (is_double) {
        tok.double_value = std::strtod(spelling.c_str(), nullptr);
      } else {
        int64_t v = 0;
        auto [ptr, ec] =
            std::from_chars(spelling.data(), spelling.data() + spelling.size(), v);
        if (ec != std::errc()) {
          // Overflowing integer literals degrade to double.
          tok.type = TokenType::kDoubleLiteral;
          tok.double_value = std::strtod(spelling.c_str(), nullptr);
        } else {
          (void)ptr;
          tok.int_value = v;
        }
      }
      i = j;
      continue;
    }
    // Identifier / keyword.
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(src[j])) ++j;
      const std::string_view word = src.substr(i, j - i);
      Token& tok = emit(TokenType::kIdentifier, at);
      if (const std::string_view keyword = FindKeyword(word);
          !keyword.empty()) {
        tok.type = TokenType::kKeyword;
        tok.text = keyword;
      } else {
        tok.text = word;
      }
      i = j;
      continue;
    }
    // Operators and punctuation.
    switch (c) {
      case '(':
        emit(TokenType::kLParen, at);
        ++i;
        break;
      case ')':
        emit(TokenType::kRParen, at);
        ++i;
        break;
      case ',':
        emit(TokenType::kComma, at);
        ++i;
        break;
      case '.':
        emit(TokenType::kDot, at);
        ++i;
        break;
      case ';':
        emit(TokenType::kSemicolon, at);
        ++i;
        break;
      case '*':
        emit(TokenType::kStar, at);
        ++i;
        break;
      case '+':
        emit(TokenType::kPlus, at);
        ++i;
        break;
      case '-':
        emit(TokenType::kMinus, at);
        ++i;
        break;
      case '/':
        emit(TokenType::kSlash, at);
        ++i;
        break;
      case '%':
        emit(TokenType::kPercent, at);
        ++i;
        break;
      case '=':
        emit(TokenType::kEq, at);
        ++i;
        break;
      case '!':
        if (i + 1 < n && src[i + 1] == '=') {
          emit(TokenType::kNotEq, at);
          i += 2;
        } else {
          return Status::ParseError(StrFormat(
              "unexpected character '!' at %s", here(at).c_str()));
        }
        break;
      case '<':
        if (i + 1 < n && src[i + 1] == '=') {
          emit(TokenType::kLtEq, at);
          i += 2;
        } else if (i + 1 < n && src[i + 1] == '>') {
          emit(TokenType::kNotEq, at);
          i += 2;
        } else {
          emit(TokenType::kLt, at);
          ++i;
        }
        break;
      case '>':
        if (i + 1 < n && src[i + 1] == '=') {
          emit(TokenType::kGtEq, at);
          i += 2;
        } else {
          emit(TokenType::kGt, at);
          ++i;
        }
        break;
      case '|':
        if (i + 1 < n && src[i + 1] == '|') {
          emit(TokenType::kConcat, at);
          i += 2;
        } else {
          return Status::ParseError(StrFormat(
              "unexpected character '|' at %s", here(at).c_str()));
        }
        break;
      case '?': {
        // Unnumbered parameter placeholder; ordinals are assigned by the
        // PREPARE path in source order (engine/parameters.cc).
        Token& tok = emit(TokenType::kParameter, at);
        tok.text = "?";
        tok.int_value = 0;
        ++i;
        break;
      }
      case '$': {
        // Numbered parameter placeholder $1, $2, ...
        size_t j = i + 1;
        while (j < n && IsDigit(src[j])) ++j;
        if (j == i + 1) {
          return Status::ParseError(StrFormat(
              "expected digits after '$' at %s", here(at).c_str()));
        }
        std::string spelling(src.substr(i, j - i));
        int64_t ordinal = 0;
        auto [ptr, ec] = std::from_chars(spelling.data() + 1,
                                         spelling.data() + spelling.size(),
                                         ordinal);
        (void)ptr;
        if (ec != std::errc() || ordinal < 1) {
          return Status::ParseError(StrFormat(
              "invalid parameter number '%s' at %s", spelling.c_str(),
              here(at).c_str()));
        }
        Token& tok = emit(TokenType::kParameter, at);
        tok.text = std::move(spelling);
        tok.int_value = ordinal;
        i = j;
        break;
      }
      default:
        return Status::ParseError(StrFormat("unexpected character '%c' at %s",
                                            c, here(at).c_str()));
    }
  }
  emit(TokenType::kEof, n);
  return out;
}

const char* TokenTypeName(TokenType t) {
  switch (t) {
    case TokenType::kEof: return "end of input";
    case TokenType::kIdentifier: return "identifier";
    case TokenType::kKeyword: return "keyword";
    case TokenType::kIntLiteral: return "integer literal";
    case TokenType::kDoubleLiteral: return "double literal";
    case TokenType::kStringLiteral: return "string literal";
    case TokenType::kParameter: return "parameter placeholder";
    case TokenType::kLParen: return "'('";
    case TokenType::kRParen: return "')'";
    case TokenType::kComma: return "','";
    case TokenType::kDot: return "'.'";
    case TokenType::kSemicolon: return "';'";
    case TokenType::kStar: return "'*'";
    case TokenType::kPlus: return "'+'";
    case TokenType::kMinus: return "'-'";
    case TokenType::kSlash: return "'/'";
    case TokenType::kPercent: return "'%'";
    case TokenType::kEq: return "'='";
    case TokenType::kNotEq: return "'<>'";
    case TokenType::kLt: return "'<'";
    case TokenType::kLtEq: return "'<='";
    case TokenType::kGt: return "'>'";
    case TokenType::kGtEq: return "'>='";
    case TokenType::kConcat: return "'||'";
  }
  return "?";
}

}  // namespace bornsql::sql
