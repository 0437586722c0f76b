#include "phplex/lexer.h"

#include <array>
#include <charconv>
#include <cstring>

#include "support/strutil.h"

namespace uchecker::phplex {
namespace {

// Character classes as a flat table: one load + mask instead of a
// locale-aware libc call per character. Lexing touches every byte of
// every file, so this is the hottest comparison in the front end.
enum CharClass : std::uint8_t {
  kCcIdentStart = 1 << 0,  // [A-Za-z_]
  kCcIdentCont = 1 << 1,   // [A-Za-z0-9_]
  kCcDigit = 1 << 2,       // [0-9]
  kCcXDigit = 1 << 3,      // [0-9A-Fa-f]
  kCcSpace = 1 << 4,       // space, \t, \r, \n
};

constexpr std::array<std::uint8_t, 256> make_char_classes() {
  std::array<std::uint8_t, 256> t{};
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kCcIdentStart | kCcIdentCont;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kCcIdentStart | kCcIdentCont;
  t['_'] = kCcIdentStart | kCcIdentCont;
  for (int c = '0'; c <= '9'; ++c) t[c] = kCcIdentCont | kCcDigit | kCcXDigit;
  for (int c = 'a'; c <= 'f'; ++c) t[c] |= kCcXDigit;
  for (int c = 'A'; c <= 'F'; ++c) t[c] |= kCcXDigit;
  t[' '] = kCcSpace;
  t['\t'] = kCcSpace;
  t['\r'] = kCcSpace;
  t['\n'] = kCcSpace;
  return t;
}

constexpr std::array<std::uint8_t, 256> kCharClasses = make_char_classes();

constexpr bool has_class(char c, std::uint8_t mask) {
  return (kCharClasses[static_cast<unsigned char>(c)] & mask) != 0;
}

bool is_ident_start(char c) { return has_class(c, kCcIdentStart); }
bool is_ident_char(char c) { return has_class(c, kCcIdentCont); }
bool is_digit(char c) { return has_class(c, kCcDigit); }
bool is_xdigit(char c) { return has_class(c, kCcXDigit); }

// Longest keyword is "include_once" (12 chars); anything longer cannot
// be a keyword, which lets the lookup lowercase into a stack buffer.
constexpr std::size_t kMaxKeywordLen = 12;

struct Keyword {
  std::string_view name;
  TokenKind kind;
};

constexpr Keyword kKeywords[] = {
    {"if", TokenKind::kKwIf},
    {"else", TokenKind::kKwElse},
    {"elseif", TokenKind::kKwElseif},
    {"while", TokenKind::kKwWhile},
    {"for", TokenKind::kKwFor},
    {"foreach", TokenKind::kKwForeach},
    {"as", TokenKind::kKwAs},
    {"function", TokenKind::kKwFunction},
    {"return", TokenKind::kKwReturn},
    {"echo", TokenKind::kKwEcho},
    {"print", TokenKind::kKwPrint},
    {"global", TokenKind::kKwGlobal},
    {"static", TokenKind::kKwStatic},
    {"include", TokenKind::kKwInclude},
    {"include_once", TokenKind::kKwIncludeOnce},
    {"require", TokenKind::kKwRequire},
    {"require_once", TokenKind::kKwRequireOnce},
    {"true", TokenKind::kKwTrue},
    {"false", TokenKind::kKwFalse},
    {"null", TokenKind::kKwNull},
    {"array", TokenKind::kKwArray},
    {"list", TokenKind::kKwList},
    {"isset", TokenKind::kKwIsset},
    {"empty", TokenKind::kKwEmpty},
    {"unset", TokenKind::kKwUnset},
    {"new", TokenKind::kKwNew},
    {"class", TokenKind::kKwClass},
    {"public", TokenKind::kKwPublic},
    {"private", TokenKind::kKwPrivate},
    {"protected", TokenKind::kKwProtected},
    {"const", TokenKind::kKwConst},
    {"break", TokenKind::kKwBreak},
    {"continue", TokenKind::kKwContinue},
    {"switch", TokenKind::kKwSwitch},
    {"case", TokenKind::kKwCase},
    {"default", TokenKind::kKwDefault},
    {"do", TokenKind::kKwDo},
    {"and", TokenKind::kKwAnd},
    {"or", TokenKind::kKwOr},
    {"xor", TokenKind::kKwXor},
    {"die", TokenKind::kKwDie},
    {"exit", TokenKind::kKwExit},
    {"extends", TokenKind::kKwExtends},
    {"try", TokenKind::kKwTry},
    {"catch", TokenKind::kKwCatch},
    {"finally", TokenKind::kKwFinally},
    {"throw", TokenKind::kKwThrow},
    {"namespace", TokenKind::kKwNamespace},
    {"use", TokenKind::kKwUse},
    {"instanceof", TokenKind::kKwInstanceof},
    {"abstract", TokenKind::kKwAbstract},
    {"final", TokenKind::kKwFinal},
    {"interface", TokenKind::kKwInterface},
    {"implements", TokenKind::kKwImplements},
};

// Keywords bucketed by (length, first letter): 55 keywords spread over
// 13*26 buckets leaves at most two candidates per bucket, so a lookup
// is one index plus one or two short memcmps — no hashing, no
// allocation. Replaces an unordered_map<string_view> probe that hashed
// every identifier in the stream.
struct KeywordBuckets {
  // [length][first letter - 'a'] -> index into order[], count.
  std::uint8_t start[kMaxKeywordLen + 1][26] = {};
  std::uint8_t count[kMaxKeywordLen + 1][26] = {};
  std::uint8_t order[std::size(kKeywords)] = {};
};

KeywordBuckets make_keyword_buckets() {
  KeywordBuckets b;
  std::uint8_t n = 0;
  for (std::size_t len = 2; len <= kMaxKeywordLen; ++len) {
    for (int first = 0; first < 26; ++first) {
      b.start[len][first] = n;
      for (std::size_t i = 0; i < std::size(kKeywords); ++i) {
        if (kKeywords[i].name.size() == len &&
            kKeywords[i].name[0] - 'a' == first) {
          b.order[n++] = static_cast<std::uint8_t>(i);
          ++b.count[len][first];
        }
      }
    }
  }
  return b;
}

// Keyword lookup without allocating: ASCII-lowercases into a stack
// buffer. Returns kIdentifier when `name` is not a keyword.
TokenKind classify_identifier(std::string_view name) {
  if (name.size() > kMaxKeywordLen || name.size() < 2) {
    return TokenKind::kIdentifier;
  }
  char buf[kMaxKeywordLen];
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    buf[i] = (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }
  if (buf[0] < 'a' || buf[0] > 'z') return TokenKind::kIdentifier;
  static const KeywordBuckets buckets = make_keyword_buckets();
  const std::size_t len = name.size();
  const int first = buf[0] - 'a';
  const std::uint8_t begin = buckets.start[len][first];
  const std::uint8_t end = begin + buckets.count[len][first];
  for (std::uint8_t i = begin; i < end; ++i) {
    const Keyword& kw = kKeywords[buckets.order[i]];
    if (std::memcmp(buf, kw.name.data(), len) == 0) return kw.kind;
  }
  return TokenKind::kIdentifier;
}

}  // namespace

Lexer::Lexer(const SourceFile& file, DiagnosticSink& diags, Arena& arena)
    : file_(file), diags_(diags), arena_(arena),
      src_(arena.copy(file.content())) {}

std::vector<Token> lex_file(const SourceFile& file, DiagnosticSink& diags,
                            Arena& arena) {
  return Lexer(file, diags, arena).lex_all();
}

char Lexer::peek(std::size_t ahead) const {
  return (pos_ + ahead < src_.size()) ? src_[pos_ + ahead] : '\0';
}

char Lexer::advance() {
  return at_end() ? '\0' : src_[pos_++];
}

bool Lexer::match(char expected) {
  if (peek() != expected) return false;
  ++pos_;
  return true;
}

SourceLoc Lexer::loc_here() const {
  // The lexer only moves forward, so instead of binary-searching the
  // line table per token (what loc_for_offset does), walk a cursor
  // ahead to the line containing pos_. Amortized O(1) per token.
  const std::vector<std::size_t>& lines = file_.line_offsets();
  while (line_idx_ + 1 < lines.size() && lines[line_idx_ + 1] <= pos_) {
    ++line_idx_;
  }
  return SourceLoc{file_.id(),
                   static_cast<std::uint32_t>(line_idx_ + 1),
                   static_cast<std::uint32_t>(pos_ - lines[line_idx_] + 1)};
}

std::vector<Token> Lexer::lex_all() {
  std::vector<Token> out;
  // Corpus PHP runs about one token per five bytes; reserving a quarter
  // of the byte count avoids the mid-lex regrowth (which copies the
  // whole 64-byte-per-token vector) without gross overcommit.
  out.reserve(src_.size() / 4 + 16);
  while (!at_end()) {
    if (!in_php_) {
      lex_inline_html(out);
    } else {
      lex_php_token(out);
    }
  }
  Token eof;
  eof.kind = TokenKind::kEndOfFile;
  eof.loc = loc_here();
  out.push_back(eof);
  return out;
}

void Lexer::lex_inline_html(std::vector<Token>& out) {
  const SourceLoc start = loc_here();
  const std::size_t begin = pos_;
  const std::size_t open = src_.find("<?php", pos_);
  std::size_t html_end;
  if (open == std::string_view::npos) {
    // Also accept the short echo tag "<?=" which lexes as echo.
    const std::size_t short_open = src_.find("<?=", pos_);
    if (short_open == std::string_view::npos) {
      html_end = src_.size();
      pos_ = src_.size();
    } else {
      html_end = short_open;
      pos_ = short_open + 3;
      in_php_ = true;
    }
  } else {
    html_end = open;
    pos_ = open + 5;
    in_php_ = true;
  }
  if (html_end > begin) {
    Token t;
    t.kind = TokenKind::kInlineHtml;
    t.loc = start;
    t.text = slice(begin, html_end);
    // Pure-whitespace HTML between code blocks is noise; drop it.
    if (!strutil::trim(t.text).empty()) out.push_back(t);
  }
  if (in_php_ && open != std::string_view::npos &&
      src_.substr(pos_ - 5, 5) == "<?php") {
    // "<?=" emits an implicit echo keyword so `<?= $x ?>` parses.
  } else if (in_php_) {
    Token echo;
    echo.kind = TokenKind::kKwEcho;
    echo.loc = loc_here();
    out.push_back(echo);
  }
}

void Lexer::lex_php_token(std::vector<Token>& out) {
  // Skip whitespace and comments. The inner loop is a plain table scan
  // so the common run of spaces/newlines costs one load per byte.
  while (true) {
    while (pos_ < src_.size() && has_class(src_[pos_], kCcSpace)) ++pos_;
    if (at_end()) return;
    const char c = src_[pos_];
    if (c == '#' || (c == '/' && peek(1) == '/')) {
      skip_line_comment();
    } else if (c == '/' && peek(1) == '*') {
      skip_block_comment();
    } else {
      break;
    }
  }

  const SourceLoc start = loc_here();

  // Close tag?
  if (peek() == '?' && peek(1) == '>') {
    pos_ += 2;
    in_php_ = false;
    // PHP treats "?>" as an implicit statement terminator.
    Token t;
    t.kind = TokenKind::kSemicolon;
    t.loc = start;
    out.push_back(t);
    // Skip a single newline immediately following the close tag.
    if (peek() == '\n') ++pos_;
    return;
  }

  const char c = peek();
  if (c == '$') {
    if (peek(1) == '{') {
      pos_ += 2;
      Token t;
      t.kind = TokenKind::kDollarBrace;
      t.loc = start;
      out.push_back(t);
      return;
    }
    out.push_back(lex_variable(start));
    return;
  }
  if (is_digit(c) || (c == '.' && is_digit(peek(1)))) {
    out.push_back(lex_number(start));
    return;
  }
  if (is_ident_start(c)) {
    out.push_back(lex_identifier_or_keyword(start));
    return;
  }
  if (c == '\'') {
    out.push_back(lex_single_quoted(start));
    return;
  }
  if (c == '"') {
    out.push_back(lex_double_quoted());
    return;
  }
  if (c == '<' && peek(1) == '<' && peek(2) == '<') {
    out.push_back(lex_heredoc());
    return;
  }

  ++pos_;
  Token t;
  t.loc = start;
  switch (c) {
    case '+':
      t.kind = match('+') ? TokenKind::kPlusPlus
               : match('=') ? TokenKind::kPlusAssign
                            : TokenKind::kPlus;
      break;
    case '-':
      t.kind = match('-') ? TokenKind::kMinusMinus
               : match('=') ? TokenKind::kMinusAssign
               : match('>') ? TokenKind::kArrow
                            : TokenKind::kMinus;
      break;
    case '*':
      t.kind = match('*') ? TokenKind::kStarStar
               : match('=') ? TokenKind::kStarAssign
                            : TokenKind::kStar;
      break;
    case '/':
      t.kind = match('=') ? TokenKind::kSlashAssign : TokenKind::kSlash;
      break;
    case '%':
      t.kind = match('=') ? TokenKind::kPercentAssign : TokenKind::kPercent;
      break;
    case '.':
      t.kind = match('=') ? TokenKind::kDotAssign : TokenKind::kDot;
      break;
    case '=':
      if (match('=')) {
        t.kind = match('=') ? TokenKind::kIdentical : TokenKind::kEqual;
      } else if (match('>')) {
        t.kind = TokenKind::kDoubleArrow;
      } else {
        t.kind = TokenKind::kAssign;
      }
      break;
    case '!':
      if (match('=')) {
        t.kind = match('=') ? TokenKind::kNotIdentical : TokenKind::kNotEqual;
      } else {
        t.kind = TokenKind::kBang;
      }
      break;
    case '<':
      if (match('=')) {
        t.kind = match('>') ? TokenKind::kSpaceship : TokenKind::kLessEqual;
      } else if (match('<')) {
        t.kind = TokenKind::kShiftLeft;
      } else if (match('>')) {
        t.kind = TokenKind::kNotEqual;  // PHP's "<>"
      } else {
        t.kind = TokenKind::kLess;
      }
      break;
    case '>':
      if (match('=')) {
        t.kind = TokenKind::kGreaterEqual;
      } else if (match('>')) {
        t.kind = TokenKind::kShiftRight;
      } else {
        t.kind = TokenKind::kGreater;
      }
      break;
    case '&':
      t.kind = match('&') ? TokenKind::kAmpAmp : TokenKind::kAmp;
      break;
    case '|':
      t.kind = match('|') ? TokenKind::kPipePipe : TokenKind::kPipe;
      break;
    case '^': t.kind = TokenKind::kCaret; break;
    case '~': t.kind = TokenKind::kTilde; break;
    case '?':
      if (match('?')) {
        t.kind = match('=') ? TokenKind::kCoalesceAssign : TokenKind::kCoalesce;
      } else {
        t.kind = TokenKind::kQuestion;
      }
      break;
    case ':':
      t.kind = match(':') ? TokenKind::kDoubleColon : TokenKind::kColon;
      break;
    case '@': t.kind = TokenKind::kAt; break;
    case ',': t.kind = TokenKind::kComma; break;
    case ';': t.kind = TokenKind::kSemicolon; break;
    case '(': t.kind = TokenKind::kLParen; break;
    case ')': t.kind = TokenKind::kRParen; break;
    case '[': t.kind = TokenKind::kLBracket; break;
    case ']': t.kind = TokenKind::kRBracket; break;
    case '{': t.kind = TokenKind::kLBrace; break;
    case '}': t.kind = TokenKind::kRBrace; break;
    case '\\': t.kind = TokenKind::kBackslash; break;
    default:
      t.kind = TokenKind::kUnknown;
      t.text = slice(pos_ - 1, pos_);
      diags_.warning(start,
                     "unexpected character '" + std::string(t.text) + "'");
      break;
  }
  out.push_back(t);
}

Token Lexer::lex_variable(SourceLoc start) {
  Token t;
  t.loc = start;
  ++pos_;  // consume '$'
  const std::size_t begin = pos_;
  // A variable variable `$$name` keeps its inner '$' in the token text,
  // so the AST marks a variable whose name is only known at run time.
  if (pos_ + 1 < src_.size() && src_[pos_] == '$' &&
      is_ident_start(src_[pos_ + 1])) {
    ++pos_;
  }
  while (pos_ < src_.size() && is_ident_char(src_[pos_])) ++pos_;
  if (pos_ == begin) {
    diags_.warning(t.loc, "'$' not followed by a variable name");
    t.kind = TokenKind::kUnknown;
    t.text = "$";
    return t;
  }
  t.kind = TokenKind::kVariable;
  t.text = slice(begin, pos_);
  return t;
}

Token Lexer::lex_number(SourceLoc start) {
  Token t;
  t.loc = start;
  const std::size_t begin = pos_;
  bool is_float = false;

  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    pos_ += 2;
    std::int64_t value = 0;
    while (!at_end() && is_xdigit(peek())) {
      const char c = advance();
      const int digit = is_digit(c) ? c - '0' : ((c | 0x20) - 'a' + 10);
      value = value * 16 + digit;
    }
    t.kind = TokenKind::kIntLiteral;
    t.int_value = value;
    t.text = slice(begin, pos_);  // raw "0x1f" spelling
    return t;
  }

  while (pos_ < src_.size() && is_digit(src_[pos_])) ++pos_;
  if (peek() == '.' && is_digit(peek(1))) {
    is_float = true;
    ++pos_;  // '.'
    while (pos_ < src_.size() && is_digit(src_[pos_])) ++pos_;
  }
  if (peek() == 'e' || peek() == 'E') {
    const char sign = peek(1);
    if (is_digit(sign) ||
        ((sign == '+' || sign == '-') && is_digit(peek(2)))) {
      is_float = true;
      ++pos_;  // 'e'
      if (peek() == '+' || peek() == '-') ++pos_;
      while (pos_ < src_.size() && is_digit(src_[pos_])) ++pos_;
    }
  }
  const std::string_view digits = slice(begin, pos_);
  t.text = digits;
  if (is_float) {
    t.kind = TokenKind::kFloatLiteral;
    std::from_chars(digits.data(), digits.data() + digits.size(),
                    t.float_value);
  } else {
    t.kind = TokenKind::kIntLiteral;
    t.int_value = strutil::php_intval(digits);
  }
  return t;
}

Token Lexer::lex_identifier_or_keyword(SourceLoc start) {
  Token t;
  t.loc = start;
  const std::size_t begin = pos_;
  while (pos_ < src_.size() && is_ident_char(src_[pos_])) ++pos_;
  t.text = slice(begin, pos_);
  t.kind = classify_identifier(t.text);
  return t;
}

Token Lexer::lex_single_quoted(SourceLoc start) {
  Token t;
  t.loc = start;
  ++pos_;  // opening quote
  const std::size_t begin = pos_;
  const std::size_t n = src_.size();
  // Fast path: no escapes means the decoded value is a plain slice.
  // Two compares per byte until the first quote or backslash; most
  // strings never leave this loop.
  while (pos_ < n && src_[pos_] != '\'' && src_[pos_] != '\\') ++pos_;
  bool has_escape = false;
  while (pos_ < n && src_[pos_] != '\'') {
    if (src_[pos_] == '\\' && (peek(1) == '\'' || peek(1) == '\\')) {
      has_escape = true;
      pos_ += 2;
    } else {
      ++pos_;
    }
  }
  const std::size_t body_end = pos_;
  if (at_end()) {
    diags_.error(t.loc, "unterminated single-quoted string");
  } else {
    ++pos_;  // closing quote
  }
  t.kind = TokenKind::kStringLiteral;
  if (!has_escape) {
    t.text = slice(begin, body_end);
    return t;
  }
  scratch_.clear();
  for (std::size_t i = begin; i < body_end; ++i) {
    char c = src_[i];
    if (c == '\\' && i + 1 < body_end &&
        (src_[i + 1] == '\'' || src_[i + 1] == '\\')) {
      c = src_[++i];
    }
    scratch_ += c;
  }
  t.text = arena_.copy(scratch_);
  return t;
}

namespace {

// Decodes one escape sequence after a backslash in a double-quoted string.
char decode_escape(char c) {
  switch (c) {
    case 'n': return '\n';
    case 't': return '\t';
    case 'r': return '\r';
    case 'v': return '\v';
    case 'f': return '\f';
    case '0': return '\0';
    default: return c;  // \" \\ \$ and everything else pass through
  }
}

}  // namespace

Token Lexer::lex_double_quoted() {
  const SourceLoc start = loc_here();
  ++pos_;  // opening quote

  // Fast path: no escape and nothing that could start interpolation
  // before the closing quote means the decoded value is a plain slice
  // of the source copy — no scratch buffer, no arena copy. '$' and '{'
  // bail conservatively even when they would not interpolate.
  {
    std::size_t i = pos_;
    while (i < src_.size()) {
      const char c = src_[i];
      if (c == '"' || c == '\\' || c == '$' || c == '{') break;
      ++i;
    }
    if (i < src_.size() && src_[i] == '"') {
      Token t;
      t.kind = TokenKind::kStringLiteral;
      t.loc = start;
      t.text = slice(pos_, i);
      pos_ = i + 1;
      return t;
    }
  }

  parts_scratch_.clear();
  scratch_.clear();

  auto flush_literal = [&] {
    if (!scratch_.empty()) {
      InterpPart p;
      p.kind = InterpPart::Kind::kLiteral;
      p.text = arena_.copy(scratch_);
      parts_scratch_.push_back(p);
      scratch_.clear();
    }
  };
  auto scan_ident = [&]() -> std::string_view {
    const std::size_t begin = pos_;
    while (!at_end() && is_ident_char(peek())) ++pos_;
    return slice(begin, pos_);
  };

  while (!at_end() && peek() != '"') {
    char c = advance();
    if (c == '\\' && !at_end()) {
      scratch_ += decode_escape(advance());
      continue;
    }
    if (c == '$' && is_ident_start(peek())) {
      flush_literal();
      InterpPart p;
      p.kind = InterpPart::Kind::kVariable;
      p.text = scan_ident();
      // Simple syntax allows one [idx] or ->prop suffix.
      if (peek() == '[') {
        ++pos_;
        p.has_index = true;
        if (peek() == '\'' || peek() == '"') {
          const char q = advance();
          const std::size_t begin = pos_;
          while (!at_end() && peek() != q) ++pos_;
          p.index = slice(begin, pos_);
          if (!at_end()) ++pos_;
          p.index_is_string = true;
        } else if (peek() == '$') {
          // "$a[$i]" — dynamic index; approximate with an empty-string
          // index marker that the parser turns into a fresh symbol.
          ++pos_;
          p.index = scan_ident();
          p.index_is_string = true;
          diags_.warning(start,
                         "dynamic index in string interpolation approximated");
        } else {
          const std::size_t begin = pos_;
          while (!at_end() && peek() != ']') ++pos_;
          p.index = slice(begin, pos_);
          p.index_is_string = !strutil::parse_int(p.index).has_value();
        }
        if (peek() == ']') ++pos_;
      } else if (peek() == '-' && peek(1) == '>') {
        pos_ += 2;
        p.property = scan_ident();
      }
      parts_scratch_.push_back(p);
      continue;
    }
    if (c == '{' && peek() == '$') {
      // Complex syntax {$var} / {$var['idx']}.
      flush_literal();
      ++pos_;  // '$'
      InterpPart p;
      p.kind = InterpPart::Kind::kVariable;
      p.text = scan_ident();
      if (peek() == '[') {
        ++pos_;
        p.has_index = true;
        if (peek() == '\'' || peek() == '"') {
          const char q = advance();
          const std::size_t begin = pos_;
          while (!at_end() && peek() != q) ++pos_;
          p.index = slice(begin, pos_);
          if (!at_end()) ++pos_;
          p.index_is_string = true;
        } else {
          const std::size_t begin = pos_;
          while (!at_end() && peek() != ']') ++pos_;
          p.index = slice(begin, pos_);
          p.index_is_string = !strutil::parse_int(p.index).has_value();
        }
        if (peek() == ']') ++pos_;
      } else if (peek() == '-' && peek(1) == '>') {
        pos_ += 2;
        p.property = scan_ident();
      }
      if (peek() == '}') {
        ++pos_;
      } else {
        diags_.warning(start, "unsupported complex interpolation syntax");
      }
      parts_scratch_.push_back(p);
      continue;
    }
    scratch_ += c;
  }
  if (at_end()) {
    diags_.error(start, "unterminated double-quoted string");
  } else {
    ++pos_;  // closing quote
  }
  flush_literal();
  return make_string_token(start, parts_scratch_);
}

Token Lexer::lex_heredoc() {
  const SourceLoc start = loc_here();
  pos_ += 3;  // <<<
  while (peek() == ' ' || peek() == '\t') ++pos_;
  bool nowdoc = false;
  char quote = '\0';
  if (peek() == '\'' || peek() == '"') {
    quote = advance();
    nowdoc = (quote == '\'');
  }
  const std::size_t tag_begin = pos_;
  while (!at_end() && is_ident_char(peek())) ++pos_;
  const std::string_view tag = slice(tag_begin, pos_);
  if (quote != '\0' && peek() == quote) ++pos_;
  if (peek() == '\r') ++pos_;
  if (peek() == '\n') ++pos_;

  // Find the terminator line: the tag at line start, optionally indented,
  // optionally followed by ';'. Heredocs are rare enough that building
  // the body in a local buffer (then arena-copying what survives) is fine.
  std::string body;
  while (!at_end()) {
    const std::size_t line_start = pos_;
    std::size_t probe = pos_;
    while (probe < src_.size() && (src_[probe] == ' ' || src_[probe] == '\t')) {
      ++probe;
    }
    if (src_.substr(probe, tag.size()) == tag) {
      const std::size_t after = probe + tag.size();
      const char next = after < src_.size() ? src_[after] : '\n';
      if (!is_ident_char(next)) {
        pos_ = after;
        // Strip one trailing newline from the body per heredoc semantics.
        if (!body.empty() && body.back() == '\n') body.pop_back();
        if (!body.empty() && body.back() == '\r') body.pop_back();
        break;
      }
    }
    // Copy this whole line into the body.
    while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
    if (pos_ < src_.size()) ++pos_;  // the newline
    body.append(src_.substr(line_start, pos_ - line_start));
  }

  if (nowdoc) {
    Token t;
    t.kind = TokenKind::kStringLiteral;
    t.loc = start;
    t.text = arena_.copy(body);
    return t;
  }

  // Heredoc bodies interpolate like double-quoted strings; reuse that
  // decoder by scanning the body for "$ident" markers.
  parts_scratch_.clear();
  scratch_.clear();
  std::size_t i = 0;
  auto flush_literal = [&] {
    if (!scratch_.empty()) {
      InterpPart p;
      p.kind = InterpPart::Kind::kLiteral;
      p.text = arena_.copy(scratch_);
      parts_scratch_.push_back(p);
      scratch_.clear();
    }
  };
  while (i < body.size()) {
    const char c = body[i];
    if (c == '\\' && i + 1 < body.size()) {
      scratch_ += decode_escape(body[i + 1]);
      i += 2;
      continue;
    }
    if (c == '$' && i + 1 < body.size() && is_ident_start(body[i + 1])) {
      flush_literal();
      InterpPart p;
      p.kind = InterpPart::Kind::kVariable;
      ++i;
      const std::size_t name_begin = i;
      while (i < body.size() && is_ident_char(body[i])) ++i;
      p.text = arena_.copy(
          std::string_view(body).substr(name_begin, i - name_begin));
      parts_scratch_.push_back(p);
      continue;
    }
    scratch_ += c;
    ++i;
  }
  flush_literal();
  return make_string_token(start, parts_scratch_);
}

Token Lexer::make_string_token(SourceLoc start,
                               std::vector<InterpPart>& parts) {
  Token t;
  t.loc = start;
  const bool pure_literal =
      parts.empty() ||
      (parts.size() == 1 && parts[0].kind == InterpPart::Kind::kLiteral);
  if (pure_literal) {
    t.kind = TokenKind::kStringLiteral;
    if (!parts.empty()) t.text = parts[0].text;
  } else {
    t.kind = TokenKind::kTemplateString;
    t.parts = arena_.make_span(parts);
  }
  return t;
}

void Lexer::skip_line_comment() {
  while (!at_end() && peek() != '\n') {
    // A close tag inside a line comment still ends PHP mode in real PHP;
    // handle it so "// ?>" doesn't swallow the rest of the file.
    if (peek() == '?' && peek(1) == '>') return;
    ++pos_;
  }
}

void Lexer::skip_block_comment() {
  const SourceLoc start = loc_here();
  pos_ += 2;
  while (!at_end()) {
    if (peek() == '*' && peek(1) == '/') {
      pos_ += 2;
      return;
    }
    ++pos_;
  }
  diags_.error(start, "unterminated block comment");
}

}  // namespace uchecker::phplex
