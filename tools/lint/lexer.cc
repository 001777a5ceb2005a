#include "tools/lint/lexer.h"

#include <cctype>

namespace dexa::lint {
namespace {

bool IsIdentStart(unsigned char c) { return std::isalpha(c) || c == '_'; }
bool IsIdentChar(unsigned char c) { return std::isalnum(c) || c == '_'; }

/// Incremental scanner state over a byte buffer.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  LexedSource Lex() {
    LexedSource out;
    while (pos_ < text_.size()) {
      size_t before = pos_;
      Step(out);
      // Safety net for the fuzz contract: whatever the byte, make progress.
      if (pos_ <= before) pos_ = before + 1;
    }
    return out;
  }

 private:
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }

  void Advance() {
    if (pos_ >= text_.size()) return;
    if (text_[pos_] == '\n') ++line_;
    ++pos_;
  }

  void Step(LexedSource& out) {
    char c = Peek();
    if (c == '\n' || std::isspace(static_cast<unsigned char>(c))) {
      if (c == '\n') at_line_start_ = true;
      Advance();
      return;
    }
    if (c == '/' && Peek(1) == '/') {
      LexLineComment(out);
      return;
    }
    if (c == '/' && Peek(1) == '*') {
      LexBlockComment(out);
      return;
    }
    if (c == '#' && at_line_start_) {
      LexPreprocessor(out);
      return;
    }
    at_line_start_ = false;
    if (c == '"') {
      LexString();
      return;
    }
    if (c == '\'') {
      LexCharLit();
      return;
    }
    if (c == 'R' && Peek(1) == '"') {
      LexRawString();
      return;
    }
    if (IsIdentStart(static_cast<unsigned char>(c))) {
      LexIdentifier(out);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      LexNumber(out);
      return;
    }
    LexPunct(out);
  }

  void LexLineComment(LexedSource& out) {
    int start_line = line_;
    size_t start = pos_;
    while (pos_ < text_.size() && Peek() != '\n') Advance();
    ParseSuppression(text_.substr(start, pos_ - start), start_line, out);
  }

  void LexBlockComment(LexedSource& out) {
    int start_line = line_;
    size_t start = pos_;
    Advance();  // '/'
    Advance();  // '*'
    while (pos_ < text_.size() && !(Peek() == '*' && Peek(1) == '/')) Advance();
    if (pos_ < text_.size()) {
      Advance();
      Advance();
    }
    ParseSuppression(text_.substr(start, pos_ - start), start_line, out);
  }

  /// Consumes a preprocessor line (honoring backslash continuations) and
  /// records `#include` targets. Directive bodies are deliberately excluded
  /// from the token stream: macro definitions are not call sites.
  void LexPreprocessor(LexedSource& out) {
    int start_line = line_;
    Advance();  // '#'
    while (pos_ < text_.size() && Peek() != '\n' &&
           std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
    size_t name_start = pos_;
    while (pos_ < text_.size() && IsIdentChar(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
    std::string_view directive = text_.substr(name_start, pos_ - name_start);
    if (directive == "include") {
      while (pos_ < text_.size() && Peek() != '\n' &&
             std::isspace(static_cast<unsigned char>(Peek()))) {
        Advance();
      }
      char open = Peek();
      char close = open == '<' ? '>' : (open == '"' ? '"' : '\0');
      if (close != '\0') {
        Advance();
        size_t path_start = pos_;
        while (pos_ < text_.size() && Peek() != close && Peek() != '\n') {
          Advance();
        }
        out.includes.push_back(
            {std::string(text_.substr(path_start, pos_ - path_start)),
             open == '<', start_line});
      }
    }
    // Consume to the end of the (possibly continued) directive. A trailing
    // line comment may carry a suppression; hand it to the comment lexers.
    while (pos_ < text_.size() && Peek() != '\n') {
      if (Peek() == '\\' && Peek(1) == '\n') {
        Advance();
        Advance();
        continue;
      }
      if (Peek() == '/' && Peek(1) == '/') {
        LexLineComment(out);
        return;
      }
      if (Peek() == '/' && Peek(1) == '*') {
        LexBlockComment(out);
        continue;
      }
      Advance();
    }
  }

  void LexString() {
    Advance();  // opening quote
    while (pos_ < text_.size() && Peek() != '"' && Peek() != '\n') {
      if (Peek() == '\\') Advance();
      Advance();
    }
    if (Peek() == '"') Advance();
  }

  void LexCharLit() {
    Advance();  // opening quote
    while (pos_ < text_.size() && Peek() != '\'' && Peek() != '\n') {
      if (Peek() == '\\') Advance();
      Advance();
    }
    if (Peek() == '\'') Advance();
  }

  void LexRawString() {
    Advance();  // 'R'
    Advance();  // '"'
    // Collect the delimiter up to '(' (bounded: standard caps it at 16).
    std::string delim;
    while (pos_ < text_.size() && Peek() != '(' && Peek() != '\n' &&
           delim.size() < 20) {
      delim.push_back(Peek());
      Advance();
    }
    if (Peek() != '(') return;  // malformed raw string; already advanced
    Advance();
    std::string closer = ")" + delim + "\"";
    while (pos_ < text_.size()) {
      if (Peek() == ')' && text_.compare(pos_, closer.size(), closer) == 0) {
        for (size_t i = 0; i < closer.size(); ++i) Advance();
        return;
      }
      Advance();
    }
  }

  void LexIdentifier(LexedSource& out) {
    int start_line = line_;
    size_t start = pos_;
    while (pos_ < text_.size() && IsIdentChar(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
    std::string text(text_.substr(start, pos_ - start));
    // Raw-string literal directly after the prefix identifier, e.g. u8R"(..)".
    if ((text == "u8R" || text == "uR" || text == "LR") && Peek() == '"') {
      pos_ = start;  // re-lex as a raw string (prefix variants all end in R")
      pos_ += text.size() - 1;
      LexRawString();
      return;
    }
    out.tokens.push_back({TokenKind::kIdentifier, std::move(text), start_line});
  }

  void LexNumber(LexedSource& out) {
    int start_line = line_;
    size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = Peek();
      if (IsIdentChar(static_cast<unsigned char>(c)) || c == '.') {
        Advance();
        continue;
      }
      // Exponent signs: 1e+5, 0x1p-3.
      if ((c == '+' || c == '-') && pos_ > start) {
        char prev = text_[pos_ - 1];
        if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
          Advance();
          continue;
        }
      }
      break;
    }
    out.tokens.push_back(
        {TokenKind::kNumber, std::string(text_.substr(start, pos_ - start)),
         start_line});
  }

  void LexPunct(LexedSource& out) {
    int start_line = line_;
    const char c = Peek();
    const bool two_char =
        (c == ':' && Peek(1) == ':') || (c == '-' && Peek(1) == '>');
    std::string text(text_.substr(pos_, two_char ? 2 : 1));
    for (size_t i = 0; i < text.size(); ++i) Advance();
    out.tokens.push_back({TokenKind::kPunct, std::move(text), start_line});
  }

  /// Recognizes `dexa-lint: allow(rule1, rule2)` and
  /// `dexa-lint: allow-file(rule)` inside a comment's text.
  void ParseSuppression(std::string_view comment, int comment_line,
                        LexedSource& out) {
    size_t marker = comment.find("dexa-lint:");
    if (marker == std::string_view::npos) return;
    std::string_view rest = comment.substr(marker + 10);
    size_t i = 0;
    while (i < rest.size() && std::isspace(static_cast<unsigned char>(rest[i]))) {
      ++i;
    }
    bool file_wide = false;
    if (rest.compare(i, 11, "allow-file(") == 0) {
      file_wide = true;
      i += 11;
    } else if (rest.compare(i, 6, "allow(") == 0) {
      i += 6;
    } else {
      return;
    }
    std::string rule;
    for (; i <= rest.size(); ++i) {
      char c = i < rest.size() ? rest[i] : ')';
      if (c == ',' || c == ')') {
        if (!rule.empty()) {
          if (file_wide) {
            out.file_suppressions.insert(rule);
          } else {
            out.line_suppressions[comment_line].insert(rule);
          }
        }
        rule.clear();
        if (c == ')') break;
      } else if (!std::isspace(static_cast<unsigned char>(c))) {
        rule.push_back(c);
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  bool at_line_start_ = true;
};

}  // namespace

LexedSource LexSource(std::string_view text) { return Scanner(text).Lex(); }

}  // namespace dexa::lint
