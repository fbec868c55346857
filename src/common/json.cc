#include "common/json.h"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/log.h"

namespace graphpim::json {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void AppendUtf8(unsigned cp, std::string* out) {
  if (cp < 0x80) {
    *out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    *out += static_cast<char>(0xC0 | (cp >> 6));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *out += static_cast<char>(0xE0 | (cp >> 12));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    *out += static_cast<char>(0xF0 | (cp >> 18));
    *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

// Recursive descent over one document. Every error names the offset of
// the byte that broke the grammar.
class Reader {
 public:
  explicit Reader(std::string_view s) : s_(s) {}

  Value Document() {
    Value v = ParseValue(0);
    SkipWs();
    if (pos_ != s_.size()) Fail("end of input");
    return v;
  }

 private:
  [[noreturn]] void FailAt(std::size_t at, const std::string& what) const {
    GP_THROW("malformed JSON at offset ", at, ": expected ", what);
  }
  [[noreturn]] void Fail(const std::string& what) const { FailAt(pos_, what); }

  // The byte at the cursor, or '\0' past the end. A NUL byte is invalid
  // wherever Peek() is tested, so the end needs no separate check.
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void SkipWs() {
    while (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' || Peek() == '\r') {
      ++pos_;
    }
  }

  Value ParseValue(int depth) {
    SkipWs();
    Value v;
    switch (Peek()) {
      case '{':
      case '[':
        ParseContainer(depth + 1, &v);
        break;
      case '"':
        v.kind = Value::Kind::kString;
        v.text = ParseString();
        break;
      case 't':
        Literal("true");
        v.kind = Value::Kind::kBool;
        v.boolean = true;
        break;
      case 'f':
        Literal("false");
        v.kind = Value::Kind::kBool;
        break;
      case 'n':
        Literal("null");
        break;
      default:
        v.kind = Value::Kind::kNumber;
        v.text = ParseNumber();
    }
    return v;
  }

  void Literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) Fail("a value");
    pos_ += lit.size();
  }

  // An object or array at nesting level `depth` (the cursor is on its
  // opening bracket). Members keep document order, duplicates included.
  void ParseContainer(int depth, Value* v) {
    if (depth > kMaxDepth) {
      Fail("at most " + std::to_string(kMaxDepth) + " levels of nesting");
    }
    const bool object = Peek() == '{';
    const char close = object ? '}' : ']';
    v->kind = object ? Value::Kind::kObject : Value::Kind::kArray;
    ++pos_;
    SkipWs();
    if (Peek() == close) {
      ++pos_;
      return;
    }
    while (true) {
      if (object) {
        SkipWs();
        if (Peek() != '"') Fail("an object key");
        std::string key = ParseString();
        SkipWs();
        if (Peek() != ':') Fail("':'");
        ++pos_;
        v->members.emplace_back(std::move(key), ParseValue(depth));
      } else {
        v->items.push_back(ParseValue(depth));
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
      } else if (Peek() == close) {
        ++pos_;
        return;
      } else {
        Fail(object ? "',' or '}'" : "',' or ']'");
      }
    }
  }

  std::string ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (pos_ == s_.size()) Fail("a closing '\"'");
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        Fail("an escape sequence, not a raw control byte");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
      } else if (s_.substr(pos_, 2) == "\\u") {
        AppendUtf8(CodePoint(), &out);
      } else {
        ++pos_;
        switch (Peek()) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          default: Fail("a valid escape character");
        }
        ++pos_;
      }
    }
  }

  // One "\uXXXX" escape at the cursor; returns the UTF-16 code unit.
  unsigned CodeUnit() {
    pos_ += 2;  // "\u"
    unsigned unit = 0;
    for (int i = 0; i < 4; ++i, ++pos_) {
      const int d = HexDigit(Peek());
      if (d < 0) Fail("four hex digits");
      unit = (unit << 4) | static_cast<unsigned>(d);
    }
    return unit;
  }

  // A \u escape, or a surrogate pair of them, as one code point. A lone
  // surrogate half is an error: it has no UTF-8 encoding.
  unsigned CodePoint() {
    const std::size_t at = pos_;
    const unsigned hi = CodeUnit();
    if (hi >= 0xDC00 && hi <= 0xDFFF) FailAt(at, "a high surrogate first");
    if (hi < 0xD800 || hi > 0xDBFF) return hi;
    if (s_.substr(pos_, 2) != "\\u") Fail("a low surrogate");
    const std::size_t lo_at = pos_;
    const unsigned lo = CodeUnit();
    if (lo < 0xDC00 || lo > 0xDFFF) FailAt(lo_at, "a low surrogate");
    return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, kept as its raw token.
  std::string ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (Peek() == '0') {
      ++pos_;
    } else if (IsDigit(Peek())) {
      Digits();
    } else {
      Fail(pos_ == start ? "a value" : "a digit");
    }
    if (Peek() == '.') {
      ++pos_;
      Digits();
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      Digits();
    }
    return std::string(s_.substr(start, pos_ - start));
  }

  // One or more decimal digits.
  void Digits() {
    if (!IsDigit(Peek())) Fail("a digit");
    while (IsDigit(Peek())) ++pos_;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

const Value* Value::Find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::uint64_t Value::U64() const {
  if (kind != Kind::kNumber || text.empty()) GP_THROW("expected a JSON number");
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t v = 0;
  for (const char c : text) {
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (!IsDigit(c) || v > (kMax - d) / 10) {
      GP_THROW("JSON number ", text, " is not an unsigned 64-bit integer");
    }
    v = v * 10 + d;
  }
  return v;
}

double Value::Double() const {
  if (kind != Kind::kNumber) GP_THROW("expected a JSON number");
  const double v = std::strtod(text.c_str(), nullptr);
  if (!std::isfinite(v)) GP_THROW("JSON number ", text, " overflows a double");
  return v;
}

Value Parse(std::string_view text) { return Reader(text).Document(); }

}  // namespace graphpim::json
