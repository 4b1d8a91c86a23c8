#include "support/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace pbse {

namespace {

constexpr double kTwoTo64 = 18446744073709551616.0;
constexpr int kMaxDepth = 256;

/// True when `d` converts to a u64 without loss (NaN fails every compare).
bool holds_u64(double d) {
  return d >= 0 && d < kTwoTo64 && std::floor(d) == d;
}

}  // namespace

// --- Json value -----------------------------------------------------------

Json Json::boolean(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = b;
  return j;
}

Json Json::number(std::uint64_t v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.integer_ = true;
  j.unum_ = v;
  return j;
}

Json Json::number_double(double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.num_ = v;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) throw JsonError("json: not a bool");
  return bool_;
}

std::uint64_t Json::as_u64() const {
  if (kind_ != Kind::kNumber) throw JsonError("json: not a number");
  if (integer_) return unum_;
  if (!holds_u64(num_))
    throw JsonError("json: number is not an unsigned 64-bit integer");
  return static_cast<std::uint64_t>(num_);
}

double Json::as_double() const {
  if (kind_ != Kind::kNumber) throw JsonError("json: not a number");
  return integer_ ? static_cast<double>(unum_) : num_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) throw JsonError("json: not a string");
  return str_;
}

const std::vector<Json>& Json::items() const {
  if (kind_ != Kind::kArray) throw JsonError("json: not an array");
  return items_;
}

const Json& Json::get(const std::string& key) const {
  static const Json kNull;
  if (kind_ != Kind::kObject) return kNull;
  auto it = fields_.find(key);
  return it == fields_.end() ? kNull : it->second;
}

bool Json::has(const std::string& key) const {
  return kind_ == Kind::kObject && fields_.count(key) > 0;
}

void Json::set(const std::string& key, Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) throw JsonError("json: not an object");
  fields_[key] = std::move(value);
}

void Json::push_back(Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  if (kind_ != Kind::kArray) throw JsonError("json: not an array");
  items_.push_back(std::move(value));
}

const std::map<std::string, Json>& Json::fields() const { return fields_; }

std::uint64_t Json::get_u64(const std::string& key,
                            std::uint64_t fallback) const {
  const Json& v = get(key);
  return v.is_number() ? v.as_u64() : fallback;
}

std::string Json::get_string(const std::string& key,
                             const std::string& fallback) const {
  const Json& v = get(key);
  return v.is_string() ? v.as_string() : fallback;
}

bool Json::get_bool(const std::string& key, bool fallback) const {
  const Json& v = get(key);
  return v.is_bool() ? v.as_bool() : fallback;
}

// --- Writer ---------------------------------------------------------------

namespace {

void quote_into(std::string_view s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_number(double d, std::string& out) {
  if (!std::isfinite(d)) {
    out += "null";
  } else if (holds_u64(d)) {
    out += std::to_string(static_cast<std::uint64_t>(d));
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
  }
}

void dump_value(const Json& j, std::string& out) {
  switch (j.kind()) {
    case Json::Kind::kNull: out += "null"; return;
    case Json::Kind::kBool: out += j.as_bool() ? "true" : "false"; return;
    case Json::Kind::kNumber:
      if (j.is_integer()) out += std::to_string(j.as_u64());
      else dump_number(j.as_double(), out);
      return;
    case Json::Kind::kString: quote_into(j.as_string(), out); return;
    case Json::Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& item : j.items()) {
        if (!first) out.push_back(',');
        first = false;
        dump_value(item, out);
      }
      out.push_back(']');
      return;
    }
    case Json::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : j.fields()) {
        if (!first) out.push_back(',');
        first = false;
        quote_into(key, out);
        out.push_back(':');
        dump_value(value, out);
      }
      out.push_back('}');
      return;
    }
  }
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

std::string json_quote(std::string_view s) {
  std::string out;
  quote_into(s, out);
  return out;
}

// --- Parser ---------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError("json parse error at offset " + std::to_string(pos_) +
                    ": " + why);
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  /// Consumes [0-9]*; true if at least one digit was there.
  bool consume_digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    return pos_ > start;
  }

  Json parse_value(int depth) {
    if (depth >= kMaxDepth) fail("nesting too deep");
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json::string(parse_string());
      case 't':
        if (consume_literal("true")) return Json::boolean(true);
        break;
      case 'f':
        if (consume_literal("false")) return Json::boolean(false);
        break;
      case 'n':
        if (consume_literal("null")) return Json::null();
        break;
      default: return parse_number();
    }
    fail("bad literal");
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("bad \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      v <<= 4;
      if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return v;
  }

  /// UTF-8 encodes one \u escape's 16-bit code unit. Surrogate pairs are
  /// not joined: nothing pbSE reads carries text outside the basic plane.
  static void append_utf8(unsigned cp, std::string& out) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      switch (const char esc = text_[pos_++]) {
        case '"':
        case '\\':
        case '/': out.push_back(esc); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(parse_hex4(), out); break;
        default: fail("bad escape character");
      }
    }
  }

  /// RFC 8259 number grammar. Digits alone land in the exact u64 lane;
  /// anything else (sign, fraction, exponent, or too many digits for a
  /// u64) is a double.
  Json parse_number() {
    const std::size_t start = pos_;
    const bool negative = at('-');
    if (negative) ++pos_;
    if (at('0')) ++pos_;
    else if (!consume_digits()) fail("expected a value");
    bool integer = !negative;
    if (at('.')) {
      ++pos_;
      integer = false;
      if (!consume_digits()) fail("bad number");
    }
    if (at('e') || at('E')) {
      ++pos_;
      integer = false;
      if (at('+') || at('-')) ++pos_;
      if (!consume_digits()) fail("bad number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integer) {
      errno = 0;
      const unsigned long long v = std::strtoull(token.c_str(), nullptr, 10);
      if (errno == 0) return Json::number(v);
    }
    return Json::number_double(std::strtod(token.c_str(), nullptr));
  }

  Json parse_array(int depth) {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (at(']')) {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (at('}')) {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace pbse
