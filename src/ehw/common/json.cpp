#include "ehw/common/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>

namespace ehw {
namespace {

constexpr std::size_t kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing garbage after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError(what, pos_);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return Json(nullptr);
      default: return parse_number();
    }
  }

  // Objects and arrays collect their elements on the parser's element
  // stacks (nested containers above their parent's, popped when they
  // close) and are then moved into a vector of exactly their size: a
  // parsed document holds no spare capacity for as long as it is kept.
  template <typename T>
  static std::vector<T> pop_from(std::vector<T>& stack, std::size_t first) {
    const auto begin = stack.begin() + static_cast<std::ptrdiff_t>(first);
    std::vector<T> out(std::make_move_iterator(begin),
                       std::make_move_iterator(stack.end()));
    stack.erase(begin, stack.end());
    return out;
  }

  Json parse_object(std::size_t depth) {
    ++pos_;  // '{'
    const std::size_t first = members_.size();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Json::object();
    }
    for (;;) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_whitespace();
      if (peek() != ':') fail("expected ':' after object key");
      ++pos_;
      Json value = parse_value(depth + 1);
      members_.emplace_back(std::move(key), std::move(value));
      skip_whitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        return Json(pop_from(members_, first));
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json parse_array(std::size_t depth) {
    ++pos_;  // '['
    const std::size_t first = items_.size();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Json::array();
    }
    for (;;) {
      Json item = parse_value(depth + 1);
      items_.push_back(std::move(item));
      skip_whitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        return Json(pop_from(items_, first));
      }
      fail("expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    // Up to the first quote, escape or control character the string is a
    // slice of the input: copied at its final size. The loop below ends
    // at once on the closing quote, or handles what follows.
    std::size_t end = pos_;
    while (end < text_.size() && text_[end] != '"' && text_[end] != '\\' &&
           static_cast<unsigned char>(text_[end]) >= 0x20) {
      ++end;
    }
    std::string out(text_.substr(pos_, end - pos_));
    pos_ = end;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must pair with \uDC00-\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("unpaired UTF-16 surrogate");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid UTF-16 surrogate pair");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired UTF-16 surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [this] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    const std::size_t int_start = pos_;
    if (digits() == 0) fail("invalid number");
    // JSON forbids leading zeros ("042").
    if (pos_ - int_start > 1 && text_[int_start] == '0') {
      pos_ = int_start;
      fail("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("expected digits after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("expected exponent digits");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    // Overflowing literals ("1e400") would become inf, which dump()
    // cannot represent — reject rather than silently change the value.
    if (!std::isfinite(value)) fail("number out of range");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  Json::Array items_;     // elements of the arrays being parsed
  Json::Object members_;  // members of the objects being parsed
};

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out.push_back('"');
}

void dump_number(double n, std::string& out) {
  if (!std::isfinite(n)) {
    out += "null";  // JSON has no NaN/Inf; null is the least-wrong frame
    return;
  }
  char buf[32];
  if (json_number_is_exact_int(n)) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(n));
  } else {
    // %.17g round-trips every double; trim to the shortest that does.
    std::snprintf(buf, sizeof buf, "%.17g", n);
    double reparsed = 0.0;
    for (int precision = 15; precision <= 16; ++precision) {
      char shorter[32];
      std::snprintf(shorter, sizeof shorter, "%.*g", precision, n);
      std::sscanf(shorter, "%lf", &reparsed);
      if (reparsed == n) {
        std::memcpy(buf, shorter, sizeof shorter);
        break;
      }
    }
  }
  out += buf;
}

void dump_value(const Json& value, std::string& out) {
  switch (value.type()) {
    case Json::Type::kNull: out += "null"; break;
    case Json::Type::kBool: out += value.as_bool() ? "true" : "false"; break;
    case Json::Type::kNumber: dump_number(value.as_number(), out); break;
    case Json::Type::kString: dump_string(value.as_string(), out); break;
    case Json::Type::kArray: {
      out.push_back('[');
      const Json::Array& items = value.as_array();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0) out.push_back(',');
        dump_value(items[i], out);
      }
      out.push_back(']');
      break;
    }
    case Json::Type::kObject: {
      out.push_back('{');
      const Json::Object& members = value.as_object();
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i != 0) out.push_back(',');
        dump_string(members[i].first, out);
        out.push_back(':');
        dump_value(members[i].second, out);
      }
      out.push_back('}');
      break;
    }
  }
}

[[noreturn]] void type_error(const char* wanted) {
  throw JsonError(std::string("JSON value is not ") + wanted, 0);
}

}  // namespace

bool json_number_is_exact_int(double n) noexcept {
  return std::isfinite(n) && n == std::floor(n) && std::fabs(n) < 0x1p53;
}

Json Json::parse(std::string_view text) { return Parser(text).run(); }

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

bool Json::as_bool() const {
  if (!is_bool()) type_error("a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) type_error("a number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  if (!is_string()) type_error("a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) type_error("an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) type_error("an object");
  return std::get<Object>(value_);
}

Json::Array& Json::as_array() {
  if (!is_array()) type_error("an array");
  return std::get<Array>(value_);
}

Json::Object& Json::as_object() {
  if (!is_object()) type_error("an object");
  return std::get<Object>(value_);
}

const Json* Json::get(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  const Object& members = std::get<Object>(value_);
  const Json* found = nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) found = &v;
  }
  return found;
}

std::string Json::get_string(std::string_view key,
                             const std::string& fallback) const {
  const Json* v = get(key);
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

double Json::get_number(std::string_view key, double fallback) const {
  const Json* v = get(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

bool Json::get_bool(std::string_view key, bool fallback) const {
  const Json* v = get(key);
  return v != nullptr && v->is_bool() ? v->as_bool() : fallback;
}

Json& Json::set(std::string key, Json value) {
  Object& members = as_object();
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    if (it->first == key) {
      it->second = std::move(value);
      return *this;
    }
  }
  members.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push_back(Json value) {
  as_array().push_back(std::move(value));
  return *this;
}

Json json_u64(std::uint64_t value) { return Json(std::to_string(value)); }

Json json_i64(std::int64_t value) { return Json(std::to_string(value)); }

namespace {

/// Strict decimal parse: every character consumed, no sign/whitespace,
/// overflow rejected. Keeps journal/checkpoint parsing unambiguous.
bool parse_u64_digits(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

}  // namespace

bool json_read_u64(const Json* field, std::uint64_t& out) {
  if (field == nullptr) return false;
  if (field->is_string()) return parse_u64_digits(field->as_string(), out);
  if (field->is_number()) {
    const double n = field->as_number();
    if (n < 0 || !json_number_is_exact_int(n)) return false;
    out = static_cast<std::uint64_t>(n);
    return true;
  }
  return false;
}

bool json_read_i64(const Json* field, std::int64_t& out) {
  if (field == nullptr) return false;
  if (field->is_string()) {
    const std::string& text = field->as_string();
    const bool negative = !text.empty() && text.front() == '-';
    std::uint64_t magnitude = 0;
    if (!parse_u64_digits(negative ? text.substr(1) : text, magnitude)) {
      return false;
    }
    const auto limit =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
    if (negative) {
      if (magnitude > limit + 1) return false;
      out = magnitude == limit + 1
                ? std::numeric_limits<std::int64_t>::min()
                : -static_cast<std::int64_t>(magnitude);
    } else {
      if (magnitude > limit) return false;
      out = static_cast<std::int64_t>(magnitude);
    }
    return true;
  }
  if (field->is_number()) {
    const double n = field->as_number();
    if (!json_number_is_exact_int(n)) return false;
    out = static_cast<std::int64_t>(n);
    return true;
  }
  return false;
}

}  // namespace ehw
