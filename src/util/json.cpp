#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/status.hpp"

namespace prpart::json {

namespace {

[[noreturn]] void type_error(const char* want, Value::Type got) {
  static const char* names[] = {"null",   "bool",  "uint",   "int",
                                "double", "string", "array", "object"};
  throw ParseError(std::string("JSON value is ") +
                   names[static_cast<int>(got)] + ", expected " + want);
}

}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::Bool) type_error("bool", type_);
  return bool_;
}

std::uint64_t Value::as_u64() const {
  if (type_ == Type::Uint) return uint_;
  if (type_ == Type::Int && int_ >= 0) return static_cast<std::uint64_t>(int_);
  type_error("non-negative integer", type_);
}

const std::string& Value::as_string() const {
  if (type_ != Type::String) type_error("string", type_);
  return string_;
}

const std::vector<Value>& Value::items() const {
  if (type_ != Type::Array) type_error("array", type_);
  return array_;
}

void Value::push_back(Value v) {
  if (type_ != Type::Array) type_error("array", type_);
  array_.push_back(std::move(v));
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (type_ != Type::Object) type_error("object", type_);
  return object_;
}

void Value::set(const std::string& key, Value v) {
  if (type_ != Type::Object) type_error("object", type_);
  for (auto& [k, existing] : object_)
    if (k == key) {
      existing = std::move(v);
      return;
    }
  object_.emplace_back(key, std::move(v));
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (!v) throw ParseError("missing JSON field '" + std::string(key) + "'");
  return *v;
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::Uint: return uint_ == other.uint_;
    case Type::Int: return int_ == other.int_;
    case Type::Double: return double_ == other.double_;
    case Type::String: return string_ == other.string_;
    case Type::Array: return array_ == other.array_;
    case Type::Object: return object_ == other.object_;
  }
  return false;
}

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  out.push_back('"');
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string Value::dump() const {
  switch (type_) {
    case Type::Null: return "null";
    case Type::Bool: return bool_ ? "true" : "false";
    case Type::Uint: return std::to_string(uint_);
    case Type::Int: return std::to_string(int_);
    case Type::Double: {
      if (!std::isfinite(double_))
        throw ParseError("cannot serialise a non-finite number as JSON");
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", double_);
      return buf;
    }
    case Type::String: return escape(string_);
    case Type::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += array_[i].dump();
      }
      out.push_back(']');
      return out;
    }
    case Type::Object: {
      std::string out = "{";
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += escape(object_[i].first);
        out.push_back(':');
        out += object_[i].second.dump();
      }
      out.push_back('}');
      return out;
    }
  }
  return "null";
}

namespace {

/// Recursive-descent parser over the input view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size())
      fail("trailing characters after the JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("JSON parse error at offset " + std::to_string(pos_) +
                     ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_keyword(std::string_view kw) {
    if (text_.substr(pos_, kw.size()) != kw) return false;
    pos_ += kw.size();
    return true;
  }

  Value parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    Value v;
    if (c == '{') v = parse_object();
    else if (c == '[') v = parse_array();
    else if (c == '"') v = Value(parse_string());
    else if (consume_keyword("true")) v = Value(true);
    else if (consume_keyword("false")) v = Value(false);
    else if (consume_keyword("null")) v = Value();
    else v = parse_number();
    --depth_;
    return v;
  }

  Value parse_object() {
    expect('{');
    Value obj = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      const char n = peek();
      ++pos_;
      if (n == '}') return obj;
      if (n != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Value arr = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char n = peek();
      ++pos_;
      if (n == ']') return arr;
      if (n != ',') fail("expected ',' or ']' in array");
    }
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        cp |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        cp |= static_cast<std::uint32_t>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return cp;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char e = peek();
      ++pos_;
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // Surrogate pair: a second \uXXXX must follow.
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              const std::uint32_t lo = parse_hex4();
              if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid surrogate pair");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              fail("unpaired surrogate");
            }
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("unknown escape sequence");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    bool negative = false;
    bool integral = true;
    if (peek() == '-') {
      negative = true;
      ++pos_;
    }
    if (!(peek() >= '0' && peek() <= '9')) fail("invalid number");
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      if (negative) {
        const long long v = std::strtoll(token.c_str(), &end, 10);
        if (errno != 0 || *end != '\0') fail("integer out of range");
        return Value(static_cast<std::int64_t>(v));
      }
      const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
      if (errno != 0 || *end != '\0') fail("integer out of range");
      return Value(static_cast<std::uint64_t>(v));
    }
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (errno != 0 || *end != '\0' || !std::isfinite(v))
      fail("invalid number");
    return Value(v);
  }

  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace prpart::json
