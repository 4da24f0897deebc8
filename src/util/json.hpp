#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace prpart::json {

/// Minimal JSON document model for the serving protocol and the CLI's
/// machine-readable output. Deliberately dependency-free, mirroring the
/// in-tree XML subset: objects preserve insertion order so that encoding is
/// deterministic (equal Values dump to identical bytes — the property the
/// content-addressed result cache and the byte-identity tests rely on).
class Value {
 public:
  enum class Type { Null, Bool, Uint, Int, Double, String, Array, Object };

  Value() : type_(Type::Null) {}
  Value(bool b) : type_(Type::Bool), bool_(b) {}
  Value(std::uint64_t u) : type_(Type::Uint), uint_(u) {}
  Value(std::int64_t i) : type_(Type::Int), int_(i) {}
  Value(int i) : type_(Type::Int), int_(i) {}
  Value(double d) : type_(Type::Double), double_(d) {}
  Value(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Value(const char* s) : type_(Type::String), string_(s) {}

  static Value array() {
    Value v;
    v.type_ = Type::Array;
    return v;
  }
  static Value object() {
    Value v;
    v.type_ = Type::Object;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const {
    return type_ == Type::Uint || type_ == Type::Int || type_ == Type::Double;
  }
  bool is_string() const { return type_ == Type::String; }
  bool is_object() const { return type_ == Type::Object; }

  /// Typed accessors throw ParseError on a type mismatch: protocol fields of
  /// the wrong shape surface as bad_request, never as a crash.
  bool as_bool() const;
  std::uint64_t as_u64() const;
  const std::string& as_string() const;

  /// Array access.
  const std::vector<Value>& items() const;
  void push_back(Value v);

  /// Object access (insertion-ordered).
  const std::vector<std::pair<std::string, Value>>& members() const;
  /// Adds or replaces `key`; replacement keeps the original position.
  void set(const std::string& key, Value v);
  /// Returns nullptr when absent (or when not an object).
  const Value* find(std::string_view key) const;
  /// Throws ParseError when absent.
  const Value& at(std::string_view key) const;

  bool operator==(const Value& other) const;

  /// Compact, deterministic serialisation (no whitespace, insertion-ordered
  /// object members). parse(dump(v)) == v for every value built here.
  std::string dump() const;

 private:
  Type type_;
  bool bool_ = false;
  std::uint64_t uint_ = 0;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Parses one JSON document (the full string must be consumed apart from
/// trailing whitespace). Throws ParseError with an offset on malformed
/// input. Non-negative integers parse as Uint, negative ones as Int, and
/// anything with a fraction or exponent as Double.
Value parse(std::string_view text);

/// Escapes `raw` as a JSON string literal including the quotes.
std::string escape(std::string_view raw);

}  // namespace prpart::json
