#ifndef CRASHSIM_SERVE_JSON_H_
#define CRASHSIM_SERVE_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace crashsim {

// Minimal JSON value for the crashsim_serve wire protocol (docs/SERVING.md).
// Self-contained by design — the repo takes no third-party dependencies —
// and scoped to what the protocol needs: objects, arrays, strings, doubles,
// bools, null; UTF-8 pass-through with \uXXXX escapes decoded on parse.
// Numbers are stored as doubles (the protocol's ids fit in the 2^53 exact
// range; the loaders reject anything larger long before it gets here).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double d) : type_(Type::kNumber), number_(d) {}
  explicit JsonValue(int64_t i)
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  explicit JsonValue(std::string s)
      : type_(Type::kString), string_(std::move(s)) {}

  static JsonValue Array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  // Truncates toward zero, saturating outside the int64 range (NaN -> 0).
  int64_t as_int() const;
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }

  // Object access: insertion order is preserved on write. Returns nullptr
  // when the key is absent (or this is not an object).
  const JsonValue* Find(std::string_view key) const;
  void Set(std::string key, JsonValue value);
  void Append(JsonValue value) { items_.push_back(std::move(value)); }

  // Typed object getters with defaults — the shape the request handlers
  // want ("k absent -> 10"). A present-but-wrong-type field returns the
  // default too; handlers that must distinguish use Find().
  int64_t GetInt(std::string_view key, int64_t fallback) const;
  double GetDouble(std::string_view key, double fallback) const;
  bool GetBool(std::string_view key, bool fallback) const;
  std::string GetString(std::string_view key, std::string fallback) const;

  // Compact serialisation (no whitespace). Doubles render with enough
  // digits to round-trip (%.17g), trimmed when shorter forms are exact.
  std::string Write() const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;                          // arrays
  std::vector<std::pair<std::string, JsonValue>> members_;  // objects
};

// Strict parse of one JSON document (trailing garbage is an error).
// kInvalidArgument with byte offset + reason on malformed input; nesting is
// depth-limited so a hostile request cannot blow the stack.
[[nodiscard]] StatusOr<JsonValue> ParseJson(std::string_view text);

}  // namespace crashsim

#endif  // CRASHSIM_SERVE_JSON_H_
