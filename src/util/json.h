#ifndef ANMAT_UTIL_JSON_H_
#define ANMAT_UTIL_JSON_H_

/// \file json.h
/// Minimal JSON value model, parser, and serializer.
///
/// The original ANMAT demo persists discovered PFDs in MongoDB; this
/// repository substitutes a JSON file-based rule store (see DESIGN.md §2),
/// for which this self-contained JSON implementation suffices. Supports the
/// full JSON grammar: `\uXXXX` escapes are decoded to UTF-8, including
/// surrogate pairs beyond the BMP (the escape pair `\uD83D\uDE00` decodes
/// to the 4-byte UTF-8 of U+1F600); lone or unpaired surrogates are a
/// parse error.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace anmat {

/// \brief A JSON value: null, bool, number, string, array, or object.
///
/// Objects preserve key insertion order (important for deterministic
/// serialization of rule files).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b) {
    JsonValue v;
    v.type_ = Type::kBool;
    v.bool_ = b;
    return v;
  }
  static JsonValue Number(double d) {
    JsonValue v;
    v.type_ = Type::kNumber;
    v.number_ = d;
    return v;
  }
  static JsonValue Int(int64_t i) { return Number(static_cast<double>(i)); }
  static JsonValue String(std::string s) {
    JsonValue v;
    v.type_ = Type::kString;
    v.string_ = std::move(s);
    return v;
  }
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
  /// A bare cast for numbers known to be integers: a fraction truncates,
  /// and a value outside int64_t's range is undefined behaviour. Read
  /// integers from input through `CheckedInt`.
  int64_t as_int() const { return static_cast<int64_t>(number_); }
  /// This number as an int64_t, or a parse error naming `key` unless it is
  /// a number that is integral and inside int64_t's range.
  Result<int64_t> CheckedInt(std::string_view key) const;
  const std::string& as_string() const { return string_; }

  /// Array access.
  size_t size() const { return array_.size(); }
  const JsonValue& at(size_t i) const { return array_.at(i); }
  void push_back(JsonValue v) { array_.push_back(std::move(v)); }
  const std::vector<JsonValue>& items() const { return array_; }

  /// Object access. `Get` returns nullptr if the key is absent.
  void Set(std::string key, JsonValue v);
  const JsonValue* Get(std::string_view key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return object_;
  }

  /// Typed object lookups with error statuses (for schema-checked loading).
  Result<std::string> GetString(std::string_view key) const;
  Result<int64_t> GetInt(std::string_view key) const;
  Result<double> GetDouble(std::string_view key) const;
  Result<bool> GetBool(std::string_view key) const;

  /// Serializes to compact JSON (no whitespace).
  std::string Dump() const;
  /// Serializes with 2-space indentation.
  std::string DumpPretty() const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// \brief Parses a complete JSON document; trailing garbage is an error.
Result<JsonValue> ParseJson(std::string_view text);

/// \brief Escapes `s` as a JSON string literal (with surrounding quotes).
std::string JsonEscape(std::string_view s);

}  // namespace anmat

#endif  // ANMAT_UTIL_JSON_H_
