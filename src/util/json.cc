#include "util/json.h"

#include <cmath>
#include <cstdio>

#include "util/string_util.h"

namespace anmat {

void JsonValue::Set(std::string key, JsonValue v) {
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(v));
}

const JsonValue* JsonValue::Get(std::string_view key) const {
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Result<std::string> JsonValue::GetString(std::string_view key) const {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    return Status::NotFound("missing JSON key: " + std::string(key));
  }
  if (!v->is_string()) {
    return Status::ParseError("JSON key is not a string: " + std::string(key));
  }
  return v->as_string();
}

Result<int64_t> JsonValue::GetInt(std::string_view key) const {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    return Status::NotFound("missing JSON key: " + std::string(key));
  }
  if (!v->is_number()) {
    return Status::ParseError("JSON key is not a number: " + std::string(key));
  }
  return v->CheckedInt(key);
}

Result<int64_t> JsonValue::CheckedInt(std::string_view key) const {
  // -2^63 and 2^63 are exact doubles, and every integral double in
  // [-2^63, 2^63) converts exactly; NaN fails both comparisons.
  constexpr double kLimit = 9223372036854775808.0;
  if (!is_number() || !(number_ >= -kLimit && number_ < kLimit) ||
      std::trunc(number_) != number_) {
    std::string message = "\"";
    message.append(key)
        .append("\" is not an integer in the int64 range: ")
        .append(Dump());
    return Status::ParseError(message);
  }
  return static_cast<int64_t>(number_);
}

Result<double> JsonValue::GetDouble(std::string_view key) const {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    return Status::NotFound("missing JSON key: " + std::string(key));
  }
  if (!v->is_number()) {
    return Status::ParseError("JSON key is not a number: " + std::string(key));
  }
  return v->as_number();
}

Result<bool> JsonValue::GetBool(std::string_view key) const {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    return Status::NotFound("missing JSON key: " + std::string(key));
  }
  if (!v->is_bool()) {
    return Status::ParseError("JSON key is not a bool: " + std::string(key));
  }
  return v->as_bool();
}

std::string JsonEscape(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

std::string FormatNumber(double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

}  // namespace

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<size_t>(indent) * (depth + 1), ' ')
                 : "";
  const std::string pad_close =
      indent > 0 ? std::string(static_cast<size_t>(indent) * depth, ' ') : "";
  const char* nl = indent > 0 ? "\n" : "";
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kNumber:
      out->append(FormatNumber(number_));
      break;
    case Type::kString:
      out->append(JsonEscape(string_));
      break;
    case Type::kArray: {
      if (array_.empty()) {
        out->append("[]");
        break;
      }
      out->append("[");
      out->append(nl);
      for (size_t i = 0; i < array_.size(); ++i) {
        out->append(pad);
        array_[i].DumpTo(out, indent, depth + 1);
        if (i + 1 < array_.size()) out->append(",");
        out->append(nl);
      }
      out->append(pad_close);
      out->append("]");
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out->append("{}");
        break;
      }
      out->append("{");
      out->append(nl);
      for (size_t i = 0; i < object_.size(); ++i) {
        out->append(pad);
        out->append(JsonEscape(object_[i].first));
        out->append(indent > 0 ? ": " : ":");
        object_[i].second.DumpTo(out, indent, depth + 1);
        if (i + 1 < object_.size()) out->append(",");
        out->append(nl);
      }
      out->append(pad_close);
      out->append("}");
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string JsonValue::DumpPretty() const {
  std::string out;
  DumpTo(&out, /*indent=*/2, /*depth=*/0);
  return out;
}

namespace {

/// Recursive-descent JSON parser over a string_view cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWhitespace();
    ANMAT_ASSIGN_OR_RETURN(JsonValue v, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  Status Error(const std::string& msg) {
    return Status::ParseError("JSON at offset " + std::to_string(pos_) + ": " +
                              msg);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        ANMAT_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::String(std::move(s));
      }
      case 't':
        return ParseKeyword("true", JsonValue::Bool(true));
      case 'f':
        return ParseKeyword("false", JsonValue::Bool(false));
      case 'n':
        return ParseKeyword("null", JsonValue::Null());
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseKeyword(std::string_view kw, JsonValue value) {
    if (text_.substr(pos_, kw.size()) != kw) {
      return Error("invalid literal");
    }
    pos_ += kw.size();
    return value;
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (IsDigit(text_[pos_]) || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    std::string token(text_.substr(start, pos_ - start));
    if (token.empty()) return Error("expected a value");
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Error("invalid number: " + token);
    }
    return JsonValue::Number(d);
  }

  /// Four hex digits of a \uXXXX escape (the cursor sits after the 'u').
  Result<unsigned> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return Error("bad hex digit in \\u escape");
      }
    }
    return code;
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            unsigned code;
            ANMAT_ASSIGN_OR_RETURN(code, ParseHex4());
            if (code >= 0xDC00 && code <= 0xDFFF) {
              return Error("lone low surrogate in \\u escape");
            }
            if (code >= 0xD800 && code <= 0xDBFF) {
              // High surrogate: it must pair with a following \uDC00..DFFF
              // low surrogate, combining into one astral code point.
              if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return Error("unpaired high surrogate in \\u escape");
              }
              pos_ += 2;
              unsigned low;
              ANMAT_ASSIGN_OR_RETURN(low, ParseHex4());
              if (low < 0xDC00 || low > 0xDFFF) {
                return Error("unpaired high surrogate in \\u escape");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
            // Encode the code point as UTF-8 (1-4 bytes).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else if (code < 0x10000) {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xF0 | (code >> 18));
              out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Error("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseArray(int depth) {
    Consume('[');
    JsonValue arr = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      SkipWhitespace();
      ANMAT_ASSIGN_OR_RETURN(JsonValue v, ParseValue(depth + 1));
      arr.push_back(std::move(v));
      SkipWhitespace();
      if (Consume(']')) return arr;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    Consume('{');
    JsonValue obj = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      ANMAT_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' in object");
      SkipWhitespace();
      ANMAT_ASSIGN_OR_RETURN(JsonValue v, ParseValue(depth + 1));
      obj.Set(std::move(key), std::move(v));
      SkipWhitespace();
      if (Consume('}')) return obj;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace anmat
