#include "util/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/error.h"

namespace specnoc::util {

namespace {

[[noreturn]] void kind_error(const char* wanted, Json::Kind got) {
  throw ConfigError(std::string("JSON value is not ") + wanted + " (kind " +
                    std::to_string(static_cast<int>(got)) + ")");
}

}  // namespace

void Json::range_error(const std::string& value) {
  throw ConfigError("JSON integer " + value + " is out of range for its field");
}

Json Json::array() {
  Json value;
  value.kind_ = Kind::kArray;
  return value;
}

Json Json::object() {
  Json value;
  value.kind_ = Kind::kObject;
  return value;
}

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("a bool", kind_);
  return bool_;
}

double Json::as_double() const {
  switch (kind_) {
    case Kind::kDouble: return double_;
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kUint: return static_cast<double>(uint_);
    case Kind::kNull: return std::numeric_limits<double>::quiet_NaN();
    default: kind_error("a number", kind_);
  }
}

std::int64_t Json::as_i64() const {
  switch (kind_) {
    case Kind::kInt: return int_;
    case Kind::kUint:
      if (uint_ > static_cast<std::uint64_t>(
                      std::numeric_limits<std::int64_t>::max())) {
        throw ConfigError("JSON integer out of int64 range");
      }
      return static_cast<std::int64_t>(uint_);
    default: kind_error("an integer", kind_);
  }
}

std::uint64_t Json::as_u64() const {
  switch (kind_) {
    case Kind::kUint: return uint_;
    case Kind::kInt:
      if (int_ < 0) throw ConfigError("JSON integer is negative");
      return static_cast<std::uint64_t>(int_);
    default: kind_error("an unsigned integer", kind_);
  }
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) kind_error("a string", kind_);
  return string_;
}

const std::vector<Json>& Json::items() const {
  if (kind_ != Kind::kArray) kind_error("an array", kind_);
  return array_;
}

void Json::push_back(Json value) {
  if (kind_ != Kind::kArray) kind_error("an array", kind_);
  array_.push_back(std::move(value));
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (kind_ != Kind::kObject) kind_error("an object", kind_);
  return object_;
}

void Json::set(std::string key, Json value) {
  if (kind_ != Kind::kObject) kind_error("an object", kind_);
  for (auto& member : object_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::kObject) kind_error("an object", kind_);
  for (const auto& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* value = find(key);
  if (value == nullptr) {
    throw ConfigError("JSON object has no key '" + std::string(key) + "'");
  }
  return *value;
}

std::string format_double(double value) {
  if (!std::isfinite(value)) {
    // Callers embedding doubles in keys still need *something* canonical;
    // the JSON writer handles non-finite separately (emits null).
    return std::isnan(value) ? "nan" : (value > 0 ? "inf" : "-inf");
  }
  char buffer[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

namespace {

void write_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void write_value(const Json& value, std::string& out) {
  switch (value.kind()) {
    case Json::Kind::kNull: out += "null"; break;
    case Json::Kind::kBool: out += value.as_bool() ? "true" : "false"; break;
    case Json::Kind::kDouble: {
      const double d = value.as_double();
      if (!std::isfinite(d)) {
        out += "null";  // JSON has no NaN/Inf; parses back as NaN
      } else {
        out += format_double(d);
      }
      break;
    }
    case Json::Kind::kInt: out += std::to_string(value.as_i64()); break;
    case Json::Kind::kUint: out += std::to_string(value.as_u64()); break;
    case Json::Kind::kString: write_string(value.as_string(), out); break;
    case Json::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const auto& item : value.items()) {
        if (!first) out += ',';
        first = false;
        write_value(item, out);
      }
      out += ']';
      break;
    }
    case Json::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) out += ',';
        first = false;
        write_string(key, out);
        out += ':';
        write_value(member, out);
      }
      out += '}';
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ConfigError("JSON parse error at offset " + std::to_string(pos_) +
                      ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json(parse_string());
    if (consume_literal("null")) return Json();
    if (consume_literal("true")) return Json(true);
    if (consume_literal("false")) return Json(false);
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  Json parse_object() {
    expect('{');
    Json object = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      object.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return object;
    }
  }

  Json parse_array() {
    expect('[');
    Json array = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return array;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // The writer only emits \u for control characters; decode the
          // BMP code point as UTF-8 for general inputs.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    bool is_integer = true;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' ||
                 ((c == '+' || c == '-') && pos_ > start &&
                  (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E'))) {
        is_integer = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") fail("malformed number");
    char* end = nullptr;
    if (is_integer) {
      // "-0" can only come from the shortest-form writer serializing the
      // double -0.0 (integer zero prints as "0"); keep the sign bit.
      if (token == "-0") return Json(-0.0);
      errno = 0;
      if (token[0] == '-') {
        const long long v = std::strtoll(token.c_str(), &end, 10);
        if (errno != 0 || end != token.c_str() + token.size()) {
          fail("integer out of range");
        }
        return Json(static_cast<std::int64_t>(v));
      }
      const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
      if (errno != 0 || end != token.c_str() + token.size()) {
        fail("integer out of range");
      }
      return Json(static_cast<std::uint64_t>(v));
    }
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string json_write(const Json& value) {
  std::string out;
  write_value(value, out);
  return out;
}

Json json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace specnoc::util
