#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace mfv::util {

Json& Json::operator[](std::string_view key) {
  auto& object = std::get<std::vector<JsonMember>>(value_);
  for (auto& [k, v] : object)
    if (k == key) return v;
  object.emplace_back(std::string(key), Json());
  return object.back().second;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : members())
    if (k == key) return &v;
  return nullptr;
}

namespace {

void escape_string(std::string& out, const std::string& text) {
  out += '"';
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

size_t json_int_length(int64_t value) {
  uint64_t magnitude = value < 0 ? 0 - static_cast<uint64_t>(value) : static_cast<uint64_t>(value);
  size_t length = value < 0 ? 2 : 1;
  for (; magnitude >= 10; magnitude /= 10) ++length;
  return length;
}

size_t json_string_length(std::string_view text) {
  size_t length = 2;
  for (char c : text) {
    switch (c) {
      case '"':
      case '\\':
      case '\n':
      case '\t':
      case '\r': length += 2; break;
      default: length += static_cast<unsigned char>(c) < 0x20 ? 6 : 1;
    }
  }
  return length;
}

namespace {

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type()) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += as_bool() ? "true" : "false"; break;
    case Type::kInt: out += std::to_string(std::get<int64_t>(value_)); break;
    case Type::kDouble: {
      double d = std::get<double>(value_);
      if (std::isfinite(d)) {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.17g", d);
        out += buffer;
      } else {
        out += "null";
      }
      break;
    }
    case Type::kString: escape_string(out, as_string()); break;
    case Type::kArray: {
      const auto& array = as_array();
      if (array.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (size_t i = 0; i < array.size(); ++i) {
        if (i != 0) out += ',';
        newline_indent(out, indent, depth + 1);
        array[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      const auto& object = members();
      if (object.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (size_t i = 0; i < object.size(); ++i) {
        if (i != 0) out += ',';
        newline_indent(out, indent, depth + 1);
        escape_string(out, object[i].first);
        out += indent > 0 ? ": " : ":";
        object[i].second.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, const JsonParseLimits& limits)
      : text_(text), limits_(limits) {}

  std::optional<Json> run() {
    if (limits_.max_bytes != 0 && text_.size() > limits_.max_bytes) {
      fail("input of " + std::to_string(text_.size()) + " bytes exceeds limit of " +
           std::to_string(limits_.max_bytes));
      return std::nullopt;
    }
    auto value = parse_value();
    if (!value) return std::nullopt;
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing garbage");
      return std::nullopt;
    }
    return value;
  }

  /// First error recorded during run(), as "<message> at byte <offset>".
  std::string error() const {
    return error_.empty() ? std::string("malformed JSON")
                          : error_ + " at byte " + std::to_string(error_pos_);
  }

 private:
  /// Records the first failure; later failures (unwinding) keep the
  /// original, most specific message.
  std::nullopt_t fail(std::string message) {
    if (error_.empty()) {
      error_ = std::move(message);
      error_pos_ = pos_;
    }
    return std::nullopt;
  }
  void skip_whitespace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }
  bool eat(char c) {
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Json> parse_value() {
    skip_whitespace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      return Json(std::move(*s));
    }
    if (literal("true")) return Json(true);
    if (literal("false")) return Json(false);
    if (literal("null")) return Json(nullptr);
    return parse_number();
  }

  bool enter() {
    if (depth_ >= limits_.max_depth) {
      fail("nesting exceeds depth limit of " + std::to_string(limits_.max_depth));
      return false;
    }
    ++depth_;
    return true;
  }

  std::optional<Json> parse_object() {
    if (!eat('{')) return fail("expected '{'");
    if (!enter()) return std::nullopt;
    Json object = Json::object();
    skip_whitespace();
    if (eat('}')) {
      --depth_;
      return object;
    }
    while (true) {
      skip_whitespace();
      auto key = parse_string();
      if (!key) return std::nullopt;
      if (!eat(':')) return fail("expected ':' after object key");
      auto value = parse_value();
      if (!value) return std::nullopt;
      object[*key] = std::move(*value);
      if (eat(',')) continue;
      if (eat('}')) {
        --depth_;
        return object;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  std::optional<Json> parse_array() {
    if (!eat('[')) return fail("expected '['");
    if (!enter()) return std::nullopt;
    Json array = Json::array();
    skip_whitespace();
    if (eat(']')) {
      --depth_;
      return array;
    }
    while (true) {
      auto value = parse_value();
      if (!value) return std::nullopt;
      array.push_back(std::move(*value));
      if (eat(',')) continue;
      if (eat(']')) {
        --depth_;
        return array;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  std::optional<std::string> parse_string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      fail("expected string");
      return std::nullopt;
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          fail("unterminated escape");
          return std::nullopt;
        }
        char escape = text_[pos_++];
        switch (escape) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return std::nullopt;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("invalid \\u escape digit");
                return std::nullopt;
              }
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
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
          default:
            fail("unknown escape character");
            return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> parse_number() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c == '.' || c == 'e' || c == 'E') is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") return fail("invalid value");
    if (!is_double) {
      int64_t value = 0;
      auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) return Json(value);
    }
    double value = 0;
    auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size())
      return fail("invalid number");
    return Json(value);
  }

  std::string_view text_;
  JsonParseLimits limits_;
  size_t pos_ = 0;
  size_t depth_ = 0;
  std::string error_;
  size_t error_pos_ = 0;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  return Parser(text, JsonParseLimits{}).run();
}

Result<Json> Json::parse_checked(std::string_view text, const JsonParseLimits& limits) {
  Parser parser(text, limits);
  auto value = parser.run();
  if (!value) return invalid_argument("JSON parse error: " + parser.error());
  return std::move(*value);
}

}  // namespace mfv::util
