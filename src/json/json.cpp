#include "json/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace loglens {

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::set(std::string_view key, Json value) {
  if (!is_object()) value_ = JsonObject{};
  for (auto& [k, v] : as_object()) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  as_object().emplace_back(std::string(key), std::move(value));
}

std::string_view Json::get_string(std::string_view key,
                                  std::string_view fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

int64_t Json::get_int(std::string_view key, int64_t fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_int() : fallback;
}

void json_escape(std::string_view s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void Json::dump_to(std::string& out) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_int()) {
    out += std::to_string(std::get<int64_t>(value_));
  } else if (is_double()) {
    double d = std::get<double>(value_);
    if (std::isfinite(d)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      out += buf;
    } else {
      out += "null";  // JSON has no Inf/NaN
    }
  } else if (is_string()) {
    json_escape(as_string(), out);
  } else if (is_array()) {
    out.push_back('[');
    bool first = true;
    for (const auto& v : as_array()) {
      if (!first) out.push_back(',');
      v.dump_to(out);
      first = false;
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [k, v] : as_object()) {
      if (!first) out.push_back(',');
      json_escape(k, out);
      out.push_back(':');
      v.dump_to(out);
      first = false;
    }
    out.push_back('}');
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<Json> parse() {
    skip_ws();
    auto v = parse_value();
    if (!v.ok()) return v;
    skip_ws();
    if (pos_ != text_.size()) {
      return StatusOr<Json>::Error("trailing characters at offset " +
                                   std::to_string(pos_));
    }
    return v;
  }

 private:
  StatusOr<Json> fail(const std::string& what) {
    return StatusOr<Json>::Error(what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  StatusOr<Json> parse_value() {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        auto s = parse_string();
        if (!s.ok()) return StatusOr<Json>(s.status());
        return Json(std::move(s.value()));
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          return Json(true);
        }
        return fail("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          return Json(false);
        }
        return fail("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          return Json(nullptr);
        }
        return fail("invalid literal");
      default:
        return parse_number();
    }
  }

  StatusOr<std::string> parse_string() {
    if (!consume('"')) {
      return StatusOr<std::string>::Error("expected '\"' at offset " +
                                          std::to_string(pos_));
    }
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char e = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) {
            return StatusOr<std::string>::Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return StatusOr<std::string>::Error("bad \\u escape");
          }
          // Encode as UTF-8 (surrogate pairs not recombined; logs are ASCII
          // in practice).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return StatusOr<std::string>::Error("bad escape character");
      }
    }
    return StatusOr<std::string>::Error("unterminated string");
  }

  StatusOr<Json> parse_number() {
    size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool is_double = false;
    if (consume('.')) {
      is_double = true;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    std::string_view num = text_.substr(start, pos_ - start);
    if (num.empty() || num == "-") return fail("invalid number");
    // dump() prints the double -0.0 as "-0"; reading that back as the
    // integer 0 would drop the sign, so it stays a double.
    if (!is_double && num != "-0") {
      int64_t v = 0;
      auto [p, ec] = std::from_chars(num.data(), num.data() + num.size(), v);
      if (ec == std::errc() && p == num.data() + num.size()) return Json(v);
    }
    double d = 0;
    auto [p, ec] = std::from_chars(num.data(), num.data() + num.size(), d);
    if (ec != std::errc() || p != num.data() + num.size()) {
      return fail("invalid number");
    }
    return Json(d);
  }

  StatusOr<Json> parse_array() {
    consume('[');
    JsonArray arr;
    skip_ws();
    if (consume(']')) return Json(std::move(arr));
    while (true) {
      skip_ws();
      auto v = parse_value();
      if (!v.ok()) return v;
      arr.push_back(std::move(v.value()));
      skip_ws();
      if (consume(']')) return Json(std::move(arr));
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  StatusOr<Json> parse_object() {
    consume('{');
    JsonObject obj;
    skip_ws();
    if (consume('}')) return Json(std::move(obj));
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key.ok()) return StatusOr<Json>(key.status());
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      auto v = parse_value();
      if (!v.ok()) return v;
      obj.emplace_back(std::move(key.value()), std::move(v.value()));
      skip_ws();
      if (consume('}')) return Json(std::move(obj));
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<Json> Json::parse(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace loglens
