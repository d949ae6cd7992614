#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace neurfill {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

constexpr int kMaxDepth = 16;  // the tree's documents nest 2-4 levels deep

struct Parser {
  const std::string& s;
  std::size_t pos = 0;
  bool failed = false;
  std::string why;

  void fail(std::string message) {
    if (!failed) {
      failed = true;
      why = std::move(message) + " at byte " + std::to_string(pos);
    }
  }
  void skip_ws() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t' ||
                              s[pos] == '\r' || s[pos] == '\n'))
      ++pos;
  }
  bool eat(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    std::size_t i = 0;
    while (word[i] != '\0') {
      if (pos + i >= s.size() || s[pos + i] != word[i]) return false;
      ++i;
    }
    pos += i;
    return true;
  }

  JsonValue value(int depth) {
    JsonValue v;
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return v;
    }
    skip_ws();
    if (pos >= s.size()) {
      fail("unexpected end of input");
      return v;
    }
    const char c = s[pos];
    if (c == '{') return object(depth);
    if (c == '[') return array(depth);
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.string = string_body();
      return v;
    }
    if (literal("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (literal("false")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = false;
      return v;
    }
    if (literal("null")) return v;
    return number_value();
  }

  JsonValue object(int depth) {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    eat('{');
    skip_ws();
    if (eat('}')) return v;
    while (!failed) {
      skip_ws();
      if (pos >= s.size() || s[pos] != '"') {
        fail("expected object key");
        break;
      }
      std::string key = string_body();
      if (!eat(':')) {
        fail("expected ':' after key");
        break;
      }
      v.object[key] = value(depth + 1);
      if (eat(',')) continue;
      if (eat('}')) break;
      fail("expected ',' or '}'");
    }
    return v;
  }

  JsonValue array(int depth) {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    eat('[');
    skip_ws();
    if (eat(']')) return v;
    while (!failed) {
      v.array.push_back(value(depth + 1));
      if (eat(',')) continue;
      if (eat(']')) break;
      fail("expected ',' or ']'");
    }
    return v;
  }

  std::string string_body() {
    std::string out;
    ++pos;  // opening quote
    while (pos < s.size()) {
      const char c = s[pos++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos >= s.size()) break;
        const char e = s[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            // Basic-multilingual-plane escapes only; enough for the paths,
            // method names and span names the tree's documents carry.
            // Encoded as UTF-8.
            if (pos + 4 > s.size()) {
              fail("truncated \\u escape");
              return out;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("bad \\u escape digit");
                return out;
              }
            }
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
            fail("unknown escape");
            return out;
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
    return out;
  }

  JsonValue number_value() {
    JsonValue v;
    const char* start = s.c_str() + pos;
    char* end = nullptr;
    const double d = std::strtod(start, &end);
    if (end == start || !std::isfinite(d)) {
      fail("expected a JSON value");
      return v;
    }
    pos += static_cast<std::size_t>(end - start);
    v.kind = JsonValue::Kind::kNumber;
    v.number = d;
    return v;
  }
};

void render_to(const JsonValue& v, std::string& out) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      out += "null";
      break;
    case JsonValue::Kind::kBool:
      out += v.boolean ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber: {
      char buf[32];
      // Integral values render without a fraction so ids/counters stay
      // readable; everything else gets round-trippable precision.
      if (v.number == static_cast<double>(static_cast<long long>(v.number)) &&
          std::abs(v.number) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v.number));
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v.number);
      }
      out += buf;
      break;
    }
    case JsonValue::Kind::kString:
      out += '"';
      out += json_escape(v.string);
      out += '"';
      break;
    case JsonValue::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& kv : v.object) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += json_escape(kv.first);
        out += "\":";
        render_to(kv.second, out);
      }
      out += '}';
      break;
    }
    case JsonValue::Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i != 0) out += ',';
        render_to(v.array[i], out);
      }
      out += ']';
      break;
    }
  }
}

}  // namespace

std::string JsonValue::get_string(const std::string& key,
                                  const std::string& fallback) const {
  const auto it = object.find(key);
  if (it == object.end() || it->second.kind != Kind::kString) return fallback;
  return it->second.string;
}

double JsonValue::get_number(const std::string& key, double fallback) const {
  const auto it = object.find(key);
  if (it == object.end() || it->second.kind != Kind::kNumber) return fallback;
  return it->second.number;
}

bool JsonValue::get_bool(const std::string& key, bool fallback) const {
  const auto it = object.find(key);
  if (it == object.end() || it->second.kind != Kind::kBool) return fallback;
  return it->second.boolean;
}

[[nodiscard]] Expected<JsonValue> json_parse(const std::string& text) {
  Parser p{text, 0, false, std::string()};
  JsonValue v = p.value(0);
  p.skip_ws();
  if (!p.failed && p.pos != text.size()) p.fail("trailing bytes after value");
  if (p.failed)
    return Error(ErrorCode::kInvalidArgument, "json",
                 "malformed JSON: " + p.why);
  return v;
}

std::string json_render(const JsonValue& v) {
  std::string out;
  render_to(v, out);
  return out;
}

JsonValue json_string(std::string s) {
  JsonValue v;
  v.kind = JsonValue::Kind::kString;
  v.string = std::move(s);
  return v;
}

JsonValue json_number(double n) {
  JsonValue v;
  v.kind = JsonValue::Kind::kNumber;
  v.number = n;
  return v;
}

JsonValue json_bool(bool b) {
  JsonValue v;
  v.kind = JsonValue::Kind::kBool;
  v.boolean = b;
  return v;
}

JsonValue json_object() {
  JsonValue v;
  v.kind = JsonValue::Kind::kObject;
  return v;
}

}  // namespace neurfill
