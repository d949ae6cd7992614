#pragma once

// The JSON library of the tree: one value model with a parser and a
// renderer, plus the string escaping every writer of JSON shares — the
// serve protocol, the trace/metrics exporters and nf_lint's --json report.
//
// The value model is deliberately tiny: objects, arrays, strings, numbers,
// booleans, null.  Parsing failures are structured kInvalidArgument errors,
// never exceptions, so a malformed request line costs the daemon one error
// reply and the connection survives.

#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace neurfill {

/// Escapes `s` for embedding in a JSON string literal (no quotes added):
/// `"` and `\` are backslash-escaped, newline, carriage return and tab use
/// their short forms, every other control character becomes `\u00XX`.
std::string json_escape(const std::string& s);

/// Minimal JSON document node.  Object keys are kept in sorted order
/// (std::map) so rendering is deterministic.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;

  bool has(const std::string& key) const {
    return kind == Kind::kObject && object.count(key) != 0;
  }
  /// Typed field accessors with defaults; a missing key or a kind mismatch
  /// returns the fallback (the request validator reports absences).
  std::string get_string(const std::string& key,
                         const std::string& fallback = std::string()) const;
  double get_number(const std::string& key, double fallback = 0.0) const;
  bool get_bool(const std::string& key, bool fallback = false) const;
};

/// Parses one JSON document (the whole string must be consumed apart from
/// trailing whitespace).  Depth- and size-bounded: a hostile request cannot
/// recurse the parser to death.
[[nodiscard]] Expected<JsonValue> json_parse(const std::string& text);

/// Renders `v` compactly (no whitespace), escaping strings per RFC 8259.
std::string json_render(const JsonValue& v);

/// Convenience builders for document assembly.
JsonValue json_string(std::string s);
JsonValue json_number(double n);
JsonValue json_bool(bool b);
JsonValue json_object();

}  // namespace neurfill
