#pragma once

// Wire protocol of the nf_serve daemon (docs/serving.md).
//
// Two surfaces share one TCP port:
//  * line-delimited JSON commands — one request object per line, one
//    response object per line, pipelining allowed ({"op":"submit",...},
//    {"op":"status","id":...}, {"op":"cancel","id":...}, {"op":"ping"});
//  * a minimal HTTP/1.0 GET surface for observability (`/metrics`,
//    `/healthz`, `/jobs/<id>`) so a browser or curl can watch a live
//    daemon without a JSON client.
//
// The JSON value model here is deliberately tiny: objects, arrays, strings,
// numbers, booleans, null — everything the job protocol needs and nothing
// more.  Parsing failures are structured kInvalidArgument errors, never
// exceptions, so a malformed request line costs one error reply and the
// connection survives.

#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace neurfill::serve {

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

/// Escapes `s` for embedding in a JSON string literal (common/json.hpp).
using neurfill::json_escape;

/// Convenience builders for response assembly.
JsonValue json_string(std::string s);
JsonValue json_number(double n);
JsonValue json_bool(bool b);
JsonValue json_object();

/// One-line error response: {"ok":false,"code":"<name>","error":"<full>"}.
std::string error_reply(const Error& err);

/// Minimal HTTP/1.0 response with Content-Length and Connection: close.
std::string http_response(int status, const std::string& content_type,
                          const std::string& body);

}  // namespace neurfill::serve
