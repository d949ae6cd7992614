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
// The JSON value model is the tree's one (common/json.hpp); the names below
// keep it reachable as serve::JsonValue, serve::json_parse, ... for the
// daemon, its client and the benches.

#include <string>

#include "common/error.hpp"
#include "common/json.hpp"

namespace neurfill::serve {

using neurfill::JsonValue;
using neurfill::json_bool;
using neurfill::json_escape;
using neurfill::json_number;
using neurfill::json_object;
using neurfill::json_parse;
using neurfill::json_render;
using neurfill::json_string;

/// One-line error response: {"ok":false,"code":"<name>","error":"<full>"}.
std::string error_reply(const Error& err);

/// Minimal HTTP/1.0 response with Content-Length and Connection: close.
std::string http_response(int status, const std::string& content_type,
                          const std::string& body);

}  // namespace neurfill::serve
