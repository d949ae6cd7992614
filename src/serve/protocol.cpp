#include "serve/protocol.hpp"

namespace neurfill::serve {

std::string error_reply(const Error& err) {
  JsonValue v = json_object();
  v.object["ok"] = json_bool(false);
  v.object["code"] = json_string(error_code_name(err.code));
  v.object["error"] = json_string(err.to_string());
  return json_render(v);
}

std::string http_response(int status, const std::string& content_type,
                          const std::string& body) {
  const char* reason = status == 200 ? "OK"
                       : status == 404 ? "Not Found"
                       : status == 400 ? "Bad Request"
                                       : "Internal Server Error";
  std::string out = "HTTP/1.0 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace neurfill::serve
