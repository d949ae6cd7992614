#pragma once

// JSON text helpers shared by every writer of JSON in the tree: the serve
// protocol, the trace/metrics exporters and nf_lint's --json report.

#include <string>

namespace neurfill {

/// Escapes `s` for embedding in a JSON string literal (no quotes added):
/// `"` and `\` are backslash-escaped, newline, carriage return and tab use
/// their short forms, every other control character becomes `\u00XX`.
std::string json_escape(const std::string& s);

}  // namespace neurfill
