#pragma once

/// The one JSON string escaper every JSON emitter in the tree uses (serve's
/// Json::dump, the prove / wcet / commcheck reports, bladed-bench-v1).

#include <string>
#include <string_view>

namespace bladed {

/// Append `s` to `out` as a quoted JSON string: `"` and `\` backslashed,
/// control characters as \b \f \n \r \t or \u00XX, every other byte
/// (UTF-8 included) passed through.
void append_json_string(std::string& out, std::string_view s);

/// `s` as a quoted JSON string (see append_json_string).
[[nodiscard]] std::string json_string(std::string_view s);

}  // namespace bladed
