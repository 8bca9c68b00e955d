// The one JSON string writer: every string the simulator puts into JSON
// output (result files, Chrome traces) goes through append_json_string, so
// a scenario or component name holding a quote, a backslash or a control
// character still yields a document any JSON parser accepts.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace panic {

/// Appends `s` to `out` as the body of a JSON string, without the quotes:
/// `"` and `\` are backslash-escaped, control characters become \n, \t,
/// \r, \b, \f or \u00XX, and every other byte (UTF-8 included) is copied.
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
inline void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  append_json_escaped(out, s);
  out += '"';
}

}  // namespace panic
