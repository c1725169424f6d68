#include "trace/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdint>

namespace kelp {
namespace trace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
jsonString(const std::string &s)
{
    // Appending in place: GCC 12 at -O3 flags the equivalent
    // `"\"" + jsonEscape(s) + "\""` with a false -Wrestrict.
    std::string out = "\"";
    out += jsonEscape(s);
    out += '"';
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    // Counts, knob settings, and whole-second times dominate the
    // exports; print them as integers for readability.
    if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace trace
} // namespace kelp
