#include "sim/number.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace kelp {
namespace sim {

std::string
formatDouble(double v)
{
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::optional<double>
parseDouble(const std::string &s)
{
    // strtod accepts the empty string (it parses zero characters and
    // leaves end at the terminator), so reject it explicitly.
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
}

} // namespace sim
} // namespace kelp
