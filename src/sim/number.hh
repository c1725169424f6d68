/**
 * @file
 * The one number text format shared by every spec string and CLI
 * flag: shortest round-trip printing and strict parsing.
 *
 * formatDouble() renders the shortest decimal that parses back to
 * the exact same double, so printing a parsed value reproduces the
 * same bytes -- the property that makes FaultPlan, TrafficSpec and
 * ScenarioSpec strings canonical. parseDouble() and parseInt() accept
 * exactly one finite number and nothing else: no empty string, no
 * trailing text, no nan or inf, no overflow.
 */

#ifndef KELP_SIM_NUMBER_HH
#define KELP_SIM_NUMBER_HH

#include <charconv>
#include <optional>
#include <string>
#include <system_error>

namespace kelp {
namespace sim {

/** Shortest decimal form of @p v that parseDouble() reads back to
 * the exact same double. */
std::string formatDouble(double v);

/** Strict decimal parse (strtod grammar); nullopt on empty input,
 * trailing text, or a non-finite value. */
std::optional<double> parseDouble(const std::string &s);

/** Strict base-10 parse into the integer type T; nullopt on empty
 * input, a `+`, a `-` for an unsigned T, trailing text, or overflow. */
template <typename T>
std::optional<T>
parseInt(const std::string &s)
{
    T v{};
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (s.empty() || ec != std::errc() || ptr != end)
        return std::nullopt;
    return v;
}

} // namespace sim
} // namespace kelp

#endif // KELP_SIM_NUMBER_HH
