#include "exp/spec.hh"

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <type_traits>
#include <vector>

#include "sim/number.hh"

namespace kelp {
namespace exp {

namespace {

// ---------------------------------------------------------------
// Enum key tables: the single spelling of every enum value, read
// both to print and to parse.

template <typename E>
struct EnumKey
{
    E value;
    const char *key;
};

constexpr EnumKey<wl::MlWorkload> kMlKeys[] = {
    {wl::MlWorkload::Rnn1, "rnn1"},
    {wl::MlWorkload::Cnn1, "cnn1"},
    {wl::MlWorkload::Cnn2, "cnn2"},
    {wl::MlWorkload::Cnn3, "cnn3"},
};

constexpr EnumKey<ConfigKind> kConfigKeys[] = {
    {ConfigKind::BL, "bl"},
    {ConfigKind::CT, "ct"},
    {ConfigKind::KPSD, "kpsd"},
    {ConfigKind::KP, "kp"},
    {ConfigKind::FG, "fg"},
};

constexpr EnumKey<std::optional<wl::CpuWorkload>> kCpuKeys[] = {
    {std::nullopt, "none"},
    {wl::CpuWorkload::Stream, "stream"},
    {wl::CpuWorkload::Stitch, "stitch"},
    {wl::CpuWorkload::Cpuml, "cpuml"},
    {wl::CpuWorkload::LlcAggressor, "llc"},
    {wl::CpuWorkload::DramAggressor, "dram"},
};

constexpr EnumKey<wl::AggressorLevel> kLevelKeys[] = {
    {wl::AggressorLevel::Low, "low"},
    {wl::AggressorLevel::Medium, "medium"},
    {wl::AggressorLevel::High, "high"},
};

template <typename E, size_t N>
const char *
keyOf(const EnumKey<E> (&table)[N], const E &value)
{
    for (const EnumKey<E> &e : table) {
        if (e.value == value)
            return e.key;
    }
    return "?";
}

template <typename E, size_t N>
std::string
choices(const EnumKey<E> (&table)[N])
{
    std::string out;
    for (const EnumKey<E> &e : table) {
        if (!out.empty())
            out += '|';
        out += e.key;
    }
    return out;
}

// ---------------------------------------------------------------
// The key table. Each entry prints its field of a RunConfig and
// parses it back, leaving an explanation in `err` on a bad value.

enum class Kind { Bool, Number, Text };

struct Key
{
    const char *name;
    Kind kind;
    std::string help;
    std::function<std::string(const RunConfig &)> print;
    std::function<bool(const std::string &, RunConfig &, std::string &)>
        parse;
};

/** An accepted numeric interval; `open` excludes the lower bound. */
struct Range
{
    double lo;
    double hi;
    bool open = false;

    bool contains(double v) const
    {
        return (open ? v > lo : v >= lo) && v <= hi;
    }

    std::string text() const
    {
        std::string out = open ? "(" : "[";
        out += sim::formatDouble(lo) + ", " + sim::formatDouble(hi);
        out += ']';
        return out;
    }
};

// Field accessors are generic lambdas `[](auto &c) -> auto & {...}`,
// so one accessor serves the const printer and the mutating parser.

template <typename E, size_t N, typename Field>
Key
enumKey(const char *name, const char *what,
        const EnumKey<E> (&table)[N], Field field)
{
    return {name, Kind::Text, std::string(what) + ": " + choices(table),
            [&table, field](const RunConfig &c) {
                return std::string(keyOf(table, field(c)));
            },
            [&table, what, field](const std::string &v, RunConfig &c,
                                  std::string &err) {
                for (const EnumKey<E> &e : table) {
                    if (v == e.key) {
                        field(c) = e.value;
                        return true;
                    }
                }
                err = std::string("unknown ") + what + " '" + v +
                      "' (" + choices(table) + ")";
                return false;
            }};
}

template <typename Field>
Key
boolKey(const char *name, const char *help, Field field)
{
    return {name, Kind::Bool, help,
            [field](const RunConfig &c) {
                return std::string(field(c) ? "true" : "false");
            },
            [field](const std::string &v, RunConfig &c,
                    std::string &err) {
                if (v != "true" && v != "false") {
                    err = "bad boolean '" + v + "' (true|false)";
                    return false;
                }
                field(c) = v == "true";
                return true;
            }};
}

std::string
numberText(double v)
{
    return sim::formatDouble(v);
}

template <typename T>
std::string
numberText(T v)
{
    return std::to_string(v);
}

/** A number key; the field's type (double, int or uint64_t) picks
 * the parser. */
template <typename Field>
Key
numberKey(const char *name, const char *help, Range range, Field field)
{
    return {name, Kind::Number, help,
            [field](const RunConfig &c) { return numberText(field(c)); },
            [range, field](const std::string &v, RunConfig &c,
                           std::string &err) {
                using T = std::remove_reference_t<decltype(field(c))>;
                std::optional<T> n;
                if constexpr (std::is_floating_point_v<T>)
                    n = sim::parseDouble(v);
                else
                    n = sim::parseInt<T>(v);
                if (!n) {
                    err = "bad number '" + v + "'";
                    return false;
                }
                if (!range.contains(static_cast<double>(*n))) {
                    err = "out of range " + range.text();
                    return false;
                }
                field(c) = *n;
                return true;
            }};
}

/** Seeds take any uint64_t. */
constexpr Range kAnySeed{0.0, std::numeric_limits<double>::infinity()};

/** The full kill schedule (killAt folded in), sorted. */
std::vector<sim::Time>
killSchedule(const RunConfig &cfg)
{
    std::vector<sim::Time> kills;
    if (cfg.killAt > 0.0)
        kills.push_back(cfg.killAt);
    kills.insert(kills.end(), cfg.kills.begin(), cfg.kills.end());
    std::sort(kills.begin(), kills.end());
    return kills;
}

Key
killsKey()
{
    return {"kills", Kind::Text,
            "controller crash + restart times, s, comma-separated "
            "(empty = never)",
            [](const RunConfig &c) {
                std::string out;
                for (sim::Time t : killSchedule(c)) {
                    if (!out.empty())
                        out += ',';
                    out += sim::formatDouble(t);
                }
                return out;
            },
            [](const std::string &v, RunConfig &c, std::string &err) {
                c.killAt = 0.0;
                c.kills.clear();
                size_t pos = 0;
                while (pos < v.size()) {
                    size_t comma = v.find(',', pos);
                    if (comma == std::string::npos)
                        comma = v.size();
                    std::string item = v.substr(pos, comma - pos);
                    pos = comma + 1;
                    std::optional<double> t = sim::parseDouble(item);
                    if (!t) {
                        err = "bad number '" + item + "'";
                        return false;
                    }
                    if (!(*t > 0.0)) {
                        err = "kill times must be positive";
                        return false;
                    }
                    c.kills.push_back(*t);
                }
                return true;
            }};
}

Key
trafficKey()
{
    return {"traffic", Kind::Text,
            "open-loop request traffic spec, e.g. shape=poisson,qps=300 "
            "or shape=burst,qps=300,factor=8 (empty = closed-loop ML "
            "task, the paper's setup)",
            [](const RunConfig &c) {
                return c.serving.enabled ? c.serving.traffic.toString()
                                         : std::string();
            },
            [](const std::string &v, RunConfig &c, std::string &err) {
                c.serving.enabled = !v.empty();
                if (v.empty())
                    return true;
                std::optional<serve::TrafficSpec> traffic =
                    serve::TrafficSpec::tryParse(v, &err);
                if (!traffic)
                    return false;
                c.serving.traffic = *traffic;
                return true;
            }};
}

Key
faultsKey()
{
    return {"faults", Kind::Text,
            "HAL fault plan, e.g. drop=0.1,stuck=0.05,noise=0.1,"
            "spike=0.02,knobfail=0.2,knobdelay=0.1 (empty = no faults)",
            [](const RunConfig &c) { return c.faults.toString(); },
            [](const std::string &v, RunConfig &c, std::string &err) {
                std::optional<hal::FaultPlan> plan =
                    hal::FaultPlan::tryParse(v, &err);
                if (!plan)
                    return false;
                c.faults = *plan;
                return true;
            }};
}

/** Every key, in canonical print order. */
const std::vector<Key> &
keys()
{
    static const std::vector<Key> table = {
        enumKey("ml", "ml workload", kMlKeys,
                [](auto &c) -> auto & { return c.ml; }),
        enumKey("config", "runtime config", kConfigKeys,
                [](auto &c) -> auto & { return c.config; }),
        enumKey("cpu", "colocated cpu workload", kCpuKeys,
                [](auto &c) -> auto & { return c.cpu; }),
        numberKey("instances", "CPU workload instances", {0, 64},
                  [](auto &c) -> auto & { return c.cpuInstances; }),
        numberKey("threads", "CPU thread-count override (0 = auto)",
                  {0, 1024},
                  [](auto &c) -> auto & { return c.cpuThreadsOverride; }),
        enumKey("level", "dram aggressor level", kLevelKeys,
                [](auto &c) -> auto & { return c.aggressorLevel; }),
        trafficKey(),
        numberKey("warmup", "warmup simulated seconds", {0.0, 1e6},
                  [](auto &c) -> auto & { return c.warmup; }),
        numberKey("measure", "measured simulated seconds",
                  {0.0, 1e6, true},
                  [](auto &c) -> auto & { return c.measure; }),
        numberKey("period", "controller sampling period, s",
                  {0.0, 1e4, true},
                  [](auto &c) -> auto & { return c.samplePeriod; }),
        numberKey("seed", "random seed", kAnySeed,
                  [](auto &c) -> auto & { return c.seed; }),
        faultsKey(),
        numberKey("fault-seed", "fault-injection random seed", kAnySeed,
                  [](auto &c) -> auto & { return c.faultSeed; }),
        boolKey("hardened",
                "controller hardening and the fail-safe watchdog "
                "under faults (false = naive controller)",
                [](auto &c) -> auto & { return c.hardened; }),
        boolKey("churn",
                "dynamic colocation churn: seeded task arrival/"
                "departure/crash events mid-run",
                [](auto &c) -> auto & { return c.churn.enabled; }),
        numberKey("churn-rate", "mean churn arrivals per second",
                  {0.0, 1e3, true},
                  [](auto &c) -> auto & { return c.churn.arrivalRate; }),
        numberKey("churn-life", "churned task lifetime multiplier",
                  {0.0, 1e3, true},
                  [](auto &c) -> auto & { return c.churn.lifetimeScale; }),
        numberKey("churn-crash", "probability a churned task crashes",
                  {0.0, 1.0},
                  [](auto &c) -> auto & { return c.churn.crashProb; }),
        numberKey("churn-max", "max concurrently-live churned tasks",
                  {1, 64},
                  [](auto &c) -> auto & { return c.churn.maxLive; }),
        numberKey("churn-seed", "churn random seed", kAnySeed,
                  [](auto &c) -> auto & { return c.churn.seed; }),
        numberKey("churn-check", "churn event poll period, s",
                  {0.0, 1e3, true},
                  [](auto &c) -> auto & { return c.churn.checkPeriod; }),
        killsKey(),
        boolKey("slo", "arm the SLO degradation ladder (kp/kpsd)",
                [](auto &c) -> auto & { return c.slo.enabled; }),
        numberKey("slo-floor", "SLO floor: min acceptable ML perf ratio",
                  {0.0, 1.0, true},
                  [](auto &c) -> auto & { return c.slo.minPerfRatio; }),
        numberKey("slo-escalate",
                  "consecutive violating samples per SLO escalation",
                  {1, 1000},
                  [](auto &c) -> auto & { return c.slo.escalateAfter; }),
        numberKey("slo-deescalate",
                  "consecutive healthy samples per SLO de-escalation",
                  {1, 1000},
                  [](auto &c) -> auto & { return c.slo.deescalateAfter; }),
    };
    return table;
}

const Key *
findKey(const std::string &name)
{
    for (const Key &k : keys()) {
        if (name == k.name)
            return &k;
    }
    return nullptr;
}

std::string
trimmedCopy(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

} // namespace

const char *
configKey(ConfigKind kind)
{
    return keyOf(kConfigKeys, kind);
}

std::string
ScenarioSpec::toString() const
{
    std::ostringstream os;
    for (const Key &k : keys())
        os << k.name << "=" << k.print(cfg) << "\n";
    return os.str();
}

std::optional<ScenarioSpec>
ScenarioSpec::tryParse(const std::string &text, std::string *error)
{
    ScenarioSpec spec;
    std::set<std::string> seen;

    auto fail = [&](int line, const std::string &what)
        -> std::optional<ScenarioSpec> {
        if (error) {
            *error = "spec line " + std::to_string(line) + ": " + what;
        }
        return std::nullopt;
    };

    std::istringstream is(text);
    std::string raw;
    int lineNo = 0;
    while (std::getline(is, raw)) {
        ++lineNo;
        std::string line = trimmedCopy(raw);
        if (line.empty() || line[0] == '#')
            continue;
        size_t eq = line.find('=');
        if (eq == std::string::npos || eq == 0)
            return fail(lineNo, "expected key=value, got '" + line +
                                "'");
        std::string key = trimmedCopy(line.substr(0, eq));
        std::string value = trimmedCopy(line.substr(eq + 1));
        if (!seen.insert(key).second)
            return fail(lineNo, "duplicate key '" + key + "'");
        const Key *k = findKey(key);
        if (!k)
            return fail(lineNo, "unknown key '" + key + "'");
        std::string err;
        if (!k->parse(value, spec.cfg, err))
            return fail(lineNo, key + ": " + err);
    }
    return spec;
}

void
ScenarioSpec::addFlags(sim::Options &opts) const
{
    for (const Key &k : keys()) {
        if (k.kind == Kind::Bool) {
            opts.addBool(k.name, k.print(cfg) == "true", k.help);
        } else {
            opts.addString(k.name, k.print(cfg), k.help,
                           k.kind == Kind::Number ? "num" : "string");
        }
    }
}

std::optional<ScenarioSpec>
ScenarioSpec::fromFlags(const sim::Options &opts, std::string *error)
{
    std::string text;
    for (const Key &k : keys()) {
        text += std::string(k.name) + "=";
        if (k.kind == Kind::Bool)
            text += opts.getBool(k.name) ? "true" : "false";
        else
            text += opts.getString(k.name);
        text += "\n";
    }
    return tryParse(text, error);
}

bool
ScenarioSpec::operator==(const ScenarioSpec &o) const
{
    return toString() == o.toString();
}

bool
ScenarioSpec::operator!=(const ScenarioSpec &o) const
{
    return !(*this == o);
}

} // namespace exp
} // namespace kelp
