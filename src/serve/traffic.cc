#include "serve/traffic.hh"

#include <cmath>
#include <set>
#include <sstream>

#include "sim/log.hh"
#include "sim/number.hh"
#include "sim/rng.hh"

namespace kelp {
namespace serve {

namespace {

/** Set a failure description and return nullopt (tryParse helper). */
std::optional<TrafficSpec>
parseError(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return std::nullopt;
}

const char *
shapeKey(TrafficSpec::Shape shape)
{
    switch (shape) {
      case TrafficSpec::Shape::Poisson: return "poisson";
      case TrafficSpec::Shape::Diurnal: return "diurnal";
      case TrafficSpec::Shape::Burst: return "burst";
    }
    return "poisson";
}

} // namespace

double
TrafficSpec::rateAt(sim::Time t) const
{
    switch (shape) {
      case Shape::Poisson:
        return qps;
      case Shape::Diurnal:
        return qps *
               (1.0 + diurnalAmp *
                          std::sin(2.0 * M_PI * t / diurnalPeriod));
      case Shape::Burst: {
        if (t < spikeStart)
            return qps;
        const double phase = std::fmod(t - spikeStart, spikePeriod);
        return phase < spikeLen ? qps * spikeFactor : qps;
      }
    }
    return qps;
}

std::string
TrafficSpec::toString() const
{
    const TrafficSpec def;
    std::ostringstream os;
    os << "shape=" << shapeKey(shape);
    auto field = [&](const char *key, double value, double defValue) {
        if (value == defValue) // kelp: allow(float-eq): canonical print must distinguish exact default values
            return;
        os << "," << key << "=" << sim::formatDouble(value);
    };
    field("qps", qps, def.qps);
    field("lowfrac", lowFrac, def.lowFrac);
    if (shape == Shape::Diurnal) {
        field("amp", diurnalAmp, def.diurnalAmp);
        field("period", diurnalPeriod, def.diurnalPeriod);
    } else if (shape == Shape::Burst) {
        field("factor", spikeFactor, def.spikeFactor);
        field("start", spikeStart, def.spikeStart);
        field("period", spikePeriod, def.spikePeriod);
        field("len", spikeLen, def.spikeLen);
    }
    return os.str();
}

std::optional<TrafficSpec>
TrafficSpec::tryParse(const std::string &spec, std::string *error)
{
    TrafficSpec out;
    bool haveShape = false;
    std::set<std::string> seen;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        size_t eq = item.find('=');
        if (eq == std::string::npos) {
            return parseError(error, "traffic spec item '" + item +
                                     "' needs key=value");
        }
        std::string key = item.substr(0, eq);
        std::string str = item.substr(eq + 1);
        if (!seen.insert(key).second) {
            return parseError(error, "traffic spec repeats key '" +
                                     key + "'");
        }
        if (key == "shape") {
            // The shape gates which numeric keys are legal, so it
            // must come first (canonical strings always print it
            // first).
            if (seen.size() != 1) {
                return parseError(error,
                                  "traffic spec key 'shape' must "
                                  "come first");
            }
            if (str == "poisson")
                out.shape = Shape::Poisson;
            else if (str == "diurnal")
                out.shape = Shape::Diurnal;
            else if (str == "burst")
                out.shape = Shape::Burst;
            else {
                return parseError(error, "unknown traffic shape '" +
                                         str +
                                         "' (poisson|diurnal|burst)");
            }
            haveShape = true;
            continue;
        }
        if (!haveShape) {
            return parseError(error,
                              "traffic spec key 'shape' must come "
                              "first");
        }
        std::optional<double> parsed = sim::parseDouble(str);
        if (!parsed) {
            return parseError(error, "traffic spec key '" + key +
                                     "' has bad value '" + str + "'");
        }
        const double value = *parsed;
        auto positive = [&](const char *what) {
            if (value > 0.0)
                return true;
            parseError(error, std::string("traffic spec key '") +
                              what + "' must be > 0, got '" + str +
                              "'");
            return false;
        };
        if (key == "qps") {
            if (!positive("qps"))
                return std::nullopt;
            out.qps = value;
        } else if (key == "lowfrac") {
            if (value < 0.0 || value > 1.0) {
                return parseError(error,
                                  "traffic spec key 'lowfrac' must "
                                  "be in [0, 1], got '" + str + "'");
            }
            out.lowFrac = value;
        } else if (key == "amp" && out.shape == Shape::Diurnal) {
            if (value < 0.0 || value >= 1.0) {
                return parseError(error,
                                  "traffic spec key 'amp' must be in "
                                  "[0, 1), got '" + str + "'");
            }
            out.diurnalAmp = value;
        } else if (key == "period" && out.shape == Shape::Diurnal) {
            if (!positive("period"))
                return std::nullopt;
            out.diurnalPeriod = value;
        } else if (key == "factor" && out.shape == Shape::Burst) {
            if (!positive("factor"))
                return std::nullopt;
            out.spikeFactor = value;
        } else if (key == "start" && out.shape == Shape::Burst) {
            if (value < 0.0) {
                return parseError(error,
                                  "traffic spec key 'start' must be "
                                  ">= 0, got '" + str + "'");
            }
            out.spikeStart = value;
        } else if (key == "period" && out.shape == Shape::Burst) {
            if (!positive("period"))
                return std::nullopt;
            out.spikePeriod = value;
        } else if (key == "len" && out.shape == Shape::Burst) {
            if (!positive("len"))
                return std::nullopt;
            out.spikeLen = value;
        } else {
            return parseError(error,
                              "traffic spec key '" + key +
                              "' is unknown or not valid for shape '" +
                              shapeKey(out.shape) +
                              "' (qps|lowfrac; diurnal: amp|period; "
                              "burst: factor|start|period|len)");
        }
    }
    if (!haveShape)
        return parseError(error, "traffic spec needs a 'shape' key");
    if (out.shape == Shape::Burst && out.spikeLen > out.spikePeriod) {
        return parseError(error,
                          "traffic spec 'len' must not exceed "
                          "'period'");
    }
    return out;
}

ArrivalGenerator::ArrivalGenerator(const TrafficSpec &spec,
                                   uint64_t seed)
    : spec_(spec), seed_(seed)
{
    KELP_EXPECTS(spec_.qps > 0.0, "arrival rate must be positive");
    prime();
}

void
ArrivalGenerator::prime()
{
    // All randomness behind arrival index_ comes from this one
    // derived stream: the unit-exponential gap first, the priority
    // class second. Regenerating any index from scratch reproduces
    // the exact same draws.
    sim::Rng rng = sim::Rng::derive(seed_, index_);
    const double rate = spec_.rateAt(lastTime_);
    KELP_ASSERT(rate > 0.0, "traffic shape produced a non-positive "
                            "arrival rate");
    nextTime_ = lastTime_ + rng.exponential(1.0) / rate;
    nextLow_ = rng.chance(spec_.lowFrac);
}

ArrivalGenerator::Arrival
ArrivalGenerator::next()
{
    Arrival a{nextTime_, index_, nextLow_};
    lastTime_ = nextTime_;
    ++index_;
    prime();
    return a;
}

} // namespace serve
} // namespace kelp
