#include "hal/fault_injector.hh"

#include <set>
#include <sstream>

#include "sim/log.hh"
#include "sim/number.hh"

namespace kelp {
namespace hal {

bool
FaultPlan::any() const
{
    return dropProb > 0.0 || stuckProb > 0.0 || noiseProb > 0.0 ||
           spikeProb > 0.0 || knobFailProb > 0.0 ||
           knobDelayProb > 0.0;
}

namespace {

/** Set a failure description and return nullopt (tryParse helper). */
std::optional<FaultPlan>
parseError(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return std::nullopt;
}

} // namespace

std::optional<FaultPlan>
FaultPlan::tryParse(const std::string &spec, std::string *error)
{
    FaultPlan plan;
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
            return parseError(error, "fault spec item '" + item +
                                     "' needs key=value");
        }
        std::string key = item.substr(0, eq);
        std::string str = item.substr(eq + 1);
        if (!seen.insert(key).second) {
            return parseError(error, "fault spec repeats key '" + key +
                                     "'");
        }
        std::optional<double> parsed = sim::parseDouble(str);
        if (!parsed) {
            return parseError(error, "fault spec key '" + key +
                                     "' has bad value '" + str + "'");
        }
        const double value = *parsed;
        bool probability = true;
        if (key == "drop")
            plan.dropProb = value;
        else if (key == "stuck")
            plan.stuckProb = value;
        else if (key == "noise")
            plan.noiseProb = value;
        else if (key == "noisefrac") {
            plan.noiseFrac = value;
            probability = false;
            if (value < 0.0) {
                return parseError(error,
                                  "fault spec key 'noisefrac' must "
                                  "be >= 0, got '" + str + "'");
            }
        } else if (key == "spike")
            plan.spikeProb = value;
        else if (key == "spikescale") {
            plan.spikeScale = value;
            probability = false;
            if (value <= 0.0) {
                return parseError(error,
                                  "fault spec key 'spikescale' must "
                                  "be > 0, got '" + str + "'");
            }
        } else if (key == "knobfail")
            plan.knobFailProb = value;
        else if (key == "knobdelay")
            plan.knobDelayProb = value;
        else {
            return parseError(error,
                              "unknown fault spec key '" + key +
                              "' (drop|stuck|noise|noisefrac|spike|"
                              "spikescale|knobfail|knobdelay)");
        }
        if (probability && (value < 0.0 || value > 1.0)) {
            return parseError(error, "fault spec key '" + key +
                                     "' is a probability and must be "
                                     "in [0, 1], got '" + str + "'");
        }
    }
    return plan;
}

std::string
FaultPlan::toString() const
{
    const FaultPlan def;
    std::ostringstream os;
    auto field = [&](const char *key, double value, double defValue) {
        // Exact comparison is the point: a field is printed iff its
        // bits differ from the default-constructed plan.
        if (value == defValue) // kelp: allow(float-eq): canonical print must distinguish exact default values
            return;
        if (os.tellp() > 0)
            os << ",";
        os << key << "=" << sim::formatDouble(value);
    };
    field("drop", dropProb, def.dropProb);
    field("stuck", stuckProb, def.stuckProb);
    field("noise", noiseProb, def.noiseProb);
    field("noisefrac", noiseFrac, def.noiseFrac);
    field("spike", spikeProb, def.spikeProb);
    field("spikescale", spikeScale, def.spikeScale);
    field("knobfail", knobFailProb, def.knobFailProb);
    field("knobdelay", knobDelayProb, def.knobDelayProb);
    return os.str();
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    std::string error;
    std::optional<FaultPlan> plan = tryParse(spec, &error);
    if (!plan)
        sim::fatal(error);
    return *plan;
}

FaultyCounterSource::FaultyCounterSource(
    std::unique_ptr<CounterSource> inner, const FaultPlan &plan,
    sim::Rng rng)
    : inner_(std::move(inner)), plan_(plan), rng_(rng)
{
    KELP_ASSERT(inner_, "fault injector needs a backend source");
}

CounterSample
FaultyCounterSource::sample(sim::SocketId socket)
{
    // Always consume the inner read so the windowed cursors advance
    // exactly as they would without injection: a dropped read on real
    // hardware still advances the counter, it just loses the window.
    CounterSample clean = inner_->sample(socket);
    ++stats_.reads;

    if (rng_.chance(plan_.dropProb)) {
        ++stats_.drops;
        return CounterSample{};  // zeroed: the dropout signature
    }
    if (rng_.chance(plan_.stuckProb) && haveLast_[socket]) {
        ++stats_.stucks;
        return lastGood_[socket];
    }
    if (rng_.chance(plan_.noiseProb)) {
        ++stats_.noises;
        CounterSample s = clean;
        auto jitter = [this](double &x) {
            x *= 1.0 + rng_.uniform(-plan_.noiseFrac, plan_.noiseFrac);
        };
        jitter(s.socketBw);
        jitter(s.memLatency);
        jitter(s.saturation);
        for (int d = 0; d < 2; ++d) {
            jitter(s.subdomainBw[d]);
            jitter(s.subdomainLat[d]);
        }
        return s;
    }
    if (rng_.chance(plan_.spikeProb)) {
        ++stats_.spikes;
        CounterSample s = clean;
        switch (rng_.below(4)) {
          case 0:
            s.socketBw *= plan_.spikeScale;
            break;
          case 1:
            s.memLatency *= plan_.spikeScale;
            break;
          case 2:
            s.saturation *= plan_.spikeScale;
            break;
          case 3:
            s.subdomainBw[0] *= plan_.spikeScale;
            break;
        }
        return s;
    }

    lastGood_[socket] = clean;
    haveLast_[socket] = true;
    return clean;
}

FaultyKnobSink::FaultyKnobSink(KnobSink &inner, const FaultPlan &plan,
                               sim::Rng rng)
    : inner_(inner), plan_(plan), rng_(rng)
{
}

void
FaultyKnobSink::applyNow(const PendingWrite &w)
{
    switch (w.kind) {
      case PendingWrite::Kind::Cores:
        inner_.setCores(w.group, w.socket, w.sub, w.value);
        break;
      case PendingWrite::Kind::Prefetchers:
        inner_.setPrefetchersEnabled(w.group, w.value);
        break;
      case PendingWrite::Kind::CatWays:
        inner_.setCatWays(w.group, w.value);
        break;
    }
}

void
FaultyKnobSink::flush()
{
    for (const PendingWrite &w : delayed_)
        applyNow(w);
    delayed_.clear();
}

bool
FaultyKnobSink::submit(const PendingWrite &w)
{
    // Delayed writes land immediately before the next write reaches
    // the sink, preserving their original order.
    flush();
    ++stats_.writes;
    if (rng_.chance(plan_.knobFailProb)) {
        ++stats_.failures;
        return false;
    }
    if (rng_.chance(plan_.knobDelayProb)) {
        ++stats_.delays;
        delayed_.push_back(w);
        return true;
    }
    applyNow(w);
    return true;
}

bool
FaultyKnobSink::setCores(sim::GroupId group, sim::SocketId socket,
                         sim::SubdomainId sub, int count)
{
    return submit(
        {PendingWrite::Kind::Cores, group, socket, sub, count});
}

bool
FaultyKnobSink::setPrefetchersEnabled(sim::GroupId group, int count)
{
    return submit(
        {PendingWrite::Kind::Prefetchers, group, 0, 0, count});
}

bool
FaultyKnobSink::setCatWays(sim::GroupId group, int ways)
{
    return submit({PendingWrite::Kind::CatWays, group, 0, 0, ways});
}

} // namespace hal
} // namespace kelp
