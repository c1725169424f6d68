/**
 * @file
 * Open-loop traffic shapes as canonical spec strings.
 *
 * A TrafficSpec describes a request-arrival process for the serving
 * layer: a homogeneous Poisson stream ("poisson"), a sinusoidal
 * day/night rate swing ("diurnal"), or a base rate with periodic
 * multiplicative spikes ("burst"). Specs round-trip through a
 * canonical string form -- `parse(toString())` is the identity and
 * `toString(parse(s))` is a fixpoint -- which makes them usable as
 * CLI flags, fuzz-grammar keys, and corpus-entry fields, mirroring
 * `hal::FaultPlan`.
 *
 * Arrival generation is deterministic and *pure in (seed, index)*:
 * the randomness behind arrival i comes from
 * `sim::Rng::derive(seed, i)` alone, never from a shared stream, so
 * any suffix of a trace can be regenerated without replaying the
 * prefix's draws and two generators with equal (spec, seed) agree
 * byte-for-byte forever.
 */

#ifndef KELP_SERVE_TRAFFIC_HH
#define KELP_SERVE_TRAFFIC_HH

#include <cstdint>
#include <optional>
#include <string>

#include "sim/types.hh"

namespace kelp {
namespace serve {

/** Canonical description of an open-loop arrival process. */
struct TrafficSpec
{
    enum class Shape { Poisson, Diurnal, Burst };

    Shape shape = Shape::Poisson;

    /** Mean (base) arrival rate, queries per second. */
    double qps = 300.0;

    /** Fraction of requests tagged low-priority (sheddable first). */
    double lowFrac = 0.2;

    /** Diurnal shape: rate(t) = qps * (1 + amp * sin(2*pi*t/period)).
     * amp must stay below 1 so the rate is always positive. */
    double diurnalAmp = 0.5;
    double diurnalPeriod = 20.0;

    /** Burst shape: rate is qps, except qps * factor inside windows
     * [start + k*period, start + k*period + len) for k = 0, 1, ... */
    double spikeFactor = 4.0;
    double spikeStart = 2.0;
    double spikePeriod = 10.0;
    double spikeLen = 2.0;

    /** Instantaneous arrival rate at simulated time t (qps). */
    double rateAt(sim::Time t) const;

    /**
     * Canonical spec string, e.g. "shape=burst,qps=600,factor=8".
     * The shape key always prints; numeric fields print iff they
     * differ bit-exactly from the defaults, and only the fields the
     * shape consumes are eligible, so the string is shortest-form
     * canonical.
     */
    std::string toString() const;

    /** Parse a spec string; nullopt + *error on any malformed,
     * unknown, duplicate, out-of-range, or wrong-shape key. */
    static std::optional<TrafficSpec>
    tryParse(const std::string &spec, std::string *error = nullptr);

    bool operator==(const TrafficSpec &o) const
    {
        return toString() == o.toString();
    }
    bool operator!=(const TrafficSpec &o) const { return !(*this == o); }
};

/**
 * Deterministic arrival sequence for a TrafficSpec.
 *
 * Non-homogeneous shapes use rate-stepping: the gap after arrival i
 * is Exp(1) / rate(t_i), with the unit-exponential drawn from
 * sim::Rng::derive(seed, i). The request's priority class comes from
 * the same derived stream, so both are pure in (seed, index).
 */
class ArrivalGenerator
{
  public:
    /** One generated request. */
    struct Arrival
    {
        sim::Time time = 0.0;
        uint64_t index = 0;
        bool lowPriority = false;
    };

    ArrivalGenerator(const TrafficSpec &spec, uint64_t seed);

    /** Generate the next arrival (non-decreasing times). */
    Arrival next();

    /** Time of the next arrival without consuming it. */
    sim::Time peekTime() const { return nextTime_; }

    /** Arrivals generated so far. */
    uint64_t generated() const { return index_; }

    const TrafficSpec &spec() const { return spec_; }

  private:
    /** Compute arrival fields for the given index from (seed, index)
     * and the previous arrival time. */
    void prime();

    TrafficSpec spec_;
    uint64_t seed_;
    uint64_t index_ = 0;
    sim::Time lastTime_ = 0.0;
    sim::Time nextTime_ = 0.0;
    bool nextLow_ = false;
};

} // namespace serve
} // namespace kelp

#endif // KELP_SERVE_TRAFFIC_HH
