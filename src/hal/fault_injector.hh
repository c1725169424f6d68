/**
 * @file
 * HAL fault injection: deterministic degraded-telemetry and
 * failed-actuation models for robustness experiments.
 *
 * Production uncore counters glitch (dropped reads, stuck values,
 * noisy windows, spike outliers) and MSR/cgroup knob writes fail or
 * land late. The wrappers here inject exactly those fault classes
 * between a controller and the real HAL backends, driven by a
 * sim::Rng-seeded FaultPlan so every degraded run is reproducible:
 * the same seed produces the same fault sequence, and an all-zero
 * plan is a bit-identical pass-through.
 */

#ifndef KELP_HAL_FAULT_INJECTOR_HH
#define KELP_HAL_FAULT_INJECTOR_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hal/counters.hh"
#include "hal/knobs.hh"
#include "sim/rng.hh"

namespace kelp {
namespace hal {

/**
 * Per-fault-class probabilities, all applied independently per
 * counter read / knob write. Telemetry classes are mutually
 * exclusive per read, tested in the order listed.
 */
struct FaultPlan
{
    /** Counter read returns an all-zero sample (dropped read). */
    double dropProb = 0.0;

    /** Counter read repeats the last good sample (stuck/stale). */
    double stuckProb = 0.0;

    /** Counter read is scaled by 1 +/- noiseFrac per signal. */
    double noiseProb = 0.0;
    double noiseFrac = 0.2;

    /** One signal of the read is scaled by spikeScale (outlier). */
    double spikeProb = 0.0;
    double spikeScale = 10.0;

    /** Knob write is silently dropped (actuation failure). */
    double knobFailProb = 0.0;

    /** Knob write is deferred until the next write (delayed apply). */
    double knobDelayProb = 0.0;

    /** True when any fault class has non-zero probability. */
    bool any() const;

    /**
     * Parse a comma-separated spec, e.g.
     * "drop=0.1,stuck=0.05,noise=0.1,noisefrac=0.3,spike=0.02,"
     * "spikescale=8,knobfail=0.2,knobdelay=0.1".
     * An empty spec yields the all-zero (disabled) plan; unknown
     * or repeated keys, malformed/empty/non-finite values, and
     * out-of-range values are fatal.
     */
    static FaultPlan parse(const std::string &spec);

    /**
     * Non-fatal variant: returns std::nullopt on any parse or
     * validation error and, when @p error is non-null, stores a
     * human-readable description of what was wrong.
     */
    static std::optional<FaultPlan>
    tryParse(const std::string &spec, std::string *error = nullptr);

    /**
     * Canonical spec string: keys in the documented order, only
     * fields that differ from a default-constructed plan, values in
     * shortest round-trip decimal form. The result parses back to an
     * identical plan (toString . tryParse is the identity, and
     * toString of the reparse reproduces the same bytes); an all-
     * default plan renders as the empty string. Used by the scenario
     * fuzzer's spec serialization and by manifest/decision reporting.
     */
    std::string toString() const;
};

/** Telemetry-side injection counts (inspection/reporting). */
struct CounterFaultStats
{
    uint64_t reads = 0;
    uint64_t drops = 0;
    uint64_t stucks = 0;
    uint64_t noises = 0;
    uint64_t spikes = 0;
};

/** Wraps a CounterSource, corrupting reads per the fault plan. */
class FaultyCounterSource : public CounterSource
{
  public:
    FaultyCounterSource(std::unique_ptr<CounterSource> inner,
                        const FaultPlan &plan, sim::Rng rng);

    CounterSample sample(sim::SocketId socket) override;

    /** Swap the active plan (tests script fault phases with this). */
    void setPlan(const FaultPlan &plan) { plan_ = plan; }
    const FaultPlan &plan() const { return plan_; }

    const CounterFaultStats &stats() const { return stats_; }

  private:
    std::unique_ptr<CounterSource> inner_;
    FaultPlan plan_;
    sim::Rng rng_;
    CounterFaultStats stats_;

    /** Last clean sample per socket, for the stuck class. */
    std::array<CounterSample, 2> lastGood_;
    std::array<bool, 2> haveLast_ = {false, false};
};

/** Actuation-side injection counts (inspection/reporting). */
struct KnobFaultStats
{
    uint64_t writes = 0;
    uint64_t failures = 0;
    uint64_t delays = 0;
};

/**
 * Wraps a KnobSink, dropping or delaying writes per the fault plan.
 * A delayed write reports success but is only applied immediately
 * before the *next* write reaching the sink (stale actuation); a
 * failed write reports false and is lost.
 */
class FaultyKnobSink : public KnobSink
{
  public:
    FaultyKnobSink(KnobSink &inner, const FaultPlan &plan,
                   sim::Rng rng);

    bool setCores(sim::GroupId group, sim::SocketId socket,
                  sim::SubdomainId sub, int count) override;
    bool setPrefetchersEnabled(sim::GroupId group, int count) override;
    bool setCatWays(sim::GroupId group, int ways) override;

    /** Swap the active plan (tests script fault phases with this). */
    void setPlan(const FaultPlan &plan) { plan_ = plan; }
    const FaultPlan &plan() const { return plan_; }

    const KnobFaultStats &stats() const { return stats_; }

    /** Apply any queued delayed writes now (end-of-run drain). */
    void flush();

  private:
    struct PendingWrite
    {
        enum class Kind { Cores, Prefetchers, CatWays } kind;
        sim::GroupId group;
        sim::SocketId socket = 0;
        sim::SubdomainId sub = 0;
        int value = 0;
    };

    /** Route one write through the fault model. */
    bool submit(const PendingWrite &w);
    void applyNow(const PendingWrite &w);

    KnobSink &inner_;
    FaultPlan plan_;
    sim::Rng rng_;
    KnobFaultStats stats_;
    std::vector<PendingWrite> delayed_;
};

} // namespace hal
} // namespace kelp

#endif // KELP_HAL_FAULT_INJECTOR_HH
