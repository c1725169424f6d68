#include "fuzz/shrink.hh"

#include <algorithm>
#include <cmath>

namespace kelp {
namespace fuzz {

namespace {

/** Quarter-second grid (matches the mutator's time grid). */
double
grid(double v)
{
    return std::round(v * 4.0) / 4.0;
}

/** Drop scheduled kills that no longer fit inside the horizon. */
void
dropLateKills(exp::RunConfig &cfg)
{
    const double horizon = cfg.warmup + cfg.measure;
    if (cfg.killAt >= horizon)
        cfg.killAt = 0.0;
    cfg.kills.erase(std::remove_if(cfg.kills.begin(), cfg.kills.end(),
                                   [horizon](sim::Time t) {
                                       return t >= horizon;
                                   }),
                    cfg.kills.end());
}

} // namespace

std::vector<exp::ScenarioSpec>
shrinkCandidates(const exp::ScenarioSpec &spec)
{
    std::vector<exp::ScenarioSpec> out;
    auto push = [&](exp::ScenarioSpec cand) {
        if (cand != spec)
            out.push_back(std::move(cand));
    };
    const exp::RunConfig &c = spec.cfg;

    // Drop each scheduled controller kill.
    for (size_t i = 0; i < c.kills.size(); ++i) {
        exp::ScenarioSpec cand = spec;
        cand.cfg.kills.erase(cand.cfg.kills.begin() +
                             static_cast<long>(i));
        push(std::move(cand));
    }
    if (c.killAt > 0.0) {
        exp::ScenarioSpec cand = spec;
        cand.cfg.killAt = 0.0;
        push(std::move(cand));
    }

    // Disable churn wholesale, then soften it.
    if (c.churn.enabled) {
        {
            exp::ScenarioSpec cand = spec;
            cand.cfg.churn = exp::ChurnConfig{};
            push(std::move(cand));
        }
        if (c.churn.crashProb > 0.0) {
            exp::ScenarioSpec cand = spec;
            cand.cfg.churn.crashProb = 0.0;
            push(std::move(cand));
        }
        if (c.churn.maxLive > 1) {
            exp::ScenarioSpec cand = spec;
            cand.cfg.churn.maxLive = 1;
            push(std::move(cand));
        }
        if (c.churn.arrivalRate > 0.02) {
            exp::ScenarioSpec cand = spec;
            cand.cfg.churn.arrivalRate = 0.02;
            push(std::move(cand));
        }
    }

    // Zero each active fault class (resetting its scale knob too, so
    // the minimized plan prints without vestigial parameters).
    if (c.faults.dropProb > 0.0) {
        exp::ScenarioSpec cand = spec;
        cand.cfg.faults.dropProb = 0.0;
        push(std::move(cand));
    }
    if (c.faults.stuckProb > 0.0) {
        exp::ScenarioSpec cand = spec;
        cand.cfg.faults.stuckProb = 0.0;
        push(std::move(cand));
    }
    if (c.faults.noiseProb > 0.0) {
        exp::ScenarioSpec cand = spec;
        cand.cfg.faults.noiseProb = 0.0;
        cand.cfg.faults.noiseFrac = hal::FaultPlan{}.noiseFrac;
        push(std::move(cand));
    }
    if (c.faults.spikeProb > 0.0) {
        exp::ScenarioSpec cand = spec;
        cand.cfg.faults.spikeProb = 0.0;
        cand.cfg.faults.spikeScale = hal::FaultPlan{}.spikeScale;
        push(std::move(cand));
    }
    if (c.faults.knobFailProb > 0.0) {
        exp::ScenarioSpec cand = spec;
        cand.cfg.faults.knobFailProb = 0.0;
        push(std::move(cand));
    }
    if (c.faults.knobDelayProb > 0.0) {
        exp::ScenarioSpec cand = spec;
        cand.cfg.faults.knobDelayProb = 0.0;
        push(std::move(cand));
    }

    // Turn off request traffic wholesale, then soften its shape.
    if (c.serving.enabled) {
        {
            exp::ScenarioSpec cand = spec;
            cand.cfg.serving = serve::ServeConfig{};
            push(std::move(cand));
        }
        if (c.serving.traffic.shape !=
            serve::TrafficSpec::Shape::Poisson) {
            exp::ScenarioSpec cand = spec;
            serve::TrafficSpec plain;
            plain.qps = c.serving.traffic.qps;
            plain.lowFrac = c.serving.traffic.lowFrac;
            cand.cfg.serving.traffic = plain;
            push(std::move(cand));
        }
        if (c.serving.traffic.shape ==
                serve::TrafficSpec::Shape::Burst &&
            c.serving.traffic.spikeFactor > 2.0) {
            exp::ScenarioSpec cand = spec;
            cand.cfg.serving.traffic.spikeFactor = 2.0;
            push(std::move(cand));
        }
        if (c.serving.traffic.qps > 100.0) {
            exp::ScenarioSpec cand = spec;
            cand.cfg.serving.traffic.qps =
                std::max(100.0, grid(c.serving.traffic.qps / 2.0));
            push(std::move(cand));
        }
        if (c.serving.traffic.lowFrac > 0.0) {
            exp::ScenarioSpec cand = spec;
            cand.cfg.serving.traffic.lowFrac = 0.0;
            push(std::move(cand));
        }
    }

    // Disarm the SLO ladder; restore default hysteresis.
    if (c.slo.enabled) {
        exp::ScenarioSpec cand = spec;
        cand.cfg.slo = runtime::SloConfig{};
        push(std::move(cand));
    }

    // Remove the colocated workload, or scale it down.
    if (c.cpu) {
        exp::ScenarioSpec cand = spec;
        cand.cfg.cpu.reset();
        cand.cfg.cpuInstances = 1;
        cand.cfg.cpuThreadsOverride = 0;
        push(std::move(cand));
    }
    if (c.cpuInstances > 1) {
        exp::ScenarioSpec cand = spec;
        cand.cfg.cpuInstances = std::max(1, c.cpuInstances / 2);
        push(std::move(cand));
    }
    if (c.cpuThreadsOverride > 0) {
        exp::ScenarioSpec cand = spec;
        cand.cfg.cpuThreadsOverride = 0;
        push(std::move(cand));
    }

    // Restore the hardened controller (the default).
    if (!c.hardened) {
        exp::ScenarioSpec cand = spec;
        cand.cfg.hardened = true;
        push(std::move(cand));
    }

    // Shorten the run. Kills stranded past the new horizon are
    // dropped with it (also a reduction).
    if (c.warmup > 0.0) {
        exp::ScenarioSpec cand = spec;
        cand.cfg.warmup = c.warmup < 1.0 ? 0.0 : grid(c.warmup / 2.0);
        dropLateKills(cand.cfg);
        push(std::move(cand));
    }
    if (c.measure > 6.0) {
        exp::ScenarioSpec cand = spec;
        cand.cfg.measure = std::max(6.0, grid(c.measure / 2.0));
        dropLateKills(cand.cfg);
        push(std::move(cand));
    }

    return out;
}

ShrinkResult
shrinkWith(const exp::ScenarioSpec &failing,
           const std::function<bool(const exp::ScenarioSpec &)> &stillFails,
           int maxAttempts)
{
    ShrinkResult res;
    res.spec = failing;

    bool progress = true;
    while (progress) {
        progress = false;
        for (const exp::ScenarioSpec &cand : shrinkCandidates(res.spec)) {
            if (res.attempts >= maxAttempts)
                return res; // budget exhausted mid-pass: not minimal
            ++res.attempts;
            if (stillFails(cand)) {
                res.spec = cand;
                ++res.steps;
                progress = true;
                break; // restart the pass from the smaller spec
            }
        }
    }
    res.minimal = true;
    return res;
}

ShrinkResult
shrink(const exp::ScenarioSpec &failing, const std::string &oracle,
       const OracleConfig &ocfg, int maxAttempts)
{
    return shrinkWith(
        failing,
        [&](const exp::ScenarioSpec &cand) {
            return oracleFires(cand, oracle, ocfg);
        },
        maxAttempts);
}

} // namespace fuzz
} // namespace kelp
