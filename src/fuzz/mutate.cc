#include "fuzz/mutate.hh"

#include <algorithm>
#include <cmath>

namespace kelp {
namespace fuzz {

namespace {

// The fuzzable envelope. Horizons are short on purpose: a trial runs
// the scenario up to three times (primary, replay, twin), and the
// search wants breadth, not long soaks.
constexpr double kMaxWarmup = 8.0;
constexpr double kMinMeasure = 6.0;
constexpr double kMaxMeasure = 24.0;
constexpr int kMaxKills = 3;

/** Round to a 0.25 s grid to keep spec text short and mutation steps
 * visible in diffs. */
double
grid(double v)
{
    return std::round(v * 4.0) / 4.0;
}

double
pickDouble(sim::Rng &rng, std::initializer_list<double> choices)
{
    const double *begin = choices.begin();
    return begin[rng.below(choices.size())];
}

int
pickInt(sim::Rng &rng, int lo, int hi)
{
    return lo + static_cast<int>(rng.below(
                    static_cast<uint64_t>(hi - lo + 1)));
}

sim::Time
runHorizon(const exp::RunConfig &cfg)
{
    return cfg.warmup + cfg.measure;
}

/** Re-clamp kill times into (0, horizon): horizon mutations must not
 * strand a kill after the end of the run where it never fires. */
void
clampKills(exp::RunConfig &cfg)
{
    double horizon = runHorizon(cfg);
    for (sim::Time &t : cfg.kills)
        t = std::clamp(t, 0.25, grid(horizon - 0.25));
}

/** The individual mutation operators, selected uniformly. */
void
mutateOnce(exp::ScenarioSpec &spec, sim::Rng &rng)
{
    exp::RunConfig &cfg = spec.cfg;
    switch (rng.below(19)) {
      case 0:
        cfg.ml = static_cast<wl::MlWorkload>(rng.below(4));
        break;
      case 1: {
        static const exp::ConfigKind kKinds[] = {
            exp::ConfigKind::BL, exp::ConfigKind::CT,
            exp::ConfigKind::KPSD, exp::ConfigKind::KP,
            exp::ConfigKind::FG};
        cfg.config = kKinds[rng.below(5)];
        break;
      }
      case 2: {
        switch (rng.below(6)) {
          case 0:
            cfg.cpu.reset();
            break;
          case 1:
            cfg.cpu = wl::CpuWorkload::Stream;
            break;
          case 2:
            cfg.cpu = wl::CpuWorkload::Stitch;
            break;
          case 3:
            cfg.cpu = wl::CpuWorkload::Cpuml;
            break;
          case 4:
            cfg.cpu = wl::CpuWorkload::LlcAggressor;
            break;
          default:
            cfg.cpu = wl::CpuWorkload::DramAggressor;
            break;
        }
        break;
      }
      case 3:
        cfg.cpuInstances = pickInt(rng, 1, 6);
        break;
      case 4:
        cfg.cpuThreadsOverride =
            rng.chance(0.5) ? 0 : pickInt(rng, 4, 16);
        break;
      case 5:
        cfg.aggressorLevel =
            static_cast<wl::AggressorLevel>(rng.below(3));
        break;
      case 6:
        cfg.warmup = grid(rng.uniform(0.0, kMaxWarmup));
        cfg.measure = grid(rng.uniform(kMinMeasure, kMaxMeasure));
        clampKills(cfg);
        break;
      case 7:
        cfg.samplePeriod = pickDouble(rng, {0.5, 1.0, 2.0, 4.0});
        break;
      case 8:
        cfg.seed = rng.below(1000000);
        break;
      case 9: {
        // Toggle one fault class.
        double p = pickDouble(rng, {0.0, 0.02, 0.05, 0.1, 0.3});
        switch (rng.below(6)) {
          case 0:
            cfg.faults.dropProb = p;
            break;
          case 1:
            cfg.faults.stuckProb = p;
            break;
          case 2:
            cfg.faults.noiseProb = p;
            cfg.faults.noiseFrac =
                pickDouble(rng, {0.1, 0.2, 0.5});
            break;
          case 3:
            cfg.faults.spikeProb = p;
            cfg.faults.spikeScale =
                pickDouble(rng, {4.0, 10.0, 20.0});
            break;
          case 4:
            cfg.faults.knobFailProb = p;
            break;
          default:
            cfg.faults.knobDelayProb = p;
            break;
        }
        break;
      }
      case 10:
        cfg.faultSeed = rng.below(1000);
        break;
      case 11:
        cfg.hardened = !cfg.hardened;
        break;
      case 12: {
        cfg.churn.enabled = rng.chance(0.75);
        if (cfg.churn.enabled) {
            cfg.churn.arrivalRate =
                pickDouble(rng, {0.02, 0.05, 0.1, 0.25, 0.5});
            cfg.churn.crashProb =
                pickDouble(rng, {0.0, 0.1, 0.5, 1.0});
            cfg.churn.maxLive = pickInt(rng, 1, 8);
            cfg.churn.lifetimeScale =
                pickDouble(rng, {0.2, 0.5, 1.0, 2.0});
            cfg.churn.checkPeriod =
                pickDouble(rng, {0.25, 0.5, 1.0});
        }
        break;
      }
      case 13:
        cfg.churn.seed = rng.below(1000);
        break;
      case 14: {
        // Kill schedule: add, drop, or move a controller crash.
        if (cfg.kills.empty() ||
            (cfg.kills.size() <
                 static_cast<size_t>(kMaxKills) &&
             rng.chance(0.6))) {
            cfg.kills.push_back(
                std::clamp(grid(rng.uniform(0.25, runHorizon(cfg))),
                           0.25, runHorizon(cfg) - 0.25));
        } else if (rng.chance(0.5)) {
            cfg.kills.erase(cfg.kills.begin() +
                            static_cast<long>(
                                rng.below(cfg.kills.size())));
        } else {
            size_t i = rng.below(cfg.kills.size());
            cfg.kills[i] = std::clamp(
                grid(rng.uniform(0.25, runHorizon(cfg))), 0.25,
                runHorizon(cfg) - 0.25);
        }
        break;
      }
      case 15: {
        cfg.slo.enabled = rng.chance(0.75);
        if (cfg.slo.enabled) {
            cfg.slo.minPerfRatio =
                pickDouble(rng, {0.5, 0.7, 0.85, 0.95, 1.0});
        }
        break;
      }
      case 16:
        cfg.slo.escalateAfter = pickInt(rng, 1, 5);
        cfg.slo.deescalateAfter = pickInt(rng, 1, 8);
        break;
      case 17: {
        // Open-loop request traffic: shape, rate and spike intensity.
        cfg.serving.enabled = rng.chance(0.75);
        if (cfg.serving.enabled) {
            serve::TrafficSpec &t = cfg.serving.traffic;
            t = serve::TrafficSpec{};
            t.qps = pickDouble(rng, {100.0, 200.0, 300.0, 600.0});
            t.lowFrac = pickDouble(rng, {0.0, 0.2, 0.5});
            switch (rng.below(3)) {
              case 0:
                t.shape = serve::TrafficSpec::Shape::Poisson;
                break;
              case 1:
                t.shape = serve::TrafficSpec::Shape::Diurnal;
                t.diurnalAmp = pickDouble(rng, {0.25, 0.5, 0.9});
                t.diurnalPeriod = pickDouble(rng, {10.0, 20.0});
                break;
              default:
                t.shape = serve::TrafficSpec::Shape::Burst;
                t.spikeFactor =
                    pickDouble(rng, {2.0, 4.0, 8.0, 16.0});
                t.spikeStart = pickDouble(rng, {1.0, 2.0, 4.0});
                t.spikePeriod = pickDouble(rng, {5.0, 10.0});
                t.spikeLen = pickDouble(rng, {1.0, 2.0});
                break;
            }
        }
        break;
      }
      default:
        cfg.cpuInstances = pickInt(rng, 1, 4);
        cfg.cpuThreadsOverride = 0;
        break;
    }
}

} // namespace

std::vector<exp::ScenarioSpec>
seedSpecs()
{
    std::vector<exp::ScenarioSpec> seeds;

    // Quiet full-Kelp colocation: the paper path, shortened.
    {
        exp::ScenarioSpec s;
        s.cfg.ml = wl::MlWorkload::Cnn1;
        s.cfg.config = exp::ConfigKind::KP;
        s.cfg.cpu = wl::CpuWorkload::Stitch;
        s.cfg.cpuInstances = 4;
        s.cfg.warmup = 4.0;
        s.cfg.measure = 12.0;
        s.cfg.samplePeriod = 1.0;
        seeds.push_back(s);
    }

    // Churny SLO run: dynamic membership + degradation ladder.
    {
        exp::ScenarioSpec s;
        s.cfg.ml = wl::MlWorkload::Cnn2;
        s.cfg.config = exp::ConfigKind::KP;
        s.cfg.cpu = wl::CpuWorkload::Stitch;
        s.cfg.cpuInstances = 2;
        s.cfg.warmup = 2.0;
        s.cfg.measure = 16.0;
        s.cfg.samplePeriod = 1.0;
        s.cfg.churn.enabled = true;
        s.cfg.churn.arrivalRate = 0.25;
        s.cfg.churn.maxLive = 4;
        s.cfg.slo.enabled = true;
        s.cfg.slo.minPerfRatio = 0.85;
        seeds.push_back(s);
    }

    // Chaos run: degraded telemetry and actuation, hardened.
    {
        exp::ScenarioSpec s;
        s.cfg.ml = wl::MlWorkload::Rnn1;
        s.cfg.config = exp::ConfigKind::KPSD;
        s.cfg.cpu = wl::CpuWorkload::DramAggressor;
        s.cfg.cpuThreadsOverride = 12;
        s.cfg.warmup = 2.0;
        s.cfg.measure = 12.0;
        s.cfg.samplePeriod = 1.0;
        s.cfg.faults.dropProb = 0.1;
        s.cfg.faults.knobFailProb = 0.2;
        seeds.push_back(s);
    }

    // Overloaded request serving: open-loop burst traffic against a
    // colocated antagonist, exercising the admission/brownout ladder.
    {
        exp::ScenarioSpec s;
        s.cfg.ml = wl::MlWorkload::Rnn1;
        s.cfg.config = exp::ConfigKind::KP;
        s.cfg.cpu = wl::CpuWorkload::Stitch;
        s.cfg.cpuInstances = 3;
        s.cfg.warmup = 2.0;
        s.cfg.measure = 12.0;
        s.cfg.samplePeriod = 1.0;
        s.cfg.serving.enabled = true;
        s.cfg.serving.traffic.shape =
            serve::TrafficSpec::Shape::Burst;
        s.cfg.serving.traffic.qps = 300.0;
        s.cfg.serving.traffic.spikeFactor = 8.0;
        seeds.push_back(s);
    }

    // Crashy run: churn plus repeated controller kills.
    {
        exp::ScenarioSpec s;
        s.cfg.ml = wl::MlWorkload::Cnn1;
        s.cfg.config = exp::ConfigKind::KP;
        s.cfg.cpu = wl::CpuWorkload::Stitch;
        s.cfg.cpuInstances = 3;
        s.cfg.warmup = 2.0;
        s.cfg.measure = 14.0;
        s.cfg.samplePeriod = 1.0;
        s.cfg.churn.enabled = true;
        s.cfg.churn.arrivalRate = 0.2;
        s.cfg.kills = {5.0, 9.0};
        seeds.push_back(s);
    }

    return seeds;
}

exp::ScenarioSpec
freshSpec(sim::Rng &rng)
{
    std::vector<exp::ScenarioSpec> seeds = seedSpecs();
    exp::ScenarioSpec spec = seeds[rng.below(seeds.size())];
    mutateSpec(spec, rng, 1 + static_cast<int>(rng.below(3)));
    return spec;
}

void
mutateSpec(exp::ScenarioSpec &spec, sim::Rng &rng, int steps)
{
    for (int i = 0; i < steps; ++i)
        mutateOnce(spec, rng);
    clampKills(spec.cfg);
}

exp::ScenarioSpec
generateSpec(uint64_t base, uint64_t index,
             const std::vector<exp::ScenarioSpec> &pool)
{
    sim::Rng rng = sim::Rng::derive(base, index);
    if (pool.empty() || rng.chance(0.2))
        return freshSpec(rng);
    exp::ScenarioSpec spec = pool[rng.below(pool.size())];
    // 1 + Geometric(1/2) mutation steps: usually small edits, with a
    // long tail of composite jumps.
    int steps = 1;
    while (steps < 6 && rng.chance(0.5))
        ++steps;
    mutateSpec(spec, rng, steps);
    return spec;
}

} // namespace fuzz
} // namespace kelp
