/**
 * @file
 * Scenario builder and runner: assembles a node for one workload mix
 * under one of the four evaluated configurations (Section V-A),
 * runs it with warmup, and reports normalized metrics.
 *
 *  - BL    Baseline: priorities declared, contention unmanaged.
 *  - CT    CoreThrottle: CAT partition for the ML task + feedback
 *          core-count throttling of low-priority tasks (prior work).
 *  - KP-SD Kelp Subdomain: NUMA subdomains + prefetcher toggling.
 *  - KP    Full Kelp: KP-SD + backfilling the high-priority
 *          subdomain, managed by Algorithms 1 and 2.
 */

#ifndef KELP_EXP_SCENARIO_HH
#define KELP_EXP_SCENARIO_HH

#include <memory>
#include <optional>
#include <vector>

#include "exp/lifecycle.hh"
#include "hal/fault_injector.hh"
#include "kelp/manager.hh"
#include "kelp/slo_guard.hh"
#include "node/node.hh"
#include "serve/server.hh"
#include "sim/engine.hh"
#include "workload/batch_task.hh"
#include "workload/catalog.hh"
#include "workload/ml_infer_task.hh"
#include "workload/ml_train_task.hh"

namespace kelp {

namespace trace {
class DecisionLog;
class Telemetry;
class TraceRecorder;
} // namespace trace

namespace exp {

/**
 * The four evaluated runtime configurations, plus FG: the
 * fine-grained hardware memory-QoS what-if of Section VI-D
 * (request-priority memory controllers + priority-aware
 * backpressure), used by the ablation bench to estimate the headroom
 * the paper projects for future hardware.
 */
enum class ConfigKind { BL, CT, KPSD, KP, FG };

const char *configName(ConfigKind kind);

/** Everything that defines one experimental run. */
struct RunConfig
{
    wl::MlWorkload ml = wl::MlWorkload::Cnn1;
    ConfigKind config = ConfigKind::BL;

    /** Colocated CPU workload; nullopt = standalone. */
    std::optional<wl::CpuWorkload> cpu;

    /** Instances of the CPU workload (threads follow the catalog's
     * threads-per-instance). */
    int cpuInstances = 1;

    /** For CPUML-style sweeps: total threads instead of instances. */
    int cpuThreadsOverride = 0;

    /** Synthetic-aggressor level (DramAggressor only). */
    wl::AggressorLevel aggressorLevel = wl::AggressorLevel::High;

    /** Fraction of aggressor data on the ML task's socket. */
    double aggressorDataLocal = 1.0;

    /** Fraction of aggressor threads on the ML task's socket. */
    double aggressorThreadsLocal = 1.0;

    /** Fraction of low-priority prefetchers force-enabled; negative
     * leaves the controller in charge (Figure 7 sweeps this with the
     * controller replaced by a fixed setting). */
    double forcedPrefetcherFraction = -1.0;

    /** Serial single-request inference mode (Figure 3 trace). */
    bool serialInference = false;

    /** Non-zero: replace the inference server's closed-loop load
     * generation with open-loop Poisson arrivals at this rate
     * (knee-sweep experiments). */
    double openLoopQps = 0.0;

    /** Simulation timing. */
    sim::Time tick = 100 * sim::usec;
    sim::Time warmup = 80.0;
    sim::Time measure = 60.0;
    sim::Time samplePeriod = 4.0;

    uint64_t seed = 12345;

    /**
     * HAL fault injection (chaos experiments). An all-zero plan (the
     * default) bypasses the injection layer entirely, so fault-free
     * runs are bit-identical to builds without this feature.
     */
    hal::FaultPlan faults;

    /** Seed of the fault-injection streams (independent of `seed` so
     * the same workload can be replayed under different faults). */
    uint64_t faultSeed = 1;

    /**
     * Under an active fault plan: true runs the hardened controller
     * (sample guard + actuation retry + watchdog fail-safe), false
     * the naive one, which trusts every read and forgets failed
     * writes. Ignored when `faults` is all-zero.
     */
    bool hardened = true;

    /**
     * Dynamic colocation churn: seeded task arrival/departure/crash
     * events mid-run. Disabled by default; when enabled the Kelp
     * controller re-reads low-priority membership every sample.
     */
    ChurnConfig churn;

    /**
     * Non-zero: crash and restart the runtime controller once at
     * this time (checkpoint replay + knob reconciliation). Only
     * configurations with a registered controller factory (KP/KP-SD)
     * honor it; others run unaffected.
     */
    sim::Time killAt = 0.0;

    /**
     * Full kill/restart schedule: additional controller crash times
     * beyond killAt, each handled exactly like killAt. The scenario
     * fuzzer mutates this list to search for restart-recovery corner
     * cases (repeated crashes, crashes inside SLO escalations); the
     * single killAt knob remains for the CLI and the existing
     * benches. Times must be positive; order does not matter.
     */
    std::vector<sim::Time> kills;

    /** SLO degradation ladder (KP/KP-SD; disabled by default). */
    runtime::SloConfig slo;

    /**
     * Open-loop serving layer (traffic shaping, admission control,
     * batching, brownout; see src/serve/). Disabled by default; only
     * honored when the ML workload is an inference server, training
     * workloads ignore it.
     */
    serve::ServeConfig serving;

    /**
     * Event-driven tick engine (default on). When off, every tick
     * runs the full pipeline. Results are bit-identical either way;
     * the flag exists for A/B perf measurement and identity tests.
     */
    bool eventDriven = true;
};

/** Normalized results of a run. */
struct RunResult
{
    /** ML performance: steps/s (training) or QPS (inference). */
    double mlPerf = 0.0;

    /** p95 request latency, seconds (inference only; 0 otherwise). */
    double mlTailP95 = 0.0;

    /** Aggregate CPU-task throughput, standalone thread-seconds/s. */
    double cpuThroughput = 0.0;

    /** Controller parameter time-averages (Figures 11/12). */
    double avgLoCores = 0.0;
    double avgLoPrefetchers = 0.0;
    double avgHiBackfill = 0.0;

    /** Watchdog telemetry (fault-injection runs; 0 otherwise). */
    double timeInFailSafe = 0.0;
    uint64_t failSafeEntries = 0;

    /** Mean memory saturation over the measurement window. */
    double avgSaturation = 0.0;

    /** Mean socket bandwidth over the measurement window, GiB/s. */
    double avgSocketBw = 0.0;

    /** Churn telemetry (churn runs; 0 otherwise). */
    uint64_t churnArrivals = 0;
    uint64_t churnFinishes = 0;
    uint64_t churnCrashes = 0;
    uint64_t churnRejected = 0;

    /** Controller crash/restart telemetry (kill-at runs). */
    uint64_t restarts = 0;

    /** SLO-ladder telemetry (0 when the ladder is disarmed). */
    uint64_t sloViolations = 0;
    uint64_t sloTransitions = 0;
    int sloFinalRung = 0;

    /** Request-serving drop accounting, whole run (traffic runs;
     * all-zero otherwise). */
    uint64_t reqArrivals = 0;
    uint64_t reqAdmitted = 0;
    uint64_t reqRejected = 0;
    uint64_t reqShed = 0;
    uint64_t reqExpired = 0;
    uint64_t reqCompleted = 0;
    uint64_t reqInFlight = 0;

    /** Brownout-ladder telemetry (traffic runs). */
    uint64_t brownoutTransitions = 0;
    int brownoutFinal = 0;

    /** Request-latency tail over the measurement window, seconds
     * (traffic runs; 0 otherwise). */
    double reqP99 = 0.0;
    double reqP999 = 0.0;
    double reqP9999 = 0.0;

    /** Tick-engine cost breakdown, whole run (deterministic counters,
     * safe to byte-diff across hosts). */
    uint64_t engineTicks = 0;     ///< Total ticks simulated.
    uint64_t engineFastTicks = 0; ///< Ticks consumed by fast-forward.
    uint64_t engineFullTicks = 0; ///< Ticks through the full pipeline.
    uint64_t periodicFires = 0;   ///< Periodic callback firings.
    uint64_t demandCalls = 0;     ///< Full-path bwDemand() calls.
    uint64_t advanceCalls = 0;    ///< Full-path advance() calls.
    uint64_t fastTaskTicks = 0;   ///< Task-ticks via cached kernels.
    uint64_t resolveCacheHits = 0;
    uint64_t resolveCacheMisses = 0;
    uint64_t mcCacheHits = 0;
    uint64_t mcCacheMisses = 0;
    uint64_t memFastTicks = 0;
    uint64_t shapeBuilds = 0;   ///< Node tick-shape rebuilds.

    /** engineFastTicks / engineTicks (0 when no ticks ran). */
    double skipRatio() const
    {
        return engineTicks == 0
                   ? 0.0
                   : static_cast<double>(engineFastTicks) /
                         static_cast<double>(engineTicks);
    }
};

/**
 * A fully-assembled scenario, exposed so tests and special-purpose
 * experiments (timeline traces, what-ifs) can drive the pieces
 * directly.
 */
struct Scenario
{
    std::unique_ptr<node::Node> node;
    std::unique_ptr<sim::Engine> engine;
    std::unique_ptr<runtime::RuntimeManager> manager;

    /** Fault-injecting HAL wrappers (fault-injection runs only). */
    std::unique_ptr<hal::FaultyCounterSource> faultyCounters;
    std::unique_ptr<hal::FaultyKnobSink> faultyKnobs;

    /** Churn driver (churn runs only). */
    std::unique_ptr<LifecycleEngine> lifecycle;

    /** Open-loop request server (traffic runs only). */
    std::unique_ptr<serve::RequestServer> server;

    wl::Task *mlTask = nullptr;
    wl::MlInferTask *inferTask = nullptr;
    std::vector<wl::BatchTask *> cpuTasks;

    sim::GroupId mlGroup = sim::invalidId;
    sim::GroupId cpuGroup = sim::invalidId;
};

/**
 * Optional observability sinks for an instrumented run. All sinks are
 * borrowed (must outlive the scenario) and all default to null: a
 * default Observability installs nothing, and the run is bit-identical
 * to the un-instrumented paper path.
 */
struct Observability
{
    /** Perfetto-compatible span recorder; receives the inference
     * task's phase events (CPU/PCIe/Accel lanes) as they happen.
     * Counter tracks and decision instants are imported at end of
     * run by the caller (importTelemetry / importDecisions). */
    trace::TraceRecorder *recorder = nullptr;

    /** Controller decision audit log. */
    trace::DecisionLog *decisions = nullptr;

    /** Knob/hardware-signal time series, sampled on a periodic. The
     * standard probe set (socket bandwidth, memory latency,
     * saturation, contract violations, controller knobs) is
     * installed automatically. */
    trace::Telemetry *telemetry = nullptr;

    /** Telemetry sampling period, simulated seconds (<= 0 follows
     * the controller sampling period). */
    sim::Time telemetryPeriod = 0.0;

    /** True when any sink is attached. */
    bool any() const { return recorder || decisions || telemetry; }
};

/** Build a scenario without running it. */
Scenario buildScenario(const RunConfig &cfg);

/** Build a scenario with observability sinks installed. */
Scenario buildScenario(const RunConfig &cfg,
                       const Observability &obs);

/**
 * Warm up, measure, and summarize an already-built scenario. Shared
 * by the plain and instrumented paths so both compute the exact same
 * RunResult from the same simulated run.
 */
RunResult measureScenario(Scenario &s, const RunConfig &cfg);

/** Build, warm up, measure, and summarize. */
RunResult runScenario(const RunConfig &cfg);

/**
 * Standalone ML performance (and p95 tail) for normalization,
 * memoized per workload within the process.
 */
RunResult standaloneReference(wl::MlWorkload ml);

/**
 * The run behind standaloneReference(ml), not memoized: a BL run with
 * no CPU workload and no SLO, so it never re-enters the memo and may
 * run on any thread.
 */
RunResult computeStandaloneReference(wl::MlWorkload ml);

/** True when standaloneReference(ml) is already memoized. */
bool hasStandaloneReference(wl::MlWorkload ml);

/** Memoize a computeStandaloneReference(ml) result produced
 * elsewhere; an existing entry wins. */
void storeStandaloneReference(wl::MlWorkload ml, const RunResult &r);

/**
 * Baseline CPU throughput for a mix at given instance count, used as
 * the CPU-side normalization anchor in the figure benches.
 */
double baselineCpuThroughput(const RunConfig &cfg);

} // namespace exp
} // namespace kelp

#endif // KELP_EXP_SCENARIO_HH
