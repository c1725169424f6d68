/**
 * @file
 * Deterministic Kelp-managed cluster simulator (ROADMAP item 2).
 *
 * Scales the single-node scenario machinery to a fleet: N nodes,
 * each permanently hosting the latency-critical ML service under one
 * runtime configuration (BL / KP-SD / KP), with a stream of batch
 * jobs arriving at the cluster scheduler. Per epoch (one simulated
 * node-hour) the simulator:
 *
 *  1. draws Poisson batch-job arrivals (kind, width, lifetime) from
 *     the epoch's own derived RNG stream;
 *  2. places each arrival through the scheduler policy (bin-pack vs
 *     interference-aware; see cluster/scheduler.hh);
 *  3. measures every node's colocation by running the full
 *     single-node scenario (exp::buildScenario + measureScenario via
 *     exp::runScenario) for its (ML, config, antagonist) signature
 *     -- signatures are memoized, and the misses are fanned out on
 *     the deterministic worker pool with strict-index-order commits,
 *     so any --jobs count is byte-identical to serial;
 *  4. applies per-node heterogeneity jitter from the node's
 *     sim::Rng::derive(seed, node) stream, scores the SLO
 *     (perf ratio >= floor), and advances the per-node SLO ladder:
 *     consecutive violating epochs escalate the rung, and an
 *     escalated node migrates its widest batch job away (or evicts
 *     it when no placement exists / the rung climbs further);
 *  5. accounts fleet metrics: fraction of node-hours meeting the
 *     SLO, stranded-capacity ratio (idle batch-thread-hours over
 *     capacity thread-hours), and the fleet-wide distribution of
 *     per-node request-tail latencies (shared percentile
 *     convention via fleet::FleetResult / sim::percentileSorted).
 *
 * Conservation invariant, checked every epoch: every arriving job is
 * exactly one of placed/rejected, and every placed job is exactly
 * one of running/finished/evicted (a migrated job is still running,
 * on its new node).
 *
 * All scheduler actions can be audited into a trace::DecisionLog
 * ("cluster-place" / "cluster-reject" / "cluster-migrate" /
 * "cluster-evict" events at epoch timestamps).
 */

#ifndef KELP_CLUSTER_CLUSTER_HH
#define KELP_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/scheduler.hh"
#include "exp/scenario.hh"
#include "fleet/fleet.hh"

namespace kelp {

namespace trace {
class DecisionLog;
} // namespace trace

namespace cluster {

/** Everything that defines one cluster simulation. */
struct ClusterConfig
{
    /** Kelp-managed nodes, each hosting the ML service. */
    int nodes = 24;

    /** Scheduling rounds; one epoch = one simulated node-hour. */
    int epochs = 12;

    Placement placement = Placement::InterferenceAware;

    /** Per-node runtime configuration (BL / KP-SD / KP). */
    exp::ConfigKind config = exp::ConfigKind::KP;

    /** The latency-critical service every node hosts. */
    wl::MlWorkload ml = wl::MlWorkload::Rnn1;

    /** SLO floor: min acceptable ML perf ratio per node-hour. */
    double sloFloor = 0.85;

    /** Mean Poisson batch-job arrivals per epoch. */
    double arrivalsPerEpoch = 8.0;

    /** Batch-job lifetime range, epochs (inclusive). */
    int minJobEpochs = 2;
    int maxJobEpochs = 6;

    /** Batch-job width range: 1..maxJobInstances instances (threads
     * follow wl::threadsPerInstance). */
    int maxJobInstances = 3;

    /** Batch thread capacity per node (host cores minus the ML
     * task's entitlement on the RNN1/TPUv1 platform). */
    int capacityThreads = 12;

    /** Interference-aware policy knobs (peak BW of the RNN1 host
     * socket; see cluster/scheduler.hh). */
    double peakBw = 76.8;
    double satCap = 0.80;
    double sloMargin = 0.03;

    /** SLO-ladder rungs: consecutive violating epochs before the
     * scheduler migrates the widest job away / evicts it. */
    int migrateRung = 2;
    int evictRung = 3;

    /** Node-evaluation measurement windows (simulated seconds of
     * the single-node scenario run per signature). */
    sim::Time evalWarmup = 2.0;
    sim::Time evalMeasure = 6.0;
    sim::Time evalSamplePeriod = 1.0;

    uint64_t seed = 2019;

    /** Worker threads for signature evaluation (resolveJobs
     * semantics; never changes the results). */
    int jobs = 1;
};

/** Terminal / live state of one batch job. */
enum class JobState { Running, Finished, Evicted };

/** One batch job's cluster lifetime (exposed for tests). */
struct BatchJob
{
    int id = -1;
    wl::CpuWorkload kind = wl::CpuWorkload::Stream;
    int instances = 0;
    int threads = 0;
    int arrivalEpoch = 0;
    int remainingEpochs = 0;

    /** Current node (-1 once finished/evicted or never placed). */
    int node = -1;

    JobState state = JobState::Running;
    int migrations = 0;
};

/** Per-epoch accounting row (exposed for invariant tests). */
struct EpochRow
{
    int epoch = 0;
    uint64_t arrivals = 0;
    uint64_t placed = 0;
    uint64_t rejected = 0;
    uint64_t migrations = 0;
    uint64_t evictions = 0;
    uint64_t finished = 0;

    /** Jobs still running at the end of the epoch. */
    uint64_t running = 0;

    /** Nodes meeting the SLO this epoch. */
    uint64_t sloNodes = 0;

    /** Batch threads in use / capacity this epoch. */
    uint64_t usedThreads = 0;
    uint64_t capacityThreads = 0;
};

/** Fleet-level results of one cluster simulation. */
struct ClusterResult
{
    /** Whole-run job accounting. */
    uint64_t arrivals = 0;
    uint64_t placed = 0;
    uint64_t rejected = 0;
    uint64_t migrations = 0;
    uint64_t evictions = 0;
    uint64_t finished = 0;
    uint64_t runningAtEnd = 0;

    /** SLO accounting over node-hours. */
    uint64_t nodeHours = 0;
    uint64_t sloNodeHours = 0;

    /** Batch-capacity accounting over node-hours. */
    uint64_t usedThreadHours = 0;
    uint64_t capacityThreadHours = 0;

    /** Distinct single-node scenario evaluations (memo misses). */
    uint64_t evaluations = 0;

    std::vector<EpochRow> epochs;

    /** Per node-hour ML request-tail (p95) samples, seconds; empty
     * for a training ML, which serves no requests. */
    std::vector<double> tailSamples;

    /** Jobs in arrival order (terminal states for tests). */
    std::vector<BatchJob> jobLedger;

    /** Fraction of node-hours meeting the SLO (Fig 14-style). */
    double sloFraction() const;

    /** Stranded capacity: idle batch-thread-hours / capacity. */
    double strandedRatio() const;

    /** Fleet-wide tail distribution (shared percentile convention);
     * query e.g. .percentile(99.0) for the fleet p99 of per-node
     * p95 tails. Empty (count() 0) for a training ML. */
    fleet::FleetResult tails() const;

    /**
     * Canonical byte-diffable text of the whole result (summary +
     * per-epoch rows). Two runs -- any --jobs count -- with the
     * same ClusterConfig must produce identical text; the
     * determinism suite and the CI cluster-smoke job compare it.
     */
    std::string canonicalText() const;

    /** Enforce the job-conservation invariants (also checked every
     * epoch during simulation). */
    void checkConservation() const;
};

/**
 * Run one cluster simulation. Deterministic: a pure function of
 * `cfg` (in particular, byte-identical for every cfg.jobs).
 * Scheduler actions are audited into `log` when non-null.
 */
ClusterResult simulateCluster(const ClusterConfig &cfg,
                              trace::DecisionLog *log = nullptr);

} // namespace cluster
} // namespace kelp

#endif // KELP_CLUSTER_CLUSTER_HH
