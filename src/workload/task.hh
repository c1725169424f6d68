/**
 * @file
 * Task abstraction: the unit of placement and progress.
 *
 * The node drives every task through a two-pass protocol each tick:
 *
 *  1. bwDemand(env) -- the task reports its memory bandwidth demand
 *     given its current phase and the pre-resolve environment (cores,
 *     prefetchers, LLC hit rate, last tick's achieved speed).
 *  2. advance(dt, env) -- after the memory system resolves, the task
 *     advances its phase/step state using the post-resolve environment
 *     (effective latency, granted bandwidth fraction, throttle).
 *
 * The node builds its tick shape (core shares, LLC apportionment,
 * routing) from llcProfile(), threadsWanted(), homeSocket(),
 * dataPlacement() and the lifecycle state, and rebuilds it only after
 * a change notification. So each of these may change only together
 * with noteChange(); the setters here and in the subclasses do so.
 *
 * hostSpeed() encodes the shared performance model: how a host phase's
 * execution speed responds to the environment. It is the single place
 * where latency, bandwidth, prefetcher, SMT, and distress effects
 * combine, used by ML host segments and batch tasks alike.
 */

#ifndef KELP_WORKLOAD_TASK_HH
#define KELP_WORKLOAD_TASK_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/log.hh"
#include "sim/types.hh"
#include "workload/phase.hh"

namespace kelp {
namespace wl {

/** Explicit data-placement share (Remote-DRAM style experiments). */
struct DataShare
{
    sim::SocketId socket = 0;
    sim::SubdomainId subdomain = 0;
    double fraction = 1.0;
};

/** Environment a task executes in during one tick. */
struct ExecEnv
{
    /** Socket the task's threads run on. */
    sim::SocketId socket = 0;

    /** Cores effectively available to this task (may be fractional
     * under fair sharing; includes the SMT bonus capacity). */
    double effCores = 1.0;

    /** Throughput factor from SMT sibling sharing, in (0, 1]. */
    double smtFactor = 1.0;

    /** Current LLC miss rate / standalone miss rate (>= 0). */
    double missRatio = 1.0;

    /** Fraction of the group's prefetchers enabled, in [0, 1]. */
    double pfFraction = 1.0;

    /** Distress-signal core throttle from the previous tick. */
    double throttle = 1.0;

    /** Effective memory latency observed this tick, ns. */
    sim::Nanoseconds latencyNs = 90.0;

    /** Unloaded memory latency, ns. */
    sim::Nanoseconds baseLatencyNs = 90.0;

    /** Granted fraction of demanded bandwidth, in [0, 1]. */
    double bwFraction = 1.0;
};

/** Execution speeds of a host phase under an environment. */
struct HostSpeeds
{
    /** Achieved relative speed (1.0 = standalone), including
     * bandwidth starvation. */
    double speed = 1.0;

    /**
     * Speed the phase would run at if all demanded bandwidth were
     * granted (latency stalls, throttling, and SMT only). This is
     * the correct demand basis: a bandwidth-starved streaming task
     * keeps *offering* its full load -- that pressure is what
     * saturates controllers and asserts the distress signal.
     */
    double demandSpeed = 1.0;
};

/**
 * Relative execution speeds of a host phase under the given
 * environment.
 *
 * Combines: memory-stall inflation from latency, LLC misses and
 * prefetcher stall exposure; bandwidth starvation (bounded by last
 * tick's demand basis); distress throttling; and SMT contention.
 *
 * @param p Host-phase response parameters.
 * @param env The execution environment.
 * @param demand_basis Relative speed assumed when demand was
 *        submitted (the task's smoothed demandSpeed).
 */
HostSpeeds hostSpeeds(const HostPhaseParams &p, const ExecEnv &env,
                      double demand_basis);

/** Achieved speed only (convenience). */
double hostSpeed(const HostPhaseParams &p, const ExecEnv &env,
                 double demand_basis);

/**
 * Bandwidth demand (GiB/s) of a host phase running on the given
 * number of cores at the given relative speed.
 */
double hostDemand(const HostPhaseParams &p, double cores,
                  double speed_basis, double miss_ratio,
                  double pf_fraction);

/**
 * Lifecycle state of a placed task. Dynamic colocations (churn) move
 * tasks through this machine: batch antagonists arrive Running,
 * leave as Finished or Crashed, and the SLO degradation ladder can
 * park a bandwidth hog in Suspended and later resume it. A task only
 * holds cores, generates memory traffic, and makes progress while
 * Running; every other state freezes it in place (its completed work
 * and placement id survive for reporting).
 */
enum class LifeState { Running, Suspended, Finished, Crashed };

const char *lifeStateName(LifeState s);

/**
 * Legality of a lifecycle transition. Running and Suspended move
 * freely between each other and into either terminal state
 * (retirement wins over suspension); Finished and Crashed are
 * terminal -- a retired task never runs again, its id and completed
 * work only survive for reporting.
 */
constexpr bool
legalLifeTransition(LifeState from, LifeState to)
{
    return from == to || from == LifeState::Running ||
           from == LifeState::Suspended;
}

/** Base class for all workloads. */
class Task
{
  public:
    Task(std::string name, sim::GroupId group);
    virtual ~Task() = default;

    const std::string &name() const { return name_; }
    sim::GroupId group() const { return group_; }

    /** Current lifecycle state (Running for the static paper path). */
    LifeState lifeState() const { return lifeState_; }

    void
    setLifeState(LifeState s)
    {
        KELP_INVARIANT(legalLifeTransition(lifeState_, s),
                       "illegal lifecycle transition ",
                       lifeStateName(lifeState_), " -> ",
                       lifeStateName(s), " for task '", name_, "'");
        lifeState_ = s;
        noteChange();
    }

    /** True while the task is scheduled and making progress. */
    bool runnable() const { return lifeState_ == LifeState::Running; }

    /** Unique task id, assigned by the node at placement time. */
    int id() const { return id_; }
    void setId(int id) { id_ = id; }

    /** Socket this task's threads run on. Changes only through
     * setHomeSocket(), which calls noteChange(). */
    sim::SocketId homeSocket() const { return homeSocket_; }
    void
    setHomeSocket(sim::SocketId s)
    {
        homeSocket_ = s;
        noteChange();
    }

    /**
     * Explicit data placement. Empty means "allocate local": demand is
     * split across the subdomains in proportion to the group's cores.
     * Changes only through setDataPlacement(), which calls
     * noteChange().
     */
    const std::vector<DataShare> &dataPlacement() const
    {
        return dataPlacement_;
    }
    void setDataPlacement(std::vector<DataShare> placement);

    /** Number of software threads the task wants to run. An
     * override may change its answer only together with
     * noteChange(). */
    virtual int threadsWanted() const = 0;

    /** Pass 1: bandwidth demand for this tick, GiB/s. */
    virtual sim::GiBps bwDemand(const ExecEnv &env) = 0;

    /** Pass 2: advance task state through dt. */
    virtual void advance(sim::Time dt, const ExecEnv &env) = 0;

    /** Cumulative completed work (task-specific units). */
    virtual double completedWork() const = 0;

    /** Host-phase LLC characteristics for apportionment. An override
     * may change its answer only together with noteChange(): the
     * node apportions the LLC when it rebuilds its shape, not every
     * tick. */
    virtual HostPhaseParams llcProfile() const = 0;

    /** Smoothed achieved relative speed (demand feedback basis). */
    double demandBasis() const { return demandBasis_; }

    /**
     * Hook fired whenever externally-visible task state mutates
     * (lifecycle, placement, threads, request submission). The node
     * uses it to invalidate its shape and its quiescence state.
     */
    void setChangeHook(std::function<void()> hook)
    {
        changeHook_ = std::move(hook);
    }

    /**
     * Fast-path protocol, used only while the node is quiescent (the
     * resolved environment repeats bit-for-bit tick over tick):
     *
     *  - fastPrepare(env, dt): cache whatever advance() would derive
     *    from this exact environment; return false to refuse (then
     *    the node keeps full-ticking this task).
     *  - fastTickReady(dt): true when one more tick of dt cannot
     *    cross an internal boundary (stage finish, arrival, ...).
     *    Must be const: refusal may happen after siblings accepted.
     *  - fastTickRun(dt): apply one tick using the cached values;
     *    bit-identical to advance(dt, env) with the prepared env.
     *    Returns false when the task must leave the fast path after
     *    this tick (the node falls back to full ticks).
     *
     * Default implementation refuses, which is always sound.
     */
    virtual bool fastPrepare(const ExecEnv &env, sim::Time dt)
    {
        (void)env;
        (void)dt;
        return false;
    }
    virtual bool fastTickReady(sim::Time dt) const
    {
        (void)dt;
        return false;
    }
    virtual bool fastTickRun(sim::Time dt)
    {
        (void)dt;
        return true;
    }

    /**
     * Batch extension of the fast-path protocol:
     *
     *  - fastHorizon(dt): a conservative LOWER bound on how many more
     *    ticks of dt this task could take with fastTickReady() true
     *    throughout and fastTickRun() never requesting an exit. 0
     *    means "no promise" and drops the node back to the per-tick
     *    ready/run stepping, so underestimating only costs speed.
     *  - fastTickRunMany(dt, n): apply exactly n fast ticks,
     *    bit-identical to n fastTickRun(dt) calls. Only invoked with
     *    n <= fastHorizon(dt), which lets kernels hoist per-tick
     *    invariants (cached speeds, settled demand basis) out of the
     *    loop and run one floating-point op chain per tick.
     */
    virtual uint64_t fastHorizon(sim::Time dt) const
    {
        (void)dt;
        return 0;
    }
    virtual void fastTickRunMany(sim::Time dt, uint64_t n)
    {
        for (uint64_t i = 0; i < n; ++i)
            fastTickRun(dt);
    }

  protected:
    /** Fold an achieved speed into the demand basis. */
    void updateDemandBasis(double achieved_speed);

    /**
     * The exact successor updateDemandBasis() would produce from
     * `basis` for this achieved speed. Exposed so the fast-path
     * kernels can decide settledness with the same arithmetic the
     * full path uses: the basis is settled iff the step returns its
     * input bit-for-bit.
     */
    static double demandBasisStep(double basis, double achieved_speed);

    /** True when updateDemandBasis(achieved_speed) would be a no-op. */
    bool demandBasisSettled(double achieved_speed) const
    {
        return demandBasisStep(demandBasis_, achieved_speed) ==
               demandBasis_;
    }

    /** Notify the owning node that task state changed. Required with
     * every change to an input of the node's shape (see the file
     * comment). */
    void noteChange()
    {
        if (changeHook_)
            changeHook_();
    }

  private:
    std::string name_;
    sim::GroupId group_;
    int id_ = sim::invalidId;
    sim::SocketId homeSocket_ = 0;
    std::vector<DataShare> dataPlacement_;
    double demandBasis_ = 1.0;
    LifeState lifeState_ = LifeState::Running;
    std::function<void()> changeHook_;
};

} // namespace wl
} // namespace kelp

#endif // KELP_WORKLOAD_TASK_HH
