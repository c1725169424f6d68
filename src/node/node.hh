/**
 * @file
 * Node: a complete accelerated server, and the per-tick orchestration
 * that couples tasks to the hardware models.
 *
 * The tick's *shape* -- everything its pre-resolve pipeline derives
 * from inputs that move only through markDirty() -- is built once per
 * change and reused by every later tick:
 *  1. Core pools per socket (pinned groups own their masked cores;
 *     floating groups share the rest) and each task's effective
 *     cores, folding in fair sharing and SMT capacity.
 *  2. Each LLC domain's apportionment (socket-wide, or per-subdomain
 *     when SNC is on) among the tasks present, and per-task LLC miss
 *     ratios relative to their standalone hit rates.
 *  3. The runnable list with each task's routing constants: socket,
 *     prefetcher fraction, base latency, priority bit and distress
 *     throttle exemption.
 *
 * Every tick the node then reads the previous tick's distress
 * throttles, collects the runnable tasks' bandwidth demands, routes
 * them (explicit data placements for Remote-DRAM experiments, else
 * local-allocation splits across the subdomains where the task holds
 * cores), resolves the memory system and advances every runnable
 * task with its post-resolve environment.
 */

#ifndef KELP_NODE_NODE_HH
#define KELP_NODE_NODE_HH

#include <array>
#include <memory>
#include <vector>

#include "accel/accelerator.hh"
#include "cpu/llc.hh"
#include "cpu/topology.hh"
#include "hal/knobs.hh"
#include "hal/task_group.hh"
#include "mem/mem_system.hh"
#include "node/platform.hh"
#include "sim/engine.hh"
#include "workload/task.hh"

namespace kelp {
namespace node {

/** A fully-assembled accelerated server. */
class Node
{
  public:
    explicit Node(const PlatformSpec &spec);

    const PlatformSpec &spec() const { return spec_; }
    const cpu::Topology &topology() const { return topo_; }
    mem::MemSystem &memSystem() { return mem_; }
    const mem::MemSystem &memSystem() const { return mem_; }
    accel::Accelerator &accelerator() { return accel_; }
    hal::GroupRegistry &groups() { return groups_; }
    hal::ResourceKnobs &knobs() { return knobs_; }

    /** Enable NUMA subdomains on the host (SNC/CoD). */
    void setSncEnabled(bool enabled) { mem_.setSncEnabled(enabled); }
    bool sncEnabled() const { return mem_.sncEnabled(); }

    /**
     * Section VI-C what-if: backpressure that targets the offending
     * threads only -- high-priority groups are exempt from the
     * distress throttle. Off by default (the paper's hardware
     * throttles every core on the socket).
     */
    void setPriorityAwareBackpressure(bool enabled)
    {
        priorityAwareBackpressure_ = enabled;
        markDirty();
    }
    bool priorityAwareBackpressure() const
    {
        return priorityAwareBackpressure_;
    }

    /**
     * Place a task on the node. The node assigns the task id used as
     * its memory-system requestor.
     */
    wl::Task &addTask(std::unique_ptr<wl::Task> task);

    /** Typed convenience overload returning the concrete task type. */
    template <typename T>
    T &
    add(std::unique_ptr<T> task)
    {
        return static_cast<T &>(addTask(std::move(task)));
    }

    /** All placed tasks. */
    const std::vector<std::unique_ptr<wl::Task>> &tasks() const
    {
        return tasks_;
    }

    /** Task by node-assigned id, or nullptr. Ids are stable: tasks
     * are never erased, only moved to a terminal lifecycle state. */
    wl::Task *taskById(int id);

    /**
     * Threads wanted by the *runnable* members of a group on a
     * socket. Controllers re-read this every sample under churn
     * instead of assuming a fixed colocation.
     */
    int runnableThreadsInGroup(sim::GroupId group,
                               sim::SocketId socket) const;

    /**
     * The runnable member of a group with the highest bandwidth
     * demand on the last tick (ties break toward the lowest task id).
     * Nullptr when the group has no runnable members. This is the SLO
     * ladder's eviction victim: the antagonist hurting the ML task
     * most right now.
     */
    wl::Task *hungriestRunnable(sim::GroupId group);

    /** Register the node's tick pipeline with an engine, including
     * the event-driven fast-forward hook. */
    void attach(sim::Engine &engine);

    /** Execute one tick (exposed for tests; attach() drives this). */
    void tick(sim::Time now, sim::Time dt);

    /** Last computed environment for a task (inspection/tests). */
    const wl::ExecEnv &lastEnv(const wl::Task &task) const;

    /**
     * Enable/disable the event-driven fast path (default on).
     * Disabling forces every tick through the full pipeline; the
     * results are bit-identical either way -- the fast path only
     * engages where it can prove ticks are repeats.
     */
    void setEventDrivenEnabled(bool enabled)
    {
        eventDriven_ = enabled;
        markDirty();
    }
    bool eventDrivenEnabled() const { return eventDriven_; }

    /**
     * Fast-forward up to max_ticks quiescent ticks; returns how many
     * were consumed (0 = not quiescent). attach() wires this into
     * the engine; exposed for tests.
     */
    uint64_t fastForward(sim::Time now, sim::Time dt,
                         uint64_t max_ticks);

    /** Invalidate the shape and quiescence (knob writes, lifecycle
     * changes, task arrivals, config flips all funnel here via change
     * hooks). The next tick rebuilds the shape. */
    void markDirty()
    {
        shapeDirty_ = true;
        breakQuiescence();
    }

    /** Per-task bwDemand() calls made by the full tick path. */
    uint64_t demandCalls() const { return demandCalls_; }

    /** Per-task advance() calls made by the full tick path. */
    uint64_t advanceCalls() const { return advanceCalls_; }

    /** Task-ticks consumed through the fast path. */
    uint64_t fastTaskTicks() const { return fastTaskTicks_; }

    /** Shape rebuilds: one per tick that followed a markDirty(). */
    uint64_t shapeBuilds() const { return shapeBuilds_; }

  private:
    struct TaskState
    {
        wl::Task *task = nullptr;
        wl::ExecEnv env;
        /** Bandwidth demand submitted on the last tick, GiB/s. */
        double lastDemand = 0.0;
    };

    /** One task's slice of the shape. */
    struct TaskShape
    {
        double effCores = 0.0;
        double smtFactor = 1.0;
        double missRatio = 1.0;
        /** Effective cores per subdomain of the home socket. */
        std::array<double, 2> coresPerSub = {0.0, 0.0};
        /** Routing constants, set for runnable tasks only. */
        sim::SocketId socket = 0;
        double pfFraction = 1.0;
        sim::Nanoseconds baseLatencyNs = 0.0;
        /** High-priority group: the flows' request-priority bit. */
        bool high = false;
        /** Exempt from the distress throttle (priority-aware
         * backpressure on a high-priority group). */
        bool throttleExempt = false;
    };

    /**
     * What the pre-resolve pipeline derives from the groups, the
     * memory configuration and each task's lifecycle, home socket,
     * threads, data placement and LLC profile. None of these move
     * without markDirty(), so the shape is rebuilt only on the tick
     * after one; the throttle is the one per-tick input left.
     */
    struct Shape
    {
        /** Indexed by task id. */
        std::vector<TaskShape> tasks;
        /** Ids of the runnable tasks, ascending. */
        std::vector<int> live;
    };

    /** A set of tasks sharing a set of cores: one per pinned group
     * per socket, plus one floating pool per socket over the
     * unpinned cores. */
    struct Pool
    {
        bool pinned = false;
        double cores = 0.0;
        std::array<double, 2> coresPerSub = {0.0, 0.0};
        int threads = 0;
        std::vector<int> members;
    };

    /** Clear the fast path's proof of quiescence; the shape stays. */
    void breakQuiescence()
    {
        dirty_ = true;
        fastReady_ = false;
        quietStreak_ = 0;
    }

    /** Build the shape from the current inputs into `out`. */
    void buildShape(Shape &out);

    /** Shape part 1: pools, effective cores, SMT. */
    void computeCoreShares(Shape &out);

    /** Shape part 2: LLC apportionment and miss ratios. */
    void computeLlc(Shape &out);

    /** Rebuild shape_ and copy it into the task environments. */
    void rebuildShape();

    /** Demands, memory resolution, task advancement. */
    void resolveAndAdvance(sim::Time dt);

    /** Ask every runnable task to cache its quiescent-tick kernel
     * against its last resolved environment; true when all accept
     * and their demands still match what the resolve cache saw. */
    bool tryPrepareFast(sim::Time dt);

    /** Debug cross-check, the one site for the shape: rebuild it into
     * a copy and KELP_INVARIANT bitwise equality with shape_ and with
     * the environments it was copied into. */
    void verifyShape();

    /** Debug cross-check of a fast-forwarded chunk: verifyShape()
     * plus the throttles and demands the chunk repeats. */
    void verifyQuiescent();

    PlatformSpec spec_;
    cpu::Topology topo_;
    mem::MemSystem mem_;
    accel::Accelerator accel_;
    hal::GroupRegistry groups_;
    hal::ResourceKnobs knobs_;

    std::vector<std::unique_ptr<wl::Task>> tasks_;
    std::vector<TaskState> states_;
    bool priorityAwareBackpressure_ = false;

    /** The tick's shape; shapeDirty_ is raised by markDirty() and
     * cleared by the rebuild at the start of the next tick. */
    Shape shape_;
    bool shapeDirty_ = true;
    uint64_t shapeBuilds_ = 0;

    /** Event-driven engine state. dirty_ is raised by any change
     * hook; quietStreak_ counts consecutive full ticks that were
     * resolve-cache hits with no dirt; fastReady_ marks the task
     * kernels as prepared for the current environment. */
    bool eventDriven_ = true;
    bool dirty_ = true;
    int quietStreak_ = 0;
    bool fastReady_ = false;
    uint64_t demandCalls_ = 0;
    uint64_t advanceCalls_ = 0;
    uint64_t fastTaskTicks_ = 0;

    /** Shape-build scratch, reused so a rebuild allocates nothing
     * once the task count is stable: core pools indexed by group id
     * plus the floating pool, each task's llcProfile() (read once per
     * build), one LLC domain's requests with the task ids they came
     * from and the shares they received (aligned), and the debug
     * cross-check's copy of the shape. */
    std::vector<Pool> pools_;
    Pool floatingPool_;
    std::vector<wl::HostPhaseParams> llcProfiles_;
    std::vector<cpu::LlcRequest> llcReqs_;
    std::vector<int> llcPresent_;
    std::vector<cpu::LlcShare> llcShares_;
    std::vector<size_t> llcOrder_;
    Shape shapeCheck_;
};

} // namespace node
} // namespace kelp

#endif // KELP_NODE_NODE_HH
