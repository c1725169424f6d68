#include "node/node.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "sim/log.hh"

namespace kelp {
namespace node {

Node::Node(const PlatformSpec &spec)
    : spec_(spec), topo_(spec.topo), mem_(spec.mem),
      accel_(spec.accel), groups_(topo_), knobs_(groups_)
{
    // Any group-knob write or memory-system reconfiguration breaks
    // quiescence; the hooks funnel them all into markDirty().
    groups_.setChangeHook([this]() { markDirty(); });
    mem_.setChangeHook([this]() { markDirty(); });
}

wl::Task &
Node::addTask(std::unique_ptr<wl::Task> task)
{
    KELP_ASSERT(task, "null task");
    KELP_ASSERT(task->group() >= 0 && task->group() < groups_.size(),
                "task placed into unknown group ", task->group());
    task->setId(static_cast<int>(tasks_.size()));
    task->setChangeHook([this]() { markDirty(); });
    tasks_.push_back(std::move(task));
    states_.emplace_back();
    states_.back().task = tasks_.back().get();
    markDirty();
    return *tasks_.back();
}

void
Node::attach(sim::Engine &engine)
{
    engine.onTick([this](sim::Time now, sim::Time dt) {
        tick(now, dt);
    });
    engine.setFastForward(
        [this](sim::Time now, sim::Time dt, uint64_t max_ticks) {
            return fastForward(now, dt, max_ticks);
        });
}

const wl::ExecEnv &
Node::lastEnv(const wl::Task &task) const
{
    KELP_ASSERT(task.id() >= 0 &&
                task.id() < static_cast<int>(states_.size()),
                "task not placed on this node");
    return states_[task.id()].env;
}

wl::Task *
Node::taskById(int id)
{
    if (id < 0 || id >= static_cast<int>(tasks_.size()))
        return nullptr;
    return tasks_[id].get();
}

int
Node::runnableThreadsInGroup(sim::GroupId group,
                             sim::SocketId socket) const
{
    int threads = 0;
    for (const auto &t : tasks_) {
        if (t->group() == group && t->homeSocket() == socket &&
            t->runnable()) {
            threads += t->threadsWanted();
        }
    }
    return threads;
}

wl::Task *
Node::hungriestRunnable(sim::GroupId group)
{
    wl::Task *best = nullptr;
    double best_demand = -1.0;
    for (auto &st : states_) {
        if (st.task->group() != group || !st.task->runnable())
            continue;
        if (st.lastDemand > best_demand) {
            best_demand = st.lastDemand;
            best = st.task;
        }
    }
    return best;
}

void
Node::computeCoreShares(Shape &out)
{
    pools_.resize(static_cast<size_t>(groups_.size()));
    for (int s = 0; s < topo_.sockets(); ++s) {
        for (Pool &p : pools_) {
            p.pinned = false;
            p.threads = 0;
            p.members.clear();
        }
        Pool &floating = floatingPool_;
        floating.threads = 0;
        floating.members.clear();

        int pinned_cores = 0;
        for (const auto &g : groups_.all()) {
            if (!g->floating() && g->cores().inSocket(s) > 0) {
                Pool &p = pools_[static_cast<size_t>(g->id())];
                p.pinned = true;
                p.cores = g->cores().inSocket(s);
                p.coresPerSub[0] = g->cores().inSubdomain(s, 0);
                p.coresPerSub[1] = g->cores().inSubdomain(s, 1);
                pinned_cores += g->cores().inSocket(s);
            }
        }
        floating.cores = std::max(
            topo_.coresPerSocket() - pinned_cores, 0);
        floating.coresPerSub[0] = floating.cores / 2.0;
        floating.coresPerSub[1] = floating.cores / 2.0;

        // Suspended/terminated tasks hold no cores and make no
        // progress: they keep TaskShape's zero cores and neutral SMT
        // factor, and their slots return to the pool.
        for (const auto &t : tasks_) {
            if (t->homeSocket() != s || !t->runnable())
                continue;
            const auto &g = groups_.get(t->group());
            Pool &pinned = pools_[static_cast<size_t>(g.id())];
            Pool &pool = !g.floating() && pinned.pinned ? pinned
                                                         : floating;
            pool.threads += t->threadsWanted();
            pool.members.push_back(t->id());
        }

        auto apply = [this, &out](Pool &pool) {
            if (pool.members.empty())
                return;
            double smt = topo_.config().smtSiblingFactor;
            for (int id : pool.members) {
                TaskShape &ts = out.tasks[static_cast<size_t>(id)];
                int n = tasks_[static_cast<size_t>(id)]->threadsWanted();
                // Slots: how many of the task's threads can run at
                // once (SMT doubles thread capacity). SMT factor: the
                // per-running-thread throughput penalty from sibling
                // sharing.
                double slots_frac = 0.0;
                double smt_factor = 1.0;
                if (pool.cores > 0.0 && pool.threads > 0) {
                    double r = pool.threads / pool.cores;
                    if (r <= 1.0) {
                        slots_frac = 1.0;
                    } else {
                        double running = std::min(
                            static_cast<double>(pool.threads),
                            2.0 * pool.cores);
                        double c_eff = pool.cores *
                            (1.0 + smt * std::min(r - 1.0, 1.0));
                        slots_frac = running / pool.threads;
                        smt_factor = c_eff / running;
                    }
                }
                ts.effCores = n * slots_frac;
                ts.smtFactor = smt_factor;
                // Split a task's effective cores across subdomains in
                // proportion to the pool's core placement.
                for (int d = 0; d < 2; ++d) {
                    ts.coresPerSub[d] = pool.cores > 0.0 ?
                        ts.effCores * (pool.coresPerSub[d] / pool.cores) :
                        0.0;
                }
            }
        };

        for (Pool &p : pools_)
            if (p.pinned)
                apply(p);
        apply(floating);
    }
}

void
Node::computeLlc(Shape &out)
{
    // A task accumulates one weighted miss-ratio contribution per LLC
    // domain it has cores in (-1 marks "no contribution yet"). Any
    // task with cores in some domain has them on its socket, so its
    // profile is read here once for every domain below.
    llcProfiles_.resize(tasks_.size());
    for (size_t i = 0; i < tasks_.size(); ++i) {
        TaskShape &ts = out.tasks[i];
        ts.missRatio = -1.0;
        if (ts.coresPerSub[0] + ts.coresPerSub[1] > 1e-9)
            llcProfiles_[i] = tasks_[i]->llcProfile();
    }

    bool snc = mem_.sncEnabled();
    for (int s = 0; s < topo_.sockets(); ++s) {
        int domains = snc ? 2 : 1;
        for (int d = 0; d < domains; ++d) {
            cpu::Llc llc(snc ? topo_.llcMbPerSubdomain() :
                               topo_.config().llcMbPerSocket,
                         snc ? topo_.llcWaysPerSubdomain() :
                               topo_.config().llcWays);

            // Gather requests from tasks with cores in this domain.
            llcReqs_.clear();
            llcPresent_.clear();
            for (size_t i = 0; i < tasks_.size(); ++i) {
                const wl::Task &t = *tasks_[i];
                const TaskShape &ts = out.tasks[i];
                if (t.homeSocket() != s)
                    continue;
                double cores = snc ? ts.coresPerSub[d] :
                    ts.coresPerSub[0] + ts.coresPerSub[1];
                if (cores <= 1e-9)
                    continue;
                const auto &g = groups_.get(t.group());
                const wl::HostPhaseParams &p = llcProfiles_[i];
                cpu::LlcRequest r;
                r.group = t.id();
                r.footprintMb = p.llcFootprintMb;
                r.weight = p.llcWeight * cores;
                r.dedicatedWays =
                    std::min(g.catWays(), llc.ways() - 1);
                r.hitMax = p.llcHitMax;
                llcReqs_.push_back(r);
                llcPresent_.push_back(t.id());
            }
            if (llcReqs_.empty())
                continue;

            llc.apportion(llcReqs_, llcShares_, llcOrder_);
            for (size_t i = 0; i < llcPresent_.size(); ++i) {
                const auto id = static_cast<size_t>(llcPresent_[i]);
                TaskShape &ts = out.tasks[id];
                const wl::HostPhaseParams &p = llcProfiles_[id];
                // Standalone reference: the full socket LLC, alone,
                // SNC off (the paper's normalization baseline).
                double hit_alone = cpu::Llc::hitRate(
                    topo_.config().llcMbPerSocket,
                    p.llcFootprintMb, p.llcHitMax);
                double hit_now = llcShares_[i].hitRate;
                double miss_alone = std::max(1.0 - hit_alone, 0.01);
                double miss_now = std::max(1.0 - hit_now, 0.0);
                double ratio = miss_now / miss_alone;
                // Weight by the task's core split across domains so
                // spanning tasks blend their two domains' ratios.
                double c0 = ts.coresPerSub[0];
                double c1 = ts.coresPerSub[1];
                double total = c0 + c1;
                double w = 1.0;
                if (snc && total > 0.0)
                    w = (d == 0 ? c0 : c1) / total;
                double contrib = ratio * w;
                ts.missRatio = ts.missRatio < 0.0 ?
                    contrib : ts.missRatio + contrib;
            }
        }
    }

    // Tasks with no cores anywhere keep the neutral ratio.
    for (TaskShape &ts : out.tasks)
        if (ts.missRatio < 0.0)
            ts.missRatio = 1.0;
}

void
Node::buildShape(Shape &out)
{
    out.tasks.assign(tasks_.size(), TaskShape{});
    computeCoreShares(out);
    computeLlc(out);

    out.live.clear();
    for (const auto &t : tasks_) {
        if (!t->runnable())
            continue;
        const auto &g = groups_.get(t->group());
        TaskShape &ts = out.tasks[static_cast<size_t>(t->id())];
        ts.socket = t->homeSocket();
        ts.pfFraction = g.floating() ? 1.0 : g.prefetcherFraction();
        ts.baseLatencyNs = mem_.baseLatency();
        ts.high = g.priority() == hal::Priority::High;
        ts.throttleExempt = priorityAwareBackpressure_ && ts.high;
        out.live.push_back(t->id());
    }
}

void
Node::rebuildShape()
{
    buildShape(shape_);
    shapeDirty_ = false;
    ++shapeBuilds_;
    // Non-runnable tasks keep their last routing constants in
    // lastEnv(); they submit no demand until they run again.
    for (size_t i = 0; i < states_.size(); ++i) {
        TaskState &st = states_[i];
        const TaskShape &ts = shape_.tasks[i];
        st.env.effCores = ts.effCores;
        st.env.smtFactor = ts.smtFactor;
        st.env.missRatio = ts.missRatio;
        if (!st.task->runnable()) {
            st.lastDemand = 0.0;
            continue;
        }
        st.env.socket = ts.socket;
        st.env.pfFraction = ts.pfFraction;
        st.env.baseLatencyNs = ts.baseLatencyNs;
    }
}

void
Node::resolveAndAdvance(sim::Time dt)
{
    // Throttles from the previous tick's distress state (one tick of
    // physical signal propagation).
    std::array<double, 2> throttle = {1.0, 1.0};
    for (int s = 0; s < mem_.numSockets(); ++s)
        throttle[s] = mem_.coreThrottle(s);

    mem_.beginTick();

    // Pass 1: collect and route demands.
    for (int id : shape_.live) {
        TaskState &st = states_[static_cast<size_t>(id)];
        const TaskShape &ts = shape_.tasks[static_cast<size_t>(id)];
        st.env.throttle = ts.throttleExempt ? 1.0 : throttle[ts.socket];

        sim::GiBps demand = st.task->bwDemand(st.env);
        ++demandCalls_;
        st.lastDemand = std::max(demand, 0.0);
        if (demand <= 0.0)
            continue;

        sim::SocketId home = ts.socket;
        if (!st.task->dataPlacement().empty()) {
            // Explicit placement (Remote-DRAM experiments). The
            // requesting subdomain is where most of its cores sit.
            sim::SubdomainId req_sub =
                ts.coresPerSub[1] > ts.coresPerSub[0] ? 1 : 0;
            for (const auto &share : st.task->dataPlacement()) {
                mem::Route route{home, req_sub, share.socket,
                                 share.subdomain};
                mem_.addFlow(id, route, demand * share.fraction,
                             ts.high);
            }
        } else {
            // Local allocation: data lives where the cores are.
            double c0 = ts.coresPerSub[0];
            double c1 = ts.coresPerSub[1];
            double total = c0 + c1;
            if (total <= 1e-12) {
                continue;
            }
            if (c0 > 1e-12) {
                mem_.addFlow(id, {home, 0, home, 0},
                             demand * c0 / total, ts.high);
            }
            if (c1 > 1e-12) {
                mem_.addFlow(id, {home, 1, home, 1},
                             demand * c1 / total, ts.high);
            }
        }
    }

    mem_.resolve(dt);

    // Pass 2: advance with post-resolve environments. Non-runnable
    // tasks are frozen: no progress, no demand-basis updates.
    for (int id : shape_.live) {
        TaskState &st = states_[static_cast<size_t>(id)];
        mem::Grant grant = mem_.grant(id);
        st.env.latencyNs = grant.latency;
        st.env.bwFraction = grant.fraction;
        st.task->advance(dt, st.env);
        ++advanceCalls_;
    }
}

void
Node::tick(sim::Time now, sim::Time dt)
{
    (void)now;
    if (shapeDirty_) {
        rebuildShape();
    } else {
#ifndef NDEBUG
        verifyShape();
#endif
    }
    resolveAndAdvance(dt);

    // Quiescence tracking: a tick is quiet when nothing marked the
    // node dirty and the memory system proved the flow set repeated
    // (resolve-cache hit). Any full tick invalidates the prepared
    // task kernels -- a task may have advanced through an internal
    // boundary (stage change) that a cached kernel would miss.
    bool quiet = !dirty_ && mem_.lastResolveHit();
    dirty_ = false;
    fastReady_ = false;
    if (quiet)
        ++quietStreak_;
    else
        quietStreak_ = 0;
}

bool
Node::tryPrepareFast(sim::Time dt)
{
    for (int id : shape_.live) {
        TaskState &st = states_[static_cast<size_t>(id)];
        if (!st.task->fastPrepare(st.env, dt))
            return false;
        // A stage transition inside the last advance() can move this
        // tick's demand while the resolve cache only notices one
        // tick later; require the demand to still be exactly what
        // the cache validated.
        if (std::max(st.task->bwDemand(st.env), 0.0) != st.lastDemand)
            return false;
    }
    fastReady_ = true;
    return true;
}

uint64_t
Node::fastForward(sim::Time now, sim::Time dt, uint64_t max_ticks)
{
    (void)now;
    // Two quiet ticks are required, not one: a resolve hit at tick N
    // proves tick N repeated N-1, which pins the throttle (computed
    // from N-1's distress state) for N+1 as well. A change made
    // inside the last tick's advance() leaves only the shape dirty.
    if (!eventDriven_ || dirty_ || shapeDirty_ || quietStreak_ < 2)
        return 0;
    if (!fastReady_ && !tryPrepareFast(dt))
        return 0;

    uint64_t done = 0;
    while (done < max_ticks) {
        // Batched chunk: every runnable task promises a conservative
        // horizon of safe ticks; run the overlap through the batch
        // kernels, one op chain per tick instead of two virtual
        // dispatches per task per tick.
        uint64_t h = max_ticks - done;
        for (int id : shape_.live) {
            h = std::min(h, tasks_[static_cast<size_t>(id)]
                                ->fastHorizon(dt));
            if (h == 0)
                break;
        }
        if (h > 0) {
#ifndef NDEBUG
            verifyQuiescent();
#endif
            for (int id : shape_.live)
                tasks_[static_cast<size_t>(id)]->fastTickRunMany(dt, h);
            fastTaskTicks_ += h * shape_.live.size();
            done += h;
            continue;
        }

        // Boundary ticks (a task stopped promising a horizon): fall
        // back to per-tick stepping through the ready/run protocol.
        // Phase 1 (const): every runnable task must accept one more
        // tick before anything mutates, so a refusal leaves the
        // model exactly at a full-tick boundary.
        bool ready = true;
        for (int id : shape_.live) {
            if (!tasks_[static_cast<size_t>(id)]->fastTickReady(dt)) {
                ready = false;
                break;
            }
        }
        if (!ready)
            break;
#ifndef NDEBUG
        verifyQuiescent();
#endif
        // Phase 2: apply the cached kernels.
        bool keep = true;
        for (int id : shape_.live) {
            if (!tasks_[static_cast<size_t>(id)]->fastTickRun(dt))
                keep = false;
        }
        fastTaskTicks_ += shape_.live.size();
        ++done;
        if (!keep) {
            // A task crossed an internal edge; fall back to full
            // ticks so next tick's demand is recomputed. The shape
            // does not depend on task-internal state and stays.
            breakQuiescence();
            break;
        }
    }
    // The memory-system integrals are independent of task state
    // while the flow set is frozen, so they batch at the end.
    if (done > 0)
        mem_.fastForward(done, dt);
    return done;
}

namespace {

/** Bitwise equality: unlike ==, tells -0.0 from 0.0 and matches NaN
 * payloads. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

} // namespace

void
Node::verifyShape()
{
    // Rebuilding into a copy leaves the node untouched, so the check
    // cannot steer the run it checks.
    buildShape(shapeCheck_);
    KELP_INVARIANT(shapeCheck_.live == shape_.live &&
                       shapeCheck_.tasks.size() == shape_.tasks.size(),
                   "shape drifted: the runnable set changed without "
                   "markDirty()");
    for (size_t i = 0; i < shape_.tasks.size(); ++i) {
        const TaskShape &a = shape_.tasks[i];
        const TaskShape &b = shapeCheck_.tasks[i];
        KELP_INVARIANT(sameBits(a.effCores, b.effCores) &&
                           sameBits(a.smtFactor, b.smtFactor) &&
                           sameBits(a.missRatio, b.missRatio) &&
                           sameBits(a.coresPerSub[0], b.coresPerSub[0]) &&
                           sameBits(a.coresPerSub[1], b.coresPerSub[1]),
                       "shape core/LLC state drifted for task '",
                       tasks_[i]->name(), "'");
        KELP_INVARIANT(a.socket == b.socket &&
                           sameBits(a.pfFraction, b.pfFraction) &&
                           sameBits(a.baseLatencyNs, b.baseLatencyNs) &&
                           a.high == b.high &&
                           a.throttleExempt == b.throttleExempt,
                       "shape routing state drifted for task '",
                       tasks_[i]->name(), "'");
        const wl::ExecEnv &env = states_[i].env;
        KELP_INVARIANT(sameBits(env.effCores, a.effCores) &&
                           sameBits(env.smtFactor, a.smtFactor) &&
                           sameBits(env.missRatio, a.missRatio),
                       "environment of task '", tasks_[i]->name(),
                       "' left its shape");
    }
    for (int id : shape_.live) {
        const TaskShape &a = shape_.tasks[static_cast<size_t>(id)];
        const wl::ExecEnv &env = states_[static_cast<size_t>(id)].env;
        KELP_INVARIANT(env.socket == a.socket &&
                           sameBits(env.pfFraction, a.pfFraction) &&
                           sameBits(env.baseLatencyNs, a.baseLatencyNs),
                       "routing environment of task '",
                       tasks_[static_cast<size_t>(id)]->name(),
                       "' left its shape");
    }
}

void
Node::verifyQuiescent()
{
    // The shape's own check covers cores, LLC and routing; what a
    // fast-forwarded chunk adds is that the throttles and demands
    // are fixed points too.
    verifyShape();

    std::array<double, 2> throttle = {1.0, 1.0};
    for (int s = 0; s < mem_.numSockets(); ++s)
        throttle[s] = mem_.coreThrottle(s);

    for (int id : shape_.live) {
        TaskState &st = states_[static_cast<size_t>(id)];
        const TaskShape &ts = shape_.tasks[static_cast<size_t>(id)];
        double th = ts.throttleExempt ? 1.0 : throttle[ts.socket];
        KELP_INVARIANT(st.env.throttle == th,
                       "fast-forward throttle state drifted for task '",
                       st.task->name(), "'");
        KELP_INVARIANT(std::max(st.task->bwDemand(st.env), 0.0) ==
                           st.lastDemand,
                       "fast-forward demand drifted for task '",
                       st.task->name(), "'");
    }
}

} // namespace node
} // namespace kelp
