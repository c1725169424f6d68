#include "workload/ml_infer_task.hh"

#include <algorithm>

#include "sim/log.hh"

namespace kelp {
namespace wl {

MlInferTask::MlInferTask(std::string name, sim::GroupId group,
                         InferConfig cfg, accel::Accelerator *accel,
                         uint64_t seed)
    : Task(std::move(name), group), cfg_(std::move(cfg)),
      accel_(accel), rng_(seed)
{
    KELP_ASSERT(!cfg_.iteration.stages.empty(),
                "inference iteration has no stages");
    for (const auto &stage : cfg_.iteration.stages)
        KELP_ASSERT(stage.segments.size() == 1,
                    "inference stages must have one segment each");
    KELP_ASSERT(cfg_.itersPerRequest >= 1, "need >= 1 iteration");
    KELP_ASSERT(cfg_.pipelineDepth >= 1, "need pipeline depth >= 1");
    if (cfg_.serial) {
        cfg_.closedLoop = true;
        cfg_.pipelineDepth = 1;
    }
    KELP_ASSERT(!(cfg_.serial && cfg_.externalArrivals),
                "serial trace mode cannot be externally driven");
    if (cfg_.externalArrivals) {
        cfg_.closedLoop = false;
        // Never reached: submit() is the only arrival source.
        nextArrival_ = 1e300;
    } else if (!cfg_.closedLoop) {
        KELP_ASSERT(cfg_.targetQps > 0.0, "target QPS must be > 0");
        nextArrival_ = rng_.exponential(1.0 / cfg_.targetQps);
    }
}

void
MlInferTask::submit(sim::Time arrival)
{
    KELP_EXPECTS(cfg_.externalArrivals,
                 "submit() is only valid in externalArrivals mode");
    queue_.push_back(arrival);
    noteChange();
}

bool
MlInferTask::fastPrepare(const ExecEnv &env, sim::Time dt)
{
    (void)env;
    (void)dt;
    // Only the fully-idle server has a fast kernel: a closed loop
    // re-arms itself instantly and never idles, and any queued or
    // in-flight request makes intra-tick event processing necessary.
    return !cfg_.closedLoop && queued() == 0 && inFlight_.empty();
}

bool
MlInferTask::fastTickReady(sim::Time dt) const
{
    // Conservative: the next arrival must lie strictly beyond this
    // tick (externally-driven tasks hold a 1e300 sentinel here).
    return nextArrival_ > now_ + dt;
}

bool
MlInferTask::fastTickRun(sim::Time dt)
{
    // Replay of advance() on an idle server: the event loop runs no
    // admissions or retirements and the trailing assignment leaves
    // now_ at exactly entry-now_ + dt.
    now_ = now_ + dt;
    if (accel_) {
        accel_->recordEngineBusy(0.0, dt);
        accel_->recordLinkBusy(0.0, dt);
    }
    return true;
}

uint64_t
MlInferTask::fastHorizon(sim::Time dt) const
{
    // Ticks until the next arrival could fall inside one, with a
    // margin of a few ticks: per-tick accumulation of now_ drifts
    // from the closed-form division by at most a few ulp per tick,
    // and an overestimate here would skip a tick the stepped
    // protocol would have refused. (Externally-driven tasks hold a
    // 1e300 sentinel, which simply yields a huge horizon.)
    double ticks = (nextArrival_ - now_) / dt;
    if (!(ticks > 5.0))
        return 0;
    return static_cast<uint64_t>(std::min(ticks - 4.0, 1e15));
}

void
MlInferTask::fastTickRunMany(sim::Time dt, uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        now_ = now_ + dt;
    if (accel_)
        accel_->recordBusyRepeat(0.0, 0.0, dt, n);
}

const StepSegment &
MlInferTask::segmentOf(const Request &r) const
{
    return cfg_.iteration.stages[r.stage].segments[0];
}

int
MlInferTask::threadsWanted() const
{
    int threads = 1;
    for (const auto &stage : cfg_.iteration.stages) {
        const auto &seg = stage.segments[0];
        if (seg.kind == SegmentKind::Host)
            threads = std::max(threads, seg.host.parallelism);
    }
    // The pipeline can have several requests in host stages at once.
    return threads * std::min(cfg_.pipelineDepth, 2);
}

HostPhaseParams
MlInferTask::llcProfile() const
{
    for (const auto &stage : cfg_.iteration.stages) {
        const auto &seg = stage.segments[0];
        if (seg.kind == SegmentKind::Host)
            return seg.host;
    }
    return HostPhaseParams{};
}

bool
MlInferTask::advanceStage(Request &r)
{
    if (traceSink_) {
        traceSink_({segmentOf(r).kind, r.segmentStart, now_, r.iter});
    }
    ++r.stage;
    if (r.stage >= cfg_.iteration.stages.size()) {
        r.stage = 0;
        ++r.iter;
        if (r.iter >= cfg_.itersPerRequest)
            return true;
    }
    r.remaining = segmentOf(r).duration;
    r.segmentStart = now_;
    return false;
}

void
MlInferTask::admitFromQueue()
{
    while (static_cast<int>(inFlight_.size()) < cfg_.pipelineDepth &&
           queued() > 0) {
        Request r;
        r.arrival = queue_[queueHead_++];
        r.remaining = segmentOf(r).duration;
        r.segmentStart = now_;
        inFlight_.push_back(r);
    }
    // Drop the admitted prefix: at once when the queue drained, else
    // when it fills half the storage, which keeps a long backlog's
    // compaction amortised O(1) per request.
    if (queueHead_ == queue_.size()) {
        queue_.clear();
        queueHead_ = 0;
    } else if (2 * queueHead_ >= queue_.size()) {
        queue_.erase(queue_.begin(),
                     queue_.begin() + static_cast<long>(queueHead_));
        queueHead_ = 0;
    }
}

sim::GiBps
MlInferTask::bwDemand(const ExecEnv &env)
{
    // Demand comes from requests currently in host segments.
    int host_active = 0;
    const HostPhaseParams *params = nullptr;
    for (const auto &r : inFlight_) {
        const auto &seg = segmentOf(r);
        if (seg.kind == SegmentKind::Host) {
            ++host_active;
            params = &seg.host;
        }
    }
    if (!host_active)
        return 0.0;
    double share = env.effCores / host_active;
    double cores_each =
        std::min(share, static_cast<double>(params->parallelism));
    return hostDemand(*params, cores_each * host_active, demandBasis(),
                      env.missRatio, env.pfFraction);
}

void
MlInferTask::advance(sim::Time dt, const ExecEnv &env)
{
    sim::Time end = now_ + dt;
    sim::Time accel_busy = 0.0;
    sim::Time link_busy = 0.0;
    double last_host_speed = -1.0;

    // Event loop within the tick: advance to the next segment
    // completion or arrival, whichever is first.
    int guard = 0;
    while (now_ < end - 1e-12) {
        KELP_ASSERT(++guard < 100000, "inference event loop stuck");

        // Admit arrivals that have already happened.
        if (!cfg_.closedLoop) {
            // Externally-driven tasks get arrivals via submit()
            // only; the self-generating branch never runs for them
            // (nextArrival_ stays at its sentinel).
            while (nextArrival_ <= now_ + 1e-12) {
                queue_.push_back(nextArrival_);
                nextArrival_ += rng_.exponential(1.0 / cfg_.targetQps);
            }
        } else {
            // Closed loop: keep exactly pipelineDepth requests in
            // flight; a fresh one arrives the moment a slot frees.
            while (static_cast<int>(inFlight_.size() + queued()) <
                   cfg_.pipelineDepth) {
                queue_.push_back(now_);
            }
        }
        admitFromQueue();

        // Compute speeds for every in-flight request.
        int host_active = 0;
        for (const auto &r : inFlight_)
            if (segmentOf(r).kind == SegmentKind::Host)
                ++host_active;

        bool accel_taken = false, pcie_taken = false;
        std::vector<double> &speed = speedScratch_;
        speed.assign(inFlight_.size(), 0.0);
        for (size_t i = 0; i < inFlight_.size(); ++i) {
            const auto &seg = segmentOf(inFlight_[i]);
            switch (seg.kind) {
              case SegmentKind::Host: {
                double share = env.effCores / host_active;
                double cores_each = std::min(
                    share, static_cast<double>(seg.host.parallelism));
                double core_scale =
                    cores_each / seg.host.parallelism;
                HostSpeeds sp =
                    hostSpeeds(seg.host, env, demandBasis());
                speed[i] = std::max(sp.speed * core_scale, 1e-6);
                last_host_speed = sp.demandSpeed;
                break;
              }
              case SegmentKind::Accel:
                // FIFO: only the first accel-stage request runs.
                if (!accel_taken) {
                    speed[i] = 1.0;
                    accel_taken = true;
                }
                break;
              case SegmentKind::Pcie:
                if (!pcie_taken) {
                    speed[i] = 1.0;
                    pcie_taken = true;
                }
                break;
            }
        }

        // Next event: earliest completion, next arrival, or tick end.
        sim::Time horizon = end;
        if (!cfg_.closedLoop)
            horizon = std::min(horizon, nextArrival_);
        for (size_t i = 0; i < inFlight_.size(); ++i) {
            if (speed[i] > 0.0) {
                horizon = std::min(
                    horizon, now_ + inFlight_[i].remaining / speed[i]);
            }
        }
        sim::Time slice = std::max(horizon - now_, 1e-12);

        for (size_t i = 0; i < inFlight_.size(); ++i) {
            if (speed[i] > 0.0)
                inFlight_[i].remaining -= slice * speed[i];
            const auto &seg = segmentOf(inFlight_[i]);
            if (speed[i] > 0.0 && seg.kind == SegmentKind::Accel)
                accel_busy += slice;
            if (speed[i] > 0.0 && seg.kind == SegmentKind::Pcie)
                link_busy += slice;
        }
        now_ += slice;

        // Retire completed segments and requests.
        for (size_t i = 0; i < inFlight_.size();) {
            if (inFlight_[i].remaining <= 1e-12) {
                if (advanceStage(inFlight_[i])) {
                    latency_.add(now_ - inFlight_[i].arrival);
                    ++completed_;
                    if (completionSink_)
                        completionSink_(inFlight_[i].arrival, now_);
                    inFlight_.erase(inFlight_.begin() +
                                    static_cast<long>(i));
                    continue;
                }
            }
            ++i;
        }
    }
    now_ = end;

    if (accel_) {
        accel_->recordEngineBusy(accel_busy / dt, dt);
        accel_->recordLinkBusy(link_busy / dt, dt);
    }
    if (last_host_speed >= 0.0)
        updateDemandBasis(last_host_speed);
}

} // namespace wl
} // namespace kelp
