/**
 * @file
 * Open-loop accelerated inference server (RNN1 on the TPU platform).
 *
 * Requests arrive at a target rate (Poisson, open loop) and are
 * admitted into a pipeline of bounded depth; excess requests wait in
 * a FIFO queue. Each request executes a fixed number of iterations;
 * an iteration is a sequence of single-segment stages (beam-search on
 * the host, a PCIe hop, accelerator compute -- the structure shown in
 * the paper's Figure 3 timeline).
 *
 * Stations:
 *  - Host: concurrent; in-flight host segments share the task's cores
 *    fairly, each capped at its phase parallelism.
 *  - Accel and Pcie: FIFO, one request in service at a time.
 *
 * Service-level metrics: achieved QPS (completions / time) and the
 * request-latency distribution (95th percentile tail). A serial mode
 * reproduces Figure 3's one-request-at-a-time trace and can emit the
 * phase timeline through a trace sink.
 */

#ifndef KELP_WORKLOAD_ML_INFER_TASK_HH
#define KELP_WORKLOAD_ML_INFER_TASK_HH

#include <functional>
#include <vector>

#include "accel/accelerator.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "workload/task.hh"

namespace kelp {
namespace wl {

/** Inference-server parameters. */
struct InferConfig
{
    /** One iteration: sequential single-segment stages. */
    StepGraph iteration;

    /** Iterations per request. */
    int itersPerRequest = 5;

    /** Open-loop arrival rate, queries per second (open loop only). */
    double targetQps = 300.0;

    /** Maximum requests in service concurrently. */
    int pipelineDepth = 4;

    /**
     * Closed-loop mode: the load generator keeps exactly
     * pipelineDepth requests in flight ("generated in a parallel and
     * pipelined fashion", Section V-A), so QPS and latency move
     * inversely. false = open-loop Poisson arrivals at targetQps.
     */
    bool closedLoop = true;

    /** Closed-loop with one request at a time (Figure 3 trace). */
    bool serial = false;

    /**
     * Externally-driven mode: the task generates no arrivals of its
     * own (neither closed-loop top-up nor open-loop Poisson); a
     * serving layer feeds it via submit(). Incompatible with serial.
     */
    bool externalArrivals = false;
};

/** Phase-execution record for timeline traces. */
struct TraceEvent
{
    SegmentKind kind;
    sim::Time start;
    sim::Time end;
    int iteration;
};

/** Open-loop inference server task. */
class MlInferTask : public Task
{
  public:
    MlInferTask(std::string name, sim::GroupId group, InferConfig cfg,
                accel::Accelerator *accel, uint64_t seed = 1);

    int threadsWanted() const override;

    sim::GiBps bwDemand(const ExecEnv &env) override;

    void advance(sim::Time dt, const ExecEnv &env) override;

    /** Completed requests. */
    double completedWork() const override
    {
        return static_cast<double>(completed_);
    }

    HostPhaseParams llcProfile() const override;

    /** Request-latency distribution (seconds). */
    const sim::LatencyHistogram &latency() const { return latency_; }

    /** Forget recorded latencies (end-of-warmup reset). */
    void resetLatency() { latency_.reset(); }

    /** Requests completed so far. */
    uint64_t completed() const { return completed_; }

    /** Requests currently queued (not yet admitted). */
    size_t queued() const { return queue_.size() - queueHead_; }

    /** Requests currently in service (admitted, not yet retired). */
    size_t inService() const { return inFlight_.size(); }

    /** Enqueue one externally-generated request carrying its true
     * arrival time (externalArrivals mode; the latency sample spans
     * queueing in the serving layer as well). */
    void submit(sim::Time arrival);

    /** Install a per-completion sink (request arrival, completion
     * time); used by the serving layer for drop accounting. */
    void
    setCompletionSink(std::function<void(sim::Time, sim::Time)> sink)
    {
        completionSink_ = std::move(sink);
    }

    /** Install a timeline sink (serial-trace experiments). */
    void setTraceSink(std::function<void(const TraceEvent &)> sink)
    {
        traceSink_ = std::move(sink);
    }

    const InferConfig &config() const { return cfg_; }

    bool fastPrepare(const ExecEnv &env, sim::Time dt) override;
    bool fastTickReady(sim::Time dt) const override;
    bool fastTickRun(sim::Time dt) override;
    uint64_t fastHorizon(sim::Time dt) const override;
    void fastTickRunMany(sim::Time dt, uint64_t n) override;

  private:
    struct Request
    {
        sim::Time arrival;
        int iter = 0;
        size_t stage = 0;
        sim::Time remaining = 0.0;
        sim::Time segmentStart = 0.0;
    };

    /** Segment spec for a request's current stage. */
    const StepSegment &segmentOf(const Request &r) const;

    /** Move a request to its next segment/iteration; true if done. */
    bool advanceStage(Request &r);

    void admitFromQueue();

    InferConfig cfg_;
    accel::Accelerator *accel_;
    sim::Rng rng_;

    sim::Time now_ = 0.0;
    sim::Time nextArrival_ = 0.0;
    /** Arrival times awaiting admission, oldest first from
     * queueHead_ on: a FIFO over a reused vector (a deque allocates a
     * block every few dozen requests), so steady traffic allocates
     * nothing. admitFromQueue() drops the admitted prefix. */
    std::vector<sim::Time> queue_;
    size_t queueHead_ = 0;
    std::vector<Request> inFlight_;
    /** advance()'s per-request speeds, reused across event-loop
     * passes and ticks so a full tick allocates nothing. */
    std::vector<double> speedScratch_;
    uint64_t completed_ = 0;
    sim::LatencyHistogram latency_;
    std::function<void(const TraceEvent &)> traceSink_;
    std::function<void(sim::Time, sim::Time)> completionSink_;
};

} // namespace wl
} // namespace kelp

#endif // KELP_WORKLOAD_ML_INFER_TASK_HH
