/**
 * @file
 * Tests for the open-loop request serving layer: traffic-spec
 * canonical strings, deterministic arrival generation, the
 * admission/brownout ladder's drop accounting, scenario-level
 * determinism across worker counts, and the manifest's percentile
 * reporting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "exp/scenario.hh"
#include "exp/sweep_runner.hh"
#include "fuzz/oracle.hh"
#include "serve/server.hh"
#include "serve/traffic.hh"
#include "sim/engine.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "trace/json.hh"
#include "trace/run_manifest.hh"
#include "workload/ml_infer_task.hh"
#include "workload/phase.hh"

using namespace kelp;
using namespace kelp::serve;

// ------------------------------------------------------------------
// TrafficSpec canonical strings

TEST(TrafficSpec, DefaultIsShortestPoisson)
{
    TrafficSpec t;
    EXPECT_EQ(t.toString(), "shape=poisson");
}

TEST(TrafficSpec, ToStringParseIsIdentity)
{
    std::vector<TrafficSpec> specs;
    specs.push_back({});
    {
        TrafficSpec t;
        t.qps = 600.0;
        t.lowFrac = 0.5;
        specs.push_back(t);
    }
    {
        TrafficSpec t;
        t.shape = TrafficSpec::Shape::Diurnal;
        t.diurnalAmp = 0.9;
        t.diurnalPeriod = 15.0;
        specs.push_back(t);
    }
    {
        TrafficSpec t;
        t.shape = TrafficSpec::Shape::Burst;
        t.spikeFactor = 16.0;
        t.spikeStart = 1.0;
        t.spikePeriod = 5.0;
        t.spikeLen = 2.0;
        specs.push_back(t);
    }
    for (const TrafficSpec &t : specs) {
        std::string err;
        auto back = TrafficSpec::tryParse(t.toString(), &err);
        ASSERT_TRUE(back.has_value()) << t.toString() << ": " << err;
        EXPECT_EQ(*back, t);
        // Canonical form is a fixpoint.
        EXPECT_EQ(back->toString(), t.toString());
    }
}

TEST(TrafficSpec, NonDefaultFieldsPrintShapeGated)
{
    TrafficSpec t;
    t.shape = TrafficSpec::Shape::Burst;
    t.spikeFactor = 8.0;
    // Diurnal knobs never leak into a burst spec even if touched.
    t.diurnalAmp = 0.9;
    EXPECT_EQ(t.toString(), "shape=burst,factor=8");
}

TEST(TrafficSpec, ParseRejectsMalformedSpecs)
{
    std::string err;
    // Shape must come first.
    EXPECT_FALSE(TrafficSpec::tryParse("qps=300,shape=poisson", &err));
    EXPECT_FALSE(TrafficSpec::tryParse("", &err));
    EXPECT_FALSE(TrafficSpec::tryParse("shape=square", &err));
    // Duplicate key.
    EXPECT_FALSE(
        TrafficSpec::tryParse("shape=poisson,qps=1,qps=2", &err));
    // Wrong-shape key.
    EXPECT_FALSE(
        TrafficSpec::tryParse("shape=poisson,factor=4", &err));
    EXPECT_FALSE(TrafficSpec::tryParse("shape=burst,amp=0.5", &err));
    // Out of range.
    EXPECT_FALSE(TrafficSpec::tryParse("shape=poisson,qps=0", &err));
    EXPECT_FALSE(
        TrafficSpec::tryParse("shape=poisson,lowfrac=1.5", &err));
    EXPECT_FALSE(TrafficSpec::tryParse("shape=diurnal,amp=1", &err));
    // Non-finite and empty numbers.
    EXPECT_FALSE(
        TrafficSpec::tryParse("shape=poisson,lowfrac=nan", &err));
    EXPECT_FALSE(TrafficSpec::tryParse("shape=poisson,qps=inf", &err));
    EXPECT_FALSE(TrafficSpec::tryParse("shape=poisson,qps=", &err));
    // Spike window longer than its period.
    EXPECT_FALSE(TrafficSpec::tryParse(
        "shape=burst,period=2,len=3", &err));
    EXPECT_FALSE(err.empty());
}

TEST(TrafficSpec, RateAtFollowsTheShape)
{
    TrafficSpec p;
    p.qps = 100.0;
    EXPECT_DOUBLE_EQ(p.rateAt(0.0), 100.0);
    EXPECT_DOUBLE_EQ(p.rateAt(123.0), 100.0);

    TrafficSpec d;
    d.shape = TrafficSpec::Shape::Diurnal;
    d.qps = 100.0;
    d.diurnalAmp = 0.5;
    d.diurnalPeriod = 20.0;
    EXPECT_NEAR(d.rateAt(0.0), 100.0, 1e-9);
    EXPECT_NEAR(d.rateAt(5.0), 150.0, 1e-9);   // sin peak
    EXPECT_NEAR(d.rateAt(15.0), 50.0, 1e-9);   // sin trough

    TrafficSpec b;
    b.shape = TrafficSpec::Shape::Burst;
    b.qps = 100.0;
    b.spikeFactor = 4.0;
    b.spikeStart = 2.0;
    b.spikePeriod = 10.0;
    b.spikeLen = 2.0;
    EXPECT_DOUBLE_EQ(b.rateAt(1.0), 100.0);   // before first window
    EXPECT_DOUBLE_EQ(b.rateAt(2.0), 400.0);   // window start
    EXPECT_DOUBLE_EQ(b.rateAt(3.9), 400.0);   // inside
    EXPECT_DOUBLE_EQ(b.rateAt(4.0), 100.0);   // half-open end
    EXPECT_DOUBLE_EQ(b.rateAt(12.5), 400.0);  // next period's window
}

// ------------------------------------------------------------------
// Arrival generation

TEST(ArrivalGenerator, TraceMatchesPureDerivation)
{
    // The contract: arrival i's randomness comes from
    // sim::Rng::derive(seed, i) alone -- a unit exponential scaled
    // by the instantaneous rate at the previous arrival, then the
    // priority coin. Recompute the trace independently.
    TrafficSpec t;
    t.shape = TrafficSpec::Shape::Burst;
    t.qps = 200.0;
    t.lowFrac = 0.3;
    const uint64_t seed = 42;
    ArrivalGenerator gen(t, seed);

    sim::Time prev = 0.0;
    for (uint64_t i = 0; i < 500; ++i) {
        sim::Rng rng = sim::Rng::derive(seed, i);
        const double gap = rng.exponential(1.0) / t.rateAt(prev);
        const bool low = rng.chance(t.lowFrac);
        ArrivalGenerator::Arrival a = gen.next();
        EXPECT_EQ(a.index, i);
        EXPECT_DOUBLE_EQ(a.time, prev + gap);
        EXPECT_EQ(a.lowPriority, low);
        prev = a.time;
    }
    EXPECT_EQ(gen.generated(), 500u);
}

TEST(ArrivalGenerator, SameSeedSameTraceDifferentSeedDiffers)
{
    TrafficSpec t;
    t.qps = 300.0;
    ArrivalGenerator a(t, 7), b(t, 7), c(t, 8);
    bool anyDiff = false;
    sim::Time prev = 0.0;
    for (int i = 0; i < 300; ++i) {
        ArrivalGenerator::Arrival x = a.next();
        ArrivalGenerator::Arrival y = b.next();
        ArrivalGenerator::Arrival z = c.next();
        EXPECT_DOUBLE_EQ(x.time, y.time);
        EXPECT_EQ(x.lowPriority, y.lowPriority);
        anyDiff = anyDiff || x.time != z.time;
        EXPECT_GE(x.time, prev);
        prev = x.time;
    }
    EXPECT_TRUE(anyDiff);
}

TEST(ArrivalGenerator, MeanRateApproximatesQps)
{
    TrafficSpec t;
    t.qps = 500.0;
    ArrivalGenerator gen(t, 1);
    sim::Time last = 0.0;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        last = gen.next().time;
    // Mean inter-arrival 1/500 s; n arrivals span ~10 s.
    EXPECT_NEAR(last, n / t.qps, 0.05 * n / t.qps);
}

// ------------------------------------------------------------------
// RequestServer drop accounting and the brownout ladder

namespace {

/** A deliberately slow inference config so modest traffic overloads
 * it (service rate ~ pipelineDepth / (iters * accel time)). */
wl::InferConfig
slowInferConfig()
{
    wl::InferConfig cfg;
    wl::StepGraph iter;
    iter.stages.push_back({{wl::accelSegment(2.0 * sim::msec)}});
    cfg.iteration = iter;
    cfg.itersPerRequest = 5;
    cfg.pipelineDepth = 4;
    cfg.closedLoop = false;
    cfg.externalArrivals = true;
    return cfg;
}

wl::ExecEnv
idealEnv()
{
    wl::ExecEnv env;
    env.effCores = 8.0;
    env.latencyNs = 90.0;
    env.baseLatencyNs = 90.0;
    return env;
}

} // namespace

TEST(RequestServer, OverloadShedsButBooksBalance)
{
    // The single-stage pipeline caps at ~100 req/s (5 iters x 2 ms
    // with no stage overlap); 300 qps base plus a x8 spike is far
    // past it, so the ladder must reject/shed/expire -- and account
    // for every request. Contracts run in Count mode so a violated
    // invariant fails the test rather than aborting.
    sim::setContractMode(sim::ContractMode::Count);
    const uint64_t before = sim::contractViolationsHere();

    ServeConfig cfg;
    cfg.enabled = true;
    cfg.traffic.shape = TrafficSpec::Shape::Burst;
    cfg.traffic.qps = 300.0;
    cfg.traffic.spikeFactor = 8.0;
    cfg.traffic.spikeStart = 1.0;
    cfg.deadline = 0.1;
    cfg.maxQueue = 32;

    wl::MlInferTask task("rnn", 0, slowInferConfig(), nullptr);
    RequestServer server(cfg, task, 99);
    sim::Engine e(1e-4);
    e.onTick([&](sim::Time, sim::Time dt) {
        task.advance(dt, idealEnv());
    });
    server.attach(e);
    e.run(8.0);

    ServeStats st = server.stats();
    EXPECT_GT(st.arrivals, 2000u);
    EXPECT_GT(st.completed, 100u);
    EXPECT_GT(st.rejected + st.shed + st.expired, 0u)
        << "overload produced no drops at all";
    EXPECT_EQ(st.arrivals, st.admitted + st.rejected);
    EXPECT_EQ(st.admitted,
              st.completed + st.shed + st.expired + st.inFlight);
    server.checkConservation();
    EXPECT_EQ(sim::contractViolationsHere(), before);
}

TEST(RequestServer, BrownoutEscalatesUnderSpikeAndCalmsAfter)
{
    sim::setContractMode(sim::ContractMode::Count);
    ServeConfig cfg;
    cfg.enabled = true;
    cfg.traffic.shape = TrafficSpec::Shape::Burst;
    cfg.traffic.qps = 60.0;  // under the ~100 req/s service cap
    cfg.traffic.spikeFactor = 10.0;
    cfg.traffic.spikeStart = 1.0;
    cfg.traffic.spikePeriod = 60.0;  // one spike, then calm
    cfg.traffic.spikeLen = 2.0;
    cfg.deadline = 0.2;
    cfg.maxQueue = 32;

    wl::MlInferTask task("rnn", 0, slowInferConfig(), nullptr);
    RequestServer server(cfg, task, 5);
    sim::Engine e(1e-4);
    e.onTick([&](sim::Time, sim::Time dt) {
        task.advance(dt, idealEnv());
    });
    server.attach(e);
    e.run(10.0);

    // The spike pushed the ladder up; the calm stretch brought it
    // back down to normal service.
    int peak = 0;
    for (const RequestServer::LevelChange &c : server.brownoutTrace())
        peak = std::max(peak, c.to);
    EXPECT_GE(peak, 1);
    EXPECT_EQ(server.brownoutLevel(), 0);
    EXPECT_GT(server.stats().brownoutTransitions, 1u);
    // Transitions are recorded time-ordered.
    for (size_t i = 1; i < server.brownoutTrace().size(); ++i) {
        EXPECT_LE(server.brownoutTrace()[i - 1].time,
                  server.brownoutTrace()[i].time);
    }
    server.checkConservation();
}

TEST(RequestServer, QuietTrafficCompletesEverything)
{
    sim::setContractMode(sim::ContractMode::Count);
    ServeConfig cfg;
    cfg.enabled = true;
    cfg.traffic.qps = 50.0;  // far under capacity

    wl::MlInferTask task("rnn", 0, slowInferConfig(), nullptr);
    RequestServer server(cfg, task, 3);
    sim::Engine e(1e-4);
    e.onTick([&](sim::Time, sim::Time dt) {
        task.advance(dt, idealEnv());
    });
    server.attach(e);
    e.run(10.0);

    ServeStats st = server.stats();
    EXPECT_GT(st.arrivals, 300u);
    EXPECT_EQ(st.rejected, 0u);
    EXPECT_EQ(st.shed, 0u);
    EXPECT_EQ(st.expired, 0u);
    EXPECT_EQ(st.brownoutTransitions, 0u);
    EXPECT_EQ(st.admitted, st.completed + st.inFlight);
}

// ------------------------------------------------------------------
// Scenario integration

namespace {

exp::RunConfig
servingScenario(TrafficSpec traffic)
{
    exp::RunConfig cfg;
    cfg.ml = wl::MlWorkload::Rnn1;
    cfg.cpu = wl::CpuWorkload::Stitch;
    cfg.cpuInstances = 2;
    cfg.config = exp::ConfigKind::KP;
    cfg.warmup = 1.0;
    cfg.measure = 6.0;
    cfg.samplePeriod = 1.0;
    cfg.serving.enabled = true;
    cfg.serving.traffic = traffic;
    return cfg;
}

} // namespace

TEST(ServeScenario, ReplayIsByteIdentical)
{
    // Dispatch tie-breaking, arrival generation, and the ladder are
    // all deterministic: two runs of the same config agree on the
    // canonical result text byte-for-byte.
    TrafficSpec t;
    t.shape = TrafficSpec::Shape::Burst;
    t.spikeFactor = 8.0;
    exp::RunConfig cfg = servingScenario(t);
    exp::RunResult a = exp::runScenario(cfg);
    exp::RunResult b = exp::runScenario(cfg);
    EXPECT_EQ(fuzz::resultText(a), fuzz::resultText(b));
    EXPECT_GT(a.reqArrivals, 0u);
    EXPECT_GT(a.reqCompleted, 0u);
}

TEST(ServeScenario, WorkerCountNeverChangesResults)
{
    std::vector<exp::RunConfig> cfgs;
    {
        TrafficSpec t;
        cfgs.push_back(servingScenario(t));
    }
    {
        TrafficSpec t;
        t.shape = TrafficSpec::Shape::Diurnal;
        cfgs.push_back(servingScenario(t));
    }
    {
        TrafficSpec t;
        t.shape = TrafficSpec::Shape::Burst;
        t.spikeFactor = 16.0;
        cfgs.push_back(servingScenario(t));
    }
    const auto serial = exp::runScenarios(cfgs, 1);
    const auto parallel = exp::runScenarios(cfgs, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(fuzz::resultText(serial[i]),
                  fuzz::resultText(parallel[i]))
            << "config " << i;
    }
}

TEST(ServeScenario, SeedChangesTheTraffic)
{
    TrafficSpec t;
    exp::RunConfig cfg = servingScenario(t);
    exp::RunResult a = exp::runScenario(cfg);
    cfg.seed += 1;
    exp::RunResult b = exp::runScenario(cfg);
    EXPECT_NE(fuzz::resultText(a), fuzz::resultText(b));
}

TEST(ServeScenario, TrainingWorkloadIgnoresTraffic)
{
    // Traffic only applies to inference workloads; a training config
    // with serving enabled builds no server and reports zeroes.
    TrafficSpec t;
    exp::RunConfig cfg = servingScenario(t);
    cfg.ml = wl::MlWorkload::Cnn1;  // training workload
    exp::Scenario s = exp::buildScenario(cfg);
    EXPECT_EQ(s.server, nullptr);
    exp::RunResult r = exp::measureScenario(s, cfg);
    EXPECT_EQ(r.reqArrivals, 0u);
    EXPECT_EQ(r.reqCompleted, 0u);
}

TEST(ServeScenario, PercentilesMatchTheHistogramExactly)
{
    TrafficSpec t;
    exp::RunConfig cfg = servingScenario(t);
    exp::Scenario s = exp::buildScenario(cfg);
    ASSERT_NE(s.server, nullptr);
    exp::RunResult r = exp::measureScenario(s, cfg);

    const sim::LatencyHistogram &h = s.server->latency();
    ASSERT_GT(h.count(), 0u);
    EXPECT_DOUBLE_EQ(r.reqP99, h.percentile(99.0));
    EXPECT_DOUBLE_EQ(r.reqP999, h.percentile(99.9));
    EXPECT_DOUBLE_EQ(r.reqP9999, h.percentile(99.99));

    // The manifest's histogram summary reports the same quantiles,
    // rendered through the same number formatter.
    trace::RunManifest man;
    man.addHistogram("request_latency_s", h);
    const std::string json = man.toJson();
    EXPECT_NE(json.find("\"p99\": " +
                        trace::jsonNumber(h.percentile(99.0))),
              std::string::npos);
    EXPECT_NE(json.find("\"p999\": " +
                        trace::jsonNumber(h.percentile(99.9))),
              std::string::npos);
    EXPECT_NE(json.find("\"p9999\": " +
                        trace::jsonNumber(h.percentile(99.99))),
              std::string::npos);
}
