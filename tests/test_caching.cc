/**
 * @file
 * Equivalence tests for the MemSystem resolve cache: it must be
 * observationally invisible -- a cached instance driven through an
 * arbitrary flow history must report bit-identical grants and
 * counters to an uncached one, while actually hitting.
 */

#include <vector>

#include <gtest/gtest.h>

#include "mem/mem_system.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

using namespace kelp;
using namespace kelp::mem;

namespace {

MemSystemConfig
testConfig()
{
    MemSystemConfig cfg;
    cfg.numSockets = 2;
    cfg.socket.peakBw = 100.0;
    cfg.socket.baseLatency = 100.0;
    cfg.socket.inflationAt95 = 4.0;
    cfg.socket.distressThreshold = 0.8;
    cfg.socket.throttleStrength = 0.5;
    cfg.socket.sncLocalLatencyFactor = 0.9;
    cfg.socket.sncRemoteLatencyFactor = 1.1;
    cfg.upiCapacity = 40.0;
    cfg.upiHopLatency = 70.0;
    cfg.upiCoherenceTax = 1.0;
    return cfg;
}

constexpr sim::Time dt = 100 * sim::usec;

struct TickFlow
{
    int requestor;
    Route route;
    sim::GiBps demand;
    bool highPriority;
};

/** A randomized flow history with long stable stretches (the case
 * the cache exists for) and occasional demand/route churn. */
std::vector<std::vector<TickFlow>>
flowHistory(int ticks, uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<std::vector<TickFlow>> history;
    std::vector<TickFlow> current;
    for (int t = 0; t < ticks; ++t) {
        if (current.empty() || rng.uniform() < 0.3) {
            current.clear();
            int n = 1 + static_cast<int>(rng.below(4));
            for (int f = 0; f < n; ++f) {
                TickFlow flow;
                flow.requestor = f + 1;
                flow.route.reqSocket =
                    static_cast<sim::SocketId>(rng.below(2));
                flow.route.reqSub =
                    static_cast<sim::SubdomainId>(rng.below(2));
                flow.route.homeSocket =
                    static_cast<sim::SocketId>(rng.below(2));
                flow.route.homeSub =
                    static_cast<sim::SubdomainId>(rng.below(2));
                flow.demand = rng.uniform(1.0, 80.0);
                flow.highPriority = rng.chance(0.3);
                current.push_back(flow);
            }
        }
        history.push_back(current);
    }
    return history;
}

void
driveTick(MemSystem &mem, const std::vector<TickFlow> &flows)
{
    mem.beginTick();
    for (const TickFlow &f : flows)
        mem.addFlow(f.requestor, f.route, f.demand, f.highPriority);
    mem.resolve(dt);
}

} // namespace

TEST(ResolveCache, CachedMatchesUncachedOverRandomChurn)
{
    MemSystem cached(testConfig());
    MemSystem plain(testConfig());
    plain.setResolveCacheEnabled(false);
    cached.setSncEnabled(true);
    plain.setSncEnabled(true);

    const auto history = flowHistory(300, 42);
    for (const auto &flows : history) {
        driveTick(cached, flows);
        driveTick(plain, flows);

        for (const TickFlow &f : flows) {
            Grant a = cached.grant(f.requestor);
            Grant b = plain.grant(f.requestor);
            EXPECT_EQ(a.delivered, b.delivered);
            EXPECT_EQ(a.fraction, b.fraction);
            EXPECT_EQ(a.latency, b.latency);
        }
        for (sim::SocketId s = 0; s < 2; ++s) {
            EXPECT_EQ(cached.saturation(s), plain.saturation(s));
            EXPECT_EQ(cached.coreThrottle(s), plain.coreThrottle(s));
            EXPECT_EQ(cached.counters(s).bw.integral(),
                      plain.counters(s).bw.integral());
            EXPECT_EQ(cached.counters(s).latency.integral(),
                      plain.counters(s).latency.integral());
            EXPECT_EQ(cached.fastAsserted(s).integral(),
                      plain.fastAsserted(s).integral());
            for (sim::SubdomainId d = 0; d < 2; ++d) {
                EXPECT_EQ(cached.controller(s, d).totalDelivered(),
                          plain.controller(s, d).totalDelivered());
            }
        }
        EXPECT_EQ(cached.upi().utilization(),
                  plain.upi().utilization());
    }

    // The history has stable stretches, so the cache must have both
    // hit and missed; the uncached instance must never engage.
    EXPECT_GT(cached.resolveCacheHits(), 0u);
    EXPECT_GT(cached.resolveCacheMisses(), 0u);
    EXPECT_EQ(plain.resolveCacheHits(), 0u);
}

TEST(ResolveCache, StableLoadHitsEveryTickAfterTheFirst)
{
    MemSystem mem(testConfig());
    const std::vector<TickFlow> flows{
        {1, {0, 0, 0, 0}, 10.0, false},
        {2, {0, 1, 0, 1}, 30.0, false},
    };
    const int ticks = 50;
    for (int t = 0; t < ticks; ++t)
        driveTick(mem, flows);
    EXPECT_EQ(mem.resolveCacheMisses(), 1u);
    EXPECT_EQ(mem.resolveCacheHits(),
              static_cast<uint64_t>(ticks - 1));
}

TEST(ResolveCache, DemandChangeInvalidates)
{
    MemSystem mem(testConfig());
    std::vector<TickFlow> flows{{1, {0, 0, 0, 0}, 10.0, false}};
    driveTick(mem, flows);
    driveTick(mem, flows);
    EXPECT_EQ(mem.resolveCacheHits(), 1u);

    flows[0].demand = 11.0;
    driveTick(mem, flows);
    EXPECT_EQ(mem.resolveCacheHits(), 1u);
    EXPECT_EQ(mem.resolveCacheMisses(), 2u);

    // The new demand must be reflected, not the cached grant.
    EXPECT_NEAR(mem.grant(1).delivered, 11.0, 1e-9);
}

TEST(ResolveCache, DtChangeInvalidates)
{
    MemSystem mem(testConfig());
    const std::vector<TickFlow> flows{{1, {0, 0, 0, 0}, 10.0, false}};
    driveTick(mem, flows);
    mem.beginTick();
    mem.addFlow(1, {0, 0, 0, 0}, 10.0);
    mem.resolve(2.0 * dt);
    EXPECT_EQ(mem.resolveCacheHits(), 0u);
    EXPECT_EQ(mem.resolveCacheMisses(), 2u);
}

TEST(ResolveCache, RequestorDroppedFromFullResolveReadsDefault)
{
    // Grants live in requestor-indexed slots; a requestor present in
    // one full resolve and absent from the next must read the
    // absent-grant default, not its stale slot, from the node-level
    // grant and from every controller.
    MemSystem mem(testConfig());
    driveTick(mem, {{0, {0, 0, 0, 0}, 20.0, false},
                    {7, {0, 1, 0, 1}, 15.0, true},
                    {99, {1, 0, 0, 0}, 10.0, false}});
    ASSERT_GT(mem.grant(99).delivered, 0.0);

    driveTick(mem, {{7, {0, 1, 0, 1}, 15.0, true}});
    ASSERT_EQ(mem.resolveCacheMisses(), 2u);
    for (int req : {0, 99, 100, 5000}) {
        Grant g = mem.grant(req);
        EXPECT_EQ(g.delivered, 0.0) << "requestor " << req;
        EXPECT_EQ(g.fraction, 1.0) << "requestor " << req;
        EXPECT_EQ(g.latency, mem.baseLatency()) << "requestor " << req;
        for (sim::SocketId s = 0; s < 2; ++s) {
            for (sim::SubdomainId d = 0; d < 2; ++d) {
                const Controller &mc = mem.controller(s, d);
                Grant c = mc.grant(req);
                EXPECT_EQ(c.delivered, 0.0);
                EXPECT_EQ(c.fraction, 1.0);
                EXPECT_EQ(c.latency, mc.latency());
            }
        }
    }
    EXPECT_GT(mem.grant(7).delivered, 0.0);
}

TEST(ResolveCache, SparseRequestorIdsMatchDense)
{
    // Requestor ids are only keys: remapping the history's dense ids
    // 1..4 onto sparse ones (0, 7, 99, 42) must reproduce every grant
    // bit for bit, through both full resolves and cache hits.
    const int sparse_of[] = {-1, 0, 7, 99, 42};
    MemSystem dense(testConfig());
    MemSystem sparse(testConfig());
    for (const auto &flows : flowHistory(400, 23)) {
        std::vector<TickFlow> remapped = flows;
        for (TickFlow &f : remapped)
            f.requestor = sparse_of[f.requestor];
        driveTick(dense, flows);
        driveTick(sparse, remapped);
        for (const TickFlow &f : flows) {
            Grant a = dense.grant(f.requestor);
            Grant b = sparse.grant(sparse_of[f.requestor]);
            ASSERT_EQ(a.delivered, b.delivered);
            ASSERT_EQ(a.fraction, b.fraction);
            ASSERT_EQ(a.latency, b.latency);
        }
    }
    EXPECT_GT(sparse.resolveCacheHits(), 0u);
    EXPECT_EQ(sparse.resolveCacheHits(), dense.resolveCacheHits());
}
