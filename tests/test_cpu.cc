/**
 * @file
 * Tests for the CPU-side models: LLC apportionment, prefetcher
 * factors, and topology arithmetic.
 */

#include <gtest/gtest.h>

#include "cpu/llc.hh"
#include "cpu/prefetcher.hh"
#include "cpu/topology.hh"

using namespace kelp;
using namespace kelp::cpu;

TEST(LlcHitRate, FullCoverageHitsMax)
{
    EXPECT_DOUBLE_EQ(Llc::hitRate(32.0, 8.0, 0.9), 0.9);
}

TEST(LlcHitRate, SqrtCurve)
{
    EXPECT_NEAR(Llc::hitRate(4.0, 16.0, 0.8), 0.8 * 0.5, 1e-9);
}

TEST(LlcHitRate, ZeroCapacityZeroHits)
{
    EXPECT_DOUBLE_EQ(Llc::hitRate(0.0, 16.0, 0.8), 0.0);
}

TEST(LlcHitRate, ZeroFootprintHitsMax)
{
    EXPECT_DOUBLE_EQ(Llc::hitRate(1.0, 0.0, 0.8), 0.8);
}

TEST(Llc, DedicatedWaysAreExclusive)
{
    Llc llc(32.0, 16);  // 2 MiB per way
    std::vector<LlcRequest> reqs = {
        {1, 8.0, 1.0, 4, 0.9},   // 4 ways = 8 MiB dedicated
        {2, 100.0, 1.0, 0, 0.5}, // shared pool
    };
    auto shares = llc.apportion(reqs);
    EXPECT_DOUBLE_EQ(shares[0].capacityMb, 8.0);
    EXPECT_DOUBLE_EQ(shares[0].hitRate, 0.9);
    EXPECT_DOUBLE_EQ(shares[1].capacityMb, 24.0);
}

TEST(Llc, SharedPoolWeightedSplit)
{
    Llc llc(30.0, 10);
    std::vector<LlcRequest> reqs = {
        {1, 100.0, 1.0, 0, 0.5},
        {2, 100.0, 2.0, 0, 0.5},
    };
    auto shares = llc.apportion(reqs);
    EXPECT_NEAR(shares[0].capacityMb, 10.0, 1e-9);
    EXPECT_NEAR(shares[1].capacityMb, 20.0, 1e-9);
}

TEST(Llc, FootprintCapRedistributes)
{
    Llc llc(30.0, 10);
    std::vector<LlcRequest> reqs = {
        {1, 5.0, 1.0, 0, 0.9},    // only needs 5 MiB
        {2, 100.0, 1.0, 0, 0.5},  // takes the rest
    };
    auto shares = llc.apportion(reqs);
    EXPECT_NEAR(shares[0].capacityMb, 5.0, 1e-9);
    EXPECT_NEAR(shares[1].capacityMb, 25.0, 1e-9);
}

TEST(Llc, OrderIndependent)
{
    Llc llc(30.0, 10);
    std::vector<LlcRequest> fwd = {
        {1, 5.0, 1.0, 0, 0.9},
        {2, 100.0, 1.0, 0, 0.5},
    };
    std::vector<LlcRequest> rev = {fwd[1], fwd[0]};
    auto a = llc.apportion(fwd);
    auto b = llc.apportion(rev);
    // Shares are aligned with each call's request order.
    EXPECT_DOUBLE_EQ(a[0].capacityMb, b[1].capacityMb);
    EXPECT_DOUBLE_EQ(a[1].capacityMb, b[0].capacityMb);
}

TEST(Llc, PermutedRequestsAlignShares)
{
    // Dedicated, small shared, and large shared groups: every
    // permutation of the requests must return each group's share at
    // that group's position. Weights are exact binary fractions, so
    // every permutation sums them exactly.
    Llc llc(32.0, 16);
    const std::vector<LlcRequest> base = {
        {3, 6.0, 1.0, 2, 0.9},
        {5, 4.0, 0.5, 0, 0.8},
        {8, 100.0, 2.0, 0, 0.6},
        {9, 40.0, 1.0, 0, 0.7},
    };
    const auto want = llc.apportion(base);
    ASSERT_EQ(want.size(), base.size());

    std::vector<size_t> perm = {0, 1, 2, 3};
    int permutations = 0;
    do {
        std::vector<LlcRequest> reqs;
        for (size_t i : perm)
            reqs.push_back(base[i]);
        const auto got = llc.apportion(reqs);
        ASSERT_EQ(got.size(), reqs.size());
        for (size_t k = 0; k < perm.size(); ++k) {
            EXPECT_DOUBLE_EQ(got[k].capacityMb, want[perm[k]].capacityMb)
                << "group " << reqs[k].group;
            EXPECT_DOUBLE_EQ(got[k].hitRate, want[perm[k]].hitRate)
                << "group " << reqs[k].group;
        }
        ++permutations;
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_EQ(permutations, 24);
}

TEST(Llc, SingleGroupGetsEverything)
{
    Llc llc(32.0, 16);
    std::vector<LlcRequest> reqs = {{1, 100.0, 1.0, 0, 0.5}};
    auto shares = llc.apportion(reqs);
    EXPECT_NEAR(shares[0].capacityMb, 32.0, 1e-9);
}

TEST(Llc, TooManyDedicatedWaysPanics)
{
    Llc llc(32.0, 16);
    std::vector<LlcRequest> reqs = {
        {1, 8.0, 1.0, 10, 0.9},
        {2, 8.0, 1.0, 10, 0.9},
    };
    EXPECT_DEATH(llc.apportion(reqs), "exceed");
}

TEST(Llc, BadSizePanics)
{
    EXPECT_DEATH(Llc(0.0, 16), "size");
    EXPECT_DEATH(Llc(32.0, 0), "way");
}

TEST(Prefetcher, FullEnableIsNeutral)
{
    PrefetchParams p{0.4, 0.6};
    EXPECT_DOUBLE_EQ(prefetchTrafficFactor(p, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(prefetchStallFactor(p, 1.0), 1.0);
}

TEST(Prefetcher, FullDisableExtremes)
{
    PrefetchParams p{0.4, 0.6};
    EXPECT_NEAR(prefetchTrafficFactor(p, 0.0), 1.0 / 1.4, 1e-9);
    EXPECT_NEAR(prefetchStallFactor(p, 0.0), 1.0 / 0.4, 1e-9);
}

TEST(Prefetcher, MonotoneInFraction)
{
    PrefetchParams p{0.5, 0.7};
    double prev_traffic = 0.0, prev_stall = 10.0;
    for (double f = 0.0; f <= 1.0; f += 0.1) {
        double t = prefetchTrafficFactor(p, f);
        double s = prefetchStallFactor(p, f);
        EXPECT_GT(t, prev_traffic);
        EXPECT_LT(s, prev_stall);
        prev_traffic = t;
        prev_stall = s;
    }
}

TEST(Prefetcher, FractionClamped)
{
    PrefetchParams p{0.4, 0.6};
    EXPECT_DOUBLE_EQ(prefetchTrafficFactor(p, 2.0), 1.0);
    EXPECT_DOUBLE_EQ(prefetchStallFactor(p, -1.0),
                     prefetchStallFactor(p, 0.0));
}

TEST(Prefetcher, BadParamsPanic)
{
    EXPECT_DEATH(prefetchTrafficFactor({-0.1, 0.5}, 1.0), "boost");
    EXPECT_DEATH(prefetchStallFactor({0.4, 1.0}, 1.0), "hide");
}

TEST(Topology, SubdomainArithmetic)
{
    TopologyConfig cfg;
    cfg.sockets = 2;
    cfg.coresPerSocket = 24;
    cfg.llcMbPerSocket = 33.0;
    cfg.llcWays = 12;
    Topology topo(cfg);
    EXPECT_EQ(topo.coresPerSubdomain(), 12);
    EXPECT_EQ(topo.totalCores(), 48);
    EXPECT_DOUBLE_EQ(topo.llcMbPerSubdomain(), 16.5);
    EXPECT_EQ(topo.llcWaysPerSubdomain(), 6);
}

TEST(Topology, OddCoresPanics)
{
    TopologyConfig cfg;
    cfg.coresPerSocket = 15;
    EXPECT_DEATH(Topology{cfg}, "even");
}

TEST(Topology, OddWaysPanics)
{
    TopologyConfig cfg;
    cfg.llcWays = 11;
    EXPECT_DEATH(Topology{cfg}, "even");
}

TEST(Topology, BadSmtFactorPanics)
{
    TopologyConfig cfg;
    cfg.smtSiblingFactor = 0.0;
    EXPECT_DEATH(Topology{cfg}, "SMT");
}
