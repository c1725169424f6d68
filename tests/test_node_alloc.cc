/**
 * @file
 * The full tick's data layout is reused from tick to tick: once a
 * node has ticked, further full ticks (core pools, LLC apportionment,
 * memory resolve) allocate nothing. Counted by replacing the global
 * operator new for this test binary.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "exp/scenario.hh"
#include "node/node.hh"

namespace {

std::atomic<long> allocations{0};

} // namespace

void *
operator new(std::size_t n)
{
    ++allocations;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace kelp;

namespace {

/** Allocations made by `ticks` direct full ticks of the node. */
long
allocationsOver(node::Node &node, sim::Time dt, int ticks)
{
    const long before = allocations;
    for (int i = 0; i < ticks; ++i)
        node.tick(0.0, dt);
    return allocations - before;
}

} // namespace

TEST(NodeAlloc, SteadyFullTickAllocatesNothing)
{
#ifndef NDEBUG
    GTEST_SKIP() << "debug cross-checks copy grants and shares on "
                    "every cache hit";
#endif
    // Training ML + batch tasks under KP: every controller and both
    // core-pool kinds, with the event-driven path off so every tick
    // runs the full pipeline.
    exp::RunConfig cfg;
    cfg.ml = wl::MlWorkload::Cnn1;
    cfg.cpu = wl::CpuWorkload::Stitch;
    cfg.cpuInstances = 3;
    cfg.config = exp::ConfigKind::KP;
    cfg.eventDriven = false;
    exp::Scenario s = exp::buildScenario(cfg);
    s.engine->run(0.05);

    EXPECT_EQ(allocationsOver(*s.node, cfg.tick, 2000), 0);

    // Switching SNC on fills the per-subdomain scratch once.
    s.node->setSncEnabled(true);
    allocationsOver(*s.node, cfg.tick, 1);
    EXPECT_EQ(allocationsOver(*s.node, cfg.tick, 2000), 0);
}
