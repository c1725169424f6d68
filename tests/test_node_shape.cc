/**
 * @file
 * The node's shape contract, checked in every build type: a node that
 * rebuilds its tick shape only after markDirty() must match, bit for
 * bit, a twin that rebuilds it on every tick, through every mutation
 * that feeds the shape. A mutation that forgot to call noteChange()
 * leaves the first twin on a stale shape and the two diverge.
 */

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/scenario.hh"
#include "fuzz/oracle.hh"
#include "node/node.hh"
#include "workload/batch_task.hh"
#include "workload/catalog.hh"

using namespace kelp;

namespace {

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void
expectSameEnvs(const exp::Scenario &a, const exp::Scenario &b,
               const std::string &step)
{
    SCOPED_TRACE(step);
    const auto &ta = a.node->tasks();
    const auto &tb = b.node->tasks();
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t i = 0; i < ta.size(); ++i) {
        SCOPED_TRACE(ta[i]->name());
        const wl::ExecEnv &x = a.node->lastEnv(*ta[i]);
        const wl::ExecEnv &y = b.node->lastEnv(*tb[i]);
        EXPECT_EQ(x.socket, y.socket);
        EXPECT_TRUE(sameBits(x.effCores, y.effCores));
        EXPECT_TRUE(sameBits(x.smtFactor, y.smtFactor));
        EXPECT_TRUE(sameBits(x.missRatio, y.missRatio));
        EXPECT_TRUE(sameBits(x.pfFraction, y.pfFraction));
        EXPECT_TRUE(sameBits(x.throttle, y.throttle));
        EXPECT_TRUE(sameBits(x.latencyNs, y.latencyNs));
        EXPECT_TRUE(sameBits(x.baseLatencyNs, y.baseLatencyNs));
        EXPECT_TRUE(sameBits(x.bwFraction, y.bwFraction));
        EXPECT_TRUE(sameBits(ta[i]->completedWork(),
                             tb[i]->completedWork()));
    }
}

using Mutation = std::function<void(exp::Scenario &)>;

struct Step
{
    std::string name;
    Mutation apply;
};

/** Every input of the shape, mutated through its public setter. */
std::vector<Step>
shapeMutations()
{
    auto batch = [](exp::Scenario &s, size_t i) -> wl::BatchTask & {
        return *s.cpuTasks.at(i);
    };
    return {
        {"core mask",
         [](exp::Scenario &s) {
             // Pins a floating group; moves a pinned one's cores.
             s.node->knobs().adjustCores(s.cpuGroup, 0, 1, 2);
             s.node->knobs().adjustCores(s.cpuGroup, 0, 0, -1);
         }},
        {"prefetchers",
         [](exp::Scenario &s) {
             s.node->knobs().setPrefetchersEnabled(s.cpuGroup, 3);
         }},
        {"CAT ways",
         [](exp::Scenario &s) {
             s.node->knobs().setCatWays(s.cpuGroup, 2);
         }},
        {"setThreads",
         [batch](exp::Scenario &s) { batch(s, 0).setThreads(6); }},
        {"setHomeSocket",
         [batch](exp::Scenario &s) { batch(s, 1).setHomeSocket(1); }},
        {"setDataPlacement",
         [batch](exp::Scenario &s) {
             batch(s, 2).setDataPlacement({{0, 1, 0.5}, {1, 0, 0.5}});
         }},
        {"suspend",
         [batch](exp::Scenario &s) {
             batch(s, 0).setLifeState(wl::LifeState::Suspended);
         }},
        {"resume",
         [batch](exp::Scenario &s) {
             batch(s, 0).setLifeState(wl::LifeState::Running);
         }},
        {"terminate",
         [batch](exp::Scenario &s) {
             batch(s, 2).setLifeState(wl::LifeState::Finished);
         }},
        {"SNC on", [](exp::Scenario &s) { s.node->setSncEnabled(true); }},
        {"SNC off",
         [](exp::Scenario &s) { s.node->setSncEnabled(false); }},
        {"priority-aware backpressure",
         [](exp::Scenario &s) {
             s.node->setPriorityAwareBackpressure(true);
         }},
        {"addTask",
         [](exp::Scenario &s) {
             s.node->add(std::make_unique<wl::BatchTask>(
                 "late-stitch", s.cpuGroup, 2,
                 wl::cpuParams(wl::CpuWorkload::Stitch)));
         }},
    };
}

void
checkTwins(exp::RunConfig cfg)
{
    cfg.cpu = wl::CpuWorkload::Stitch;
    cfg.cpuInstances = 3;
    cfg.warmup = 0.0505;
    cfg.measure = 0.1005;
    exp::Scenario a = exp::buildScenario(cfg);
    exp::Scenario b = exp::buildScenario(cfg);
    // Twin B marks itself dirty after every tick, so every one of its
    // ticks rebuilds the shape (and none is fast-forwarded).
    node::Node *nb = b.node.get();
    b.engine->onTick([nb](sim::Time, sim::Time) { nb->markDirty(); });

    a.engine->run(0.0305);
    b.engine->run(0.0305);
    expectSameEnvs(a, b, "settle");
    for (const Step &step : shapeMutations()) {
        step.apply(a);
        step.apply(b);
        a.engine->run(0.0205);
        b.engine->run(0.0205);
        expectSameEnvs(a, b, step.name);
    }

    const uint64_t builds = a.node->shapeBuilds();
    EXPECT_GE(builds, shapeMutations().size());
    EXPECT_LT(builds, b.node->shapeBuilds());

    const exp::RunResult ra = exp::measureScenario(a, cfg);
    const exp::RunResult rb = exp::measureScenario(b, cfg);
    EXPECT_EQ(fuzz::resultText(ra), fuzz::resultText(rb));
    expectSameEnvs(a, b, "measured");
}

TEST(NodeShape, ReuseMatchesRebuildEveryTickBaseline)
{
    exp::RunConfig cfg;
    cfg.ml = wl::MlWorkload::Cnn1;
    cfg.config = exp::ConfigKind::BL;
    checkTwins(cfg);
}

TEST(NodeShape, ReuseMatchesRebuildEveryTickKelp)
{
    exp::RunConfig cfg;
    cfg.ml = wl::MlWorkload::Cnn1;
    cfg.config = exp::ConfigKind::KP;
    checkTwins(cfg);
}

TEST(NodeShape, ReuseMatchesRebuildEveryTickInference)
{
    exp::RunConfig cfg;
    cfg.ml = wl::MlWorkload::Rnn1;
    cfg.config = exp::ConfigKind::KP;
    checkTwins(cfg);
}

} // namespace
