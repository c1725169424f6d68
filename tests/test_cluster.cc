/**
 * @file
 * Tests for the deterministic cluster simulator (src/cluster/):
 * placement policies, worker-count byte-identity, job conservation,
 * and SLO-ladder shedding.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "cluster/scheduler.hh"
#include "sim/log.hh"
#include "trace/decision_log.hh"

using namespace kelp;
using namespace kelp::cluster;

namespace {

/** Small-but-nontrivial cluster the suite reuses: a few nodes, a
 * few node-hours, enough arrivals that placement has to choose. */
ClusterConfig
smallCluster()
{
    ClusterConfig cfg;
    cfg.nodes = 5;
    cfg.epochs = 3;
    cfg.arrivalsPerEpoch = 6.0;
    cfg.jobs = 1;
    return cfg;
}

NodeView
view(int index, int used, int capacity)
{
    NodeView v;
    v.index = index;
    v.usedThreads = used;
    v.capacityThreads = capacity;
    return v;
}

} // namespace

TEST(Scheduler, BinPackPicksFullestFeasibleNode)
{
    std::vector<NodeView> nodes = {view(0, 2, 12), view(1, 8, 12),
                                   view(2, 11, 12)};
    PlacementRequest req;
    req.kind = wl::CpuWorkload::Stream;
    req.threads = 2;
    // Node 2 has only 1 free thread; node 1 is the fullest that fits.
    EXPECT_EQ(placeJob(Placement::BinPack, {}, nodes, req), 1);
}

TEST(Scheduler, BinPackRespectsExcludeAndKind)
{
    std::vector<NodeView> nodes = {view(0, 4, 12), view(1, 4, 12)};
    nodes[0].hasKind = true;
    nodes[0].kind = wl::CpuWorkload::Stitch;
    PlacementRequest req;
    req.kind = wl::CpuWorkload::Stream;
    req.threads = 2;
    // Node 0 hosts a different kind; node 1 is excluded: no target.
    req.excludeNode = 1;
    EXPECT_EQ(placeJob(Placement::BinPack, {}, nodes, req), -1);
    req.excludeNode = -1;
    EXPECT_EQ(placeJob(Placement::BinPack, {}, nodes, req), 1);
}

TEST(Scheduler, InterferenceAwareAvoidsSaturatedAndEscalated)
{
    PolicyConfig pc;
    std::vector<NodeView> nodes = {view(0, 0, 12), view(1, 0, 12),
                                   view(2, 0, 12)};
    nodes[0].saturation = 0.85; // over the cap already
    nodes[1].rung = 1;          // escalated: shedding
    nodes[2].saturation = 0.30;
    PlacementRequest req;
    req.kind = wl::CpuWorkload::Stream;
    req.threads = 2;
    req.bwEstimate = 6.0;
    EXPECT_EQ(placeJob(Placement::InterferenceAware, pc, nodes, req),
              2);
    // Bin-pack sees none of that and takes the lowest index.
    EXPECT_EQ(placeJob(Placement::BinPack, pc, nodes, req), 0);
}

TEST(Scheduler, InterferenceAwareRejectsNearFloorNodes)
{
    PolicyConfig pc;
    std::vector<NodeView> nodes = {view(0, 0, 12)};
    nodes[0].perfRatio = pc.sloFloor + pc.sloMargin / 2.0;
    PlacementRequest req;
    req.kind = wl::CpuWorkload::Stream;
    req.threads = 1;
    req.bwEstimate = 1.0;
    EXPECT_EQ(placeJob(Placement::InterferenceAware, pc, nodes, req),
              -1);
}

TEST(Scheduler, EmptyRequestPanics)
{
    std::vector<NodeView> nodes = {view(0, 0, 12)};
    PlacementRequest req; // threads = 0
    EXPECT_DEATH(
        {
            sim::setContractMode(sim::ContractMode::Fatal);
            placeJob(Placement::BinPack, {}, nodes, req);
        },
        "threads");
}

TEST(Cluster, WorkerCountByteIdentity)
{
    // The tentpole guarantee: the evaluation fan-out commits in
    // strict index order, so --jobs never changes a byte of the
    // result.
    ClusterConfig serial = smallCluster();
    ClusterConfig parallel = smallCluster();
    parallel.jobs = 8;
    EXPECT_EQ(simulateCluster(serial).canonicalText(),
              simulateCluster(parallel).canonicalText());
}

TEST(Cluster, RepeatDeterminismAndSeedDivergence)
{
    ClusterConfig cfg = smallCluster();
    std::string a = simulateCluster(cfg).canonicalText();
    std::string b = simulateCluster(cfg).canonicalText();
    EXPECT_EQ(a, b);
    cfg.seed = 777;
    EXPECT_NE(a, simulateCluster(cfg).canonicalText());
}

TEST(Cluster, ConservationInvariants)
{
    ClusterConfig cfg = smallCluster();
    cfg.config = exp::ConfigKind::BL; // contention -> ladder actions
    cfg.placement = Placement::BinPack;
    ClusterResult r = simulateCluster(cfg);
    r.checkConservation();
    EXPECT_EQ(r.arrivals, r.placed + r.rejected);
    EXPECT_EQ(r.placed, r.finished + r.evictions + r.runningAtEnd);
    EXPECT_EQ(r.nodeHours,
              static_cast<uint64_t>(cfg.nodes) *
                  static_cast<uint64_t>(cfg.epochs));
    EXPECT_EQ(r.tailSamples.size(), r.nodeHours);
    EXPECT_EQ(r.epochs.size(), static_cast<size_t>(cfg.epochs));
    // Per-epoch rows sum to the totals.
    uint64_t arrivals = 0, placed = 0, rejected = 0;
    for (const EpochRow &row : r.epochs) {
        arrivals += row.arrivals;
        placed += row.placed;
        rejected += row.rejected;
    }
    EXPECT_EQ(arrivals, r.arrivals);
    EXPECT_EQ(placed, r.placed);
    EXPECT_EQ(rejected, r.rejected);
}

TEST(Cluster, LadderShedsUnderImpossibleFloor)
{
    // An SLO floor above what jitter allows forces every occupied
    // node onto the ladder; with migrate at rung 1 and evict at rung
    // 2 the cluster must shed -- and every shed job must stay
    // conserved (migrated jobs keep running, evicted ones terminal).
    ClusterConfig cfg = smallCluster();
    cfg.config = exp::ConfigKind::BL;
    cfg.placement = Placement::BinPack;
    cfg.sloFloor = 1.10;
    cfg.migrateRung = 1;
    cfg.evictRung = 2;
    ClusterResult r = simulateCluster(cfg);
    EXPECT_GT(r.migrations + r.evictions, 0u);
    EXPECT_EQ(r.sloNodeHours, 0u);
    r.checkConservation();
    // Migration history lands on the ledger.
    bool any_moved_or_evicted = false;
    for (const BatchJob &job : r.jobLedger) {
        if (job.migrations > 0 || job.state == JobState::Evicted)
            any_moved_or_evicted = true;
    }
    EXPECT_TRUE(any_moved_or_evicted);
}

TEST(Cluster, KelpNodesMeetSloWhereBaselineDoesNot)
{
    // The cluster-level restatement of the paper's node-level claim:
    // under the same scheduler and arrival stream, KP nodes keep
    // more node-hours inside the SLO than BL nodes.
    ClusterConfig bl = smallCluster();
    bl.placement = Placement::BinPack;
    bl.config = exp::ConfigKind::BL;
    ClusterConfig kp = bl;
    kp.config = exp::ConfigKind::KP;
    ClusterResult rbl = simulateCluster(bl);
    ClusterResult rkp = simulateCluster(kp);
    EXPECT_GT(rkp.sloFraction(), rbl.sloFraction());
    EXPECT_DOUBLE_EQ(rkp.sloFraction(), 1.0);
}

TEST(Cluster, InterferenceAwareProtectsBaselineSlo)
{
    // Under BL nodes (no node-level QoS), the interference-aware
    // scheduler must do no worse on SLO node-hours than blind
    // bin-packing, paying with stranded capacity instead.
    ClusterConfig bp = smallCluster();
    bp.config = exp::ConfigKind::BL;
    bp.placement = Placement::BinPack;
    ClusterConfig ia = bp;
    ia.placement = Placement::InterferenceAware;
    ClusterResult rbp = simulateCluster(bp);
    ClusterResult ria = simulateCluster(ia);
    EXPECT_GE(ria.sloFraction(), rbp.sloFraction());
    EXPECT_GE(ria.strandedRatio(), rbp.strandedRatio());
}

TEST(Cluster, TailsUseSharedPercentileConvention)
{
    ClusterResult r = simulateCluster(smallCluster());
    fleet::FleetResult tails = r.tails();
    EXPECT_EQ(tails.count(), r.tailSamples.size());
    // values() is sorted; p100 is the max, p0 the min.
    EXPECT_DOUBLE_EQ(tails.percentile(100.0), tails.values().back());
    EXPECT_DOUBLE_EQ(tails.percentile(0.0), tails.values().front());
}

TEST(Cluster, TrainingMlHasNoTails)
{
    // A training ML serves no requests: its per-node tails are
    // absent, not zeros, and the summary prints no tail line.
    ClusterConfig cfg = smallCluster();
    cfg.ml = wl::MlWorkload::Cnn1;
    ClusterResult r = simulateCluster(cfg);
    EXPECT_GT(r.nodeHours, 0u);
    EXPECT_TRUE(r.tailSamples.empty());
    EXPECT_EQ(r.tails().count(), 0u);
    EXPECT_EQ(r.canonicalText().find("tail-ms"), std::string::npos);

    // The inference default still samples one tail per node-hour.
    ClusterResult inf = simulateCluster(smallCluster());
    EXPECT_EQ(inf.tailSamples.size(), inf.nodeHours);
    EXPECT_NE(inf.canonicalText().find("tail-ms"), std::string::npos);
}

TEST(Cluster, DecisionLogAuditsSchedulerActions)
{
    ClusterConfig cfg = smallCluster();
    cfg.config = exp::ConfigKind::BL;
    cfg.sloFloor = 1.10; // force ladder actions
    cfg.migrateRung = 1;
    cfg.evictRung = 2;
    trace::DecisionLog log;
    ClusterResult r = simulateCluster(cfg, &log);
    ASSERT_FALSE(log.empty());
    uint64_t places = 0, rejects = 0, migrates = 0, evicts = 0;
    for (const trace::DecisionEvent &ev : log.events()) {
        if (ev.kind == "cluster-place")
            ++places;
        else if (ev.kind == "cluster-reject")
            ++rejects;
        else if (ev.kind == "cluster-migrate")
            ++migrates;
        else if (ev.kind == "cluster-evict")
            ++evicts;
    }
    EXPECT_EQ(places, r.placed);
    EXPECT_EQ(rejects, r.rejected);
    EXPECT_EQ(migrates, r.migrations);
    EXPECT_EQ(evicts, r.evictions);
}

TEST(Cluster, BadConfigPanics)
{
    ClusterConfig cfg;
    cfg.nodes = 0;
    EXPECT_DEATH(
        {
            sim::setContractMode(sim::ContractMode::Fatal);
            simulateCluster(cfg);
        },
        "node");
    cfg = ClusterConfig{};
    cfg.minJobEpochs = 3;
    cfg.maxJobEpochs = 2;
    EXPECT_DEATH(
        {
            sim::setContractMode(sim::ContractMode::Fatal);
            simulateCluster(cfg);
        },
        "lifetime");
}
