/**
 * @file
 * Fleet bench: the cluster-level payoff matrix of running Kelp (or
 * not) under a contention-blind vs interference-aware scheduler.
 *
 * Simulates a Kelp-managed cluster (src/cluster/) for every cell of
 * {bin-pack, interference-aware} x {BL, KP-SD, KP} and reports, per
 * cell:
 *
 *  - SLO node-hours: fraction of node-hours whose ML service met the
 *    performance-ratio floor (the Fig 14-style fleet QoS number);
 *  - stranded capacity: idle batch-thread-hours over capacity --
 *    what a conservative scheduler pays for protecting the SLO;
 *  - fleet tail: p99 across node-hours of the per-node p95 request
 *    latency (shared percentile convention);
 *  - placement/migration/eviction counts.
 *
 * The expected shape: bin-pack x BL packs bandwidth antagonists next
 * to the ML service and burns SLO node-hours; interference-aware x
 * BL protects the SLO by stranding capacity (rejecting work);
 * Kelp-managed cells pack tightly AND meet the SLO -- node-level QoS
 * buys back cluster-level capacity.
 *
 * `--diff-jobs` re-runs every cell serially and byte-compares the
 * canonical result text against the parallel run (CI cluster-smoke).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "exp/report.hh"
#include "sim/options.hh"
#include "trace/run_manifest.hh"

using namespace kelp;

namespace {

struct Cell
{
    cluster::Placement placement;
    exp::ConfigKind config;
};

cluster::ClusterConfig
cellConfig(const Cell &cell, int nodes, int epochs, uint64_t seed,
           int jobs)
{
    cluster::ClusterConfig cfg;
    cfg.placement = cell.placement;
    cfg.config = cell.config;
    cfg.nodes = nodes;
    cfg.epochs = epochs;
    cfg.seed = seed;
    cfg.jobs = jobs;
    return cfg;
}

std::string
cellName(const Cell &cell)
{
    return std::string(cluster::placementName(cell.placement)) + "/" +
           exp::configName(cell.config);
}

} // namespace

int
main(int argc, char **argv)
{
    sim::Options opts("bench_fleet",
                      "Cluster scheduler x node config payoff matrix");
    opts.addInt("nodes", 24, "Kelp-managed nodes in the cluster");
    opts.addInt("epochs", 12, "simulated node-hours per cell");
    opts.addInt("seed", 2019, "cluster simulation seed");
    opts.addInt("jobs", 0,
                "worker threads for node evaluations (0 = all cores, "
                "1 = serial)");
    opts.addBool("diff-jobs", false,
                 "re-run serially and byte-compare against the "
                 "parallel run");
    opts.addString("manifest", "",
                   "write a run manifest (JSON) to this path");
    if (!opts.parse(argc, argv))
        return 0;

    const int nodes = static_cast<int>(opts.getInt("nodes"));
    const int epochs = static_cast<int>(opts.getInt("epochs"));
    const uint64_t seed =
        static_cast<uint64_t>(opts.getInt("seed"));
    const int jobs = static_cast<int>(opts.getInt("jobs"));

    const std::vector<Cell> cells = {
        {cluster::Placement::BinPack, exp::ConfigKind::BL},
        {cluster::Placement::BinPack, exp::ConfigKind::KPSD},
        {cluster::Placement::BinPack, exp::ConfigKind::KP},
        {cluster::Placement::InterferenceAware, exp::ConfigKind::BL},
        {cluster::Placement::InterferenceAware, exp::ConfigKind::KPSD},
        {cluster::Placement::InterferenceAware, exp::ConfigKind::KP},
    };

    exp::banner("Fleet: scheduler x node config, " +
                std::to_string(nodes) + " nodes x " +
                std::to_string(epochs) + " node-hours");

    trace::RunManifest manifest;
    manifest.set("tool", "bench_fleet");
    manifest.set("nodes", nodes);
    manifest.set("epochs", epochs);
    manifest.set("seed", seed);

    exp::Table table({"scheduler/config", "SLO node-hours",
                      "stranded", "tail p99 (ms)", "placed",
                      "rejected", "migr", "evict"});
    std::vector<cluster::ClusterResult> results;
    for (const Cell &cell : cells) {
        cluster::ClusterResult r = cluster::simulateCluster(
            cellConfig(cell, nodes, epochs, seed, jobs));
        // A training ML serves no requests, so it has no tails.
        fleet::FleetResult tails = r.tails();
        table.addRow({cellName(cell), exp::pct(r.sloFraction(), 1),
                      exp::pct(r.strandedRatio(), 1),
                      tails.count() > 0 ?
                          exp::fmt(tails.percentile(99.0) * 1e3, 3) :
                          "absent",
                      std::to_string(r.placed),
                      std::to_string(r.rejected),
                      std::to_string(r.migrations),
                      std::to_string(r.evictions)});

        const std::string key = cellName(cell);
        manifest.set(key + ".slo_fraction", r.sloFraction());
        manifest.set(key + ".stranded_ratio", r.strandedRatio());
        manifest.set(key + ".placed", r.placed);
        manifest.set(key + ".rejected", r.rejected);
        manifest.set(key + ".migrations", r.migrations);
        manifest.set(key + ".evictions", r.evictions);
        manifest.set(key + ".evaluations", r.evaluations);
        if (!r.tailSamples.empty())
            manifest.addSamples(key + ".node_tail_p95_s", r.tailSamples);
        results.push_back(std::move(r));
    }
    table.print();
    std::printf("\nSLO floor: perf ratio >= 0.85 per node-hour; "
                "stranded = idle batch-thread-hours / capacity.\n");

    if (opts.getBool("diff-jobs")) {
        bool identical = true;
        for (size_t i = 0; i < cells.size(); ++i) {
            cluster::ClusterResult serial = cluster::simulateCluster(
                cellConfig(cells[i], nodes, epochs, seed, 1));
            if (serial.canonicalText() !=
                results[i].canonicalText()) {
                identical = false;
                std::printf("DIFF in cell %s\n",
                            cellName(cells[i]).c_str());
            }
        }
        std::printf("jobs-diff: %s\n",
                    identical ? "identical" : "DIVERGED");
        if (!identical)
            return 1;
    }

    const std::string manifest_path = opts.getString("manifest");
    if (!manifest_path.empty() &&
        !manifest.writeJson(manifest_path)) {
        std::fprintf(stderr, "failed to write manifest: %s\n",
                     manifest_path.c_str());
        return 1;
    }
    return 0;
}
