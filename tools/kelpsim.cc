/**
 * @file
 * kelpsim: command-line driver for single experiments.
 *
 * Runs one workload mix under one runtime configuration and reports
 * the normalized results; optionally records a telemetry CSV of the
 * controller's knobs and the hardware signals, a Perfetto-compatible
 * JSON trace, a controller decision audit log (JSONL), and a run
 * manifest over the run.
 *
 * The run-defining flags are exactly the exp::ScenarioSpec keys, one
 * `--key=value` per spec line, parsed by the spec's strict parser;
 * the remaining flags choose outputs and run modes. The manifest
 * records the canonical spec, so any run can be replayed from it.
 *
 * Examples:
 *   kelpsim --ml=cnn1 --cpu=stitch --instances=4 --config=kp
 *   kelpsim --ml=rnn1 --cpu=cpuml --threads=12 --config=ct
 *   kelpsim --ml=cnn2 --cpu=dram --level=high --config=kpsd \
 *           --telemetry=run.csv --trace=run.trace.json \
 *           --decisions=run.decisions.jsonl --manifest=run.json
 */

#include <chrono>  // kelp: allow(determinism): --perf wall-clock line
#include <cstdio>
#include <optional>
#include <string>

#include "cluster/cluster.hh"
#include "exp/pool.hh"
#include "exp/report.hh"
#include "exp/scenario.hh"
#include "exp/spec.hh"
#include "hal/counters.hh"
#include "hal/fault_injector.hh"
#include "sim/log.hh"
#include "sim/number.hh"
#include "sim/options.hh"
#include "trace/decision_log.hh"
#include "trace/run_manifest.hh"
#include "trace/telemetry.hh"
#include "trace/trace_recorder.hh"

using namespace kelp;

namespace {

cluster::Placement
parsePlacement(const std::string &name)
{
    if (name == "binpack" || name == "bin-pack")
        return cluster::Placement::BinPack;
    if (name == "interference" || name == "interference-aware")
        return cluster::Placement::InterferenceAware;
    sim::fatal("unknown placement '", name,
               "' (binpack|interference)");
}

} // namespace

int
main(int argc, char **argv)
{
    sim::Options opts("kelpsim",
                      "run one colocation experiment on a simulated "
                      "accelerated node");
    // One flag per spec key; kelpsim's only own default is the full
    // Kelp runtime.
    exp::ScenarioSpec defaults;
    defaults.cfg.config = exp::ConfigKind::KP;
    defaults.addFlags(opts);
    opts.addString("telemetry", "",
                   "write knob/signal time series to this CSV file");
    opts.addString("trace", "",
                   "write a Perfetto/chrome://tracing JSON trace "
                   "(phase spans, decision instants, counter tracks) "
                   "to this file");
    opts.addString("decisions", "",
                   "write the controller decision audit log (JSONL) "
                   "to this file");
    opts.addString("manifest", "",
                   "write a run manifest (the run's spec, build, "
                   "result summary) JSON to this file");
    opts.addInt("cluster", 0,
                "simulate a cluster of this many Kelp-managed nodes "
                "instead of one node (uses --ml, --config, --seed, "
                "--jobs, --slo-floor, --manifest, --decisions)");
    opts.addInt("cluster-epochs", 12,
                "simulated node-hours per node (--cluster runs)");
    opts.addString("cluster-placement", "interference",
                   "cluster scheduler: binpack|interference");
    opts.addBool("contract-selftest", false,
                 "deliberately violate one contract before the run "
                 "(verifies the release-mode violation counter "
                 "end-to-end)");
    opts.addBool("full-tick", false,
                 "disable the event-driven fast path: every tick "
                 "runs the full pipeline (results are bit-identical; "
                 "this is the A/B reference for perf work)");
    opts.addBool("perf", false,
                 "print wall-clock simulation throughput "
                 "(nondeterministic; excluded from byte-diff flows)");
    opts.addInt("jobs", 0,
                "worker threads (0 = all cores, 1 = serial); the "
                "standalone reference and the measured run are "
                "independent jobs");
    if (!opts.parse(argc, argv))
        return 0;
    if (!opts.positional().empty()) {
        // A bare word is a mistyped flag or scenario name; running
        // the default experiment instead (and exiting 0) would let
        // scripted sweeps silently collect the wrong data.
        std::fprintf(stderr,
                     "kelpsim: unexpected argument '%s'\n\n%s",
                     opts.positional().front().c_str(),
                     opts.usage().c_str());
        return 2;
    }
    std::string specError;
    std::optional<exp::ScenarioSpec> spec =
        exp::ScenarioSpec::fromFlags(opts, &specError);
    if (!spec)
        sim::fatal("bad run spec: ", specError, "\n", opts.usage());
    exp::RunConfig cfg = spec->cfg;
    cfg.eventDriven = !opts.getBool("full-tick");

    if (opts.getInt("cluster") > 0) {
        cluster::ClusterConfig ccfg;
        ccfg.nodes = static_cast<int>(opts.getInt("cluster"));
        ccfg.epochs = static_cast<int>(opts.getInt("cluster-epochs"));
        ccfg.placement =
            parsePlacement(opts.getString("cluster-placement"));
        ccfg.ml = cfg.ml;
        ccfg.config = cfg.config;
        ccfg.sloFloor = cfg.slo.minPerfRatio;
        ccfg.seed = cfg.seed;
        ccfg.jobs = static_cast<int>(opts.getInt("jobs"));

        trace::DecisionLog clog;
        std::string clusterDecisions = opts.getString("decisions");
        cluster::ClusterResult cr = cluster::simulateCluster(
            ccfg, clusterDecisions.empty() ? nullptr : &clog);

        std::printf("cluster: %d nodes x %d node-hours, %s "
                    "scheduler, %s nodes (%s)\n",
                    ccfg.nodes, ccfg.epochs,
                    cluster::placementName(ccfg.placement),
                    exp::configName(ccfg.config),
                    wl::mlName(ccfg.ml));
        std::printf("%s", cr.canonicalText().c_str());

        if (!clusterDecisions.empty()) {
            if (!clog.writeJsonl(clusterDecisions))
                sim::fatal("cannot write decision log to ",
                           clusterDecisions);
            std::printf("decision log written to %s (%zu events)\n",
                        clusterDecisions.c_str(), clog.size());
        }
        std::string clusterManifest = opts.getString("manifest");
        if (!clusterManifest.empty()) {
            trace::RunManifest man;
            man.set("tool", "kelpsim-cluster");
            man.set("ml", wl::mlName(ccfg.ml));
            man.set("config", exp::configName(ccfg.config));
            man.set("placement",
                    cluster::placementName(ccfg.placement));
            man.set("nodes", ccfg.nodes);
            man.set("epochs", ccfg.epochs);
            man.set("seed", ccfg.seed);
            man.set("slo_floor", ccfg.sloFloor);
            man.set("arrivals", cr.arrivals);
            man.set("placed", cr.placed);
            man.set("rejected", cr.rejected);
            man.set("migrations", cr.migrations);
            man.set("evictions", cr.evictions);
            man.set("finished", cr.finished);
            man.set("running_at_end", cr.runningAtEnd);
            man.set("node_hours", cr.nodeHours);
            man.set("slo_node_hours", cr.sloNodeHours);
            man.set("slo_fraction", cr.sloFraction());
            man.set("stranded_ratio", cr.strandedRatio());
            man.set("evaluations", cr.evaluations);
            man.set("contract_violations", sim::contractViolations());
            if (!cr.tailSamples.empty())
                man.addSamples("node_tail_p95_s", cr.tailSamples);
            if (!man.writeJson(clusterManifest))
                sim::fatal("cannot write manifest to ",
                           clusterManifest);
            std::printf("manifest written to %s\n",
                        clusterManifest.c_str());
        }
        return 0;
    }

    if (opts.getBool("contract-selftest")) {
        // Count mode regardless of build type so the violation is
        // recorded (not fatal) and shows up in the report below.
        sim::setContractMode(sim::ContractMode::Count);
        KELP_INVARIANT(false, "contract self-test (--contract-selftest)");
    }

    std::string csv = opts.getString("telemetry");
    std::string tracePath = opts.getString("trace");
    std::string decisionsPath = opts.getString("decisions");
    std::string manifestPath = opts.getString("manifest");

    trace::Telemetry tel;
    trace::TraceRecorder recorder;
    trace::DecisionLog decisions;
    exp::Observability obs;
    // A trace wants the telemetry counter tracks too, so the probes
    // run whenever either output is requested.
    if (!csv.empty() || !tracePath.empty())
        obs.telemetry = &tel;
    if (!tracePath.empty())
        obs.recorder = &recorder;
    if (!decisionsPath.empty() || !tracePath.empty())
        obs.decisions = &decisions;

    exp::RunResult ref;
    exp::RunResult r;
    // kelp: allow(determinism): wall time feeds only the --perf line
    auto wall0 = std::chrono::steady_clock::now();
    if (!obs.any() && manifestPath.empty()) {
        // The standalone reference and the measured run share no
        // state (the reference memo is guarded), so they are two
        // independent jobs; --jobs 1 reproduces the serial order.
        exp::runJobs(2, static_cast<int>(opts.getInt("jobs")),
                     [&](int i) {
                         if (i == 0)
                             ref = exp::standaloneReference(cfg.ml);
                         else
                             r = exp::runScenario(cfg);
                     });
    } else {
        // Instrumented run. measureScenario is the same measurement
        // body runScenario uses, so the observability sinks never
        // change the reported numbers.
        ref = exp::standaloneReference(cfg.ml);
        exp::Scenario s = exp::buildScenario(cfg, obs);
        r = exp::measureScenario(s, cfg);

        if (!csv.empty()) {
            if (!tel.writeCsv(csv))
                sim::fatal("cannot write telemetry to ", csv);
            std::printf("telemetry written to %s\n", csv.c_str());
        }
        if (!tracePath.empty()) {
            recorder.importTelemetry(tel);
            recorder.importDecisions(decisions);
            if (!recorder.writeJson(tracePath))
                sim::fatal("cannot write trace to ", tracePath);
            std::printf("trace written to %s (%zu events)\n",
                        tracePath.c_str(), recorder.size());
        }
        if (!decisionsPath.empty()) {
            if (!decisions.writeJsonl(decisionsPath))
                sim::fatal("cannot write decision log to ",
                           decisionsPath);
            std::printf("decision log written to %s (%zu events)\n",
                        decisionsPath.c_str(), decisions.size());
        }
        if (!manifestPath.empty()) {
            trace::RunManifest man;
            man.set("tool", "kelpsim");
            man.set("spec", spec->toString());
            man.set("tick_s", cfg.tick);
            man.set("contract_violations", sim::contractViolations());
            man.set("ml_perf", r.mlPerf);
            man.set("ml_perf_ref", ref.mlPerf);
            if (s.inferTask)
                man.set("ml_tail_p95_s", r.mlTailP95);
            man.set("cpu_throughput", r.cpuThroughput);
            man.set("avg_lo_cores", r.avgLoCores);
            man.set("avg_lo_prefetchers", r.avgLoPrefetchers);
            man.set("avg_hi_backfill", r.avgHiBackfill);
            man.set("fail_safe_entries", r.failSafeEntries);
            man.set("time_in_fail_safe_s", r.timeInFailSafe);
            man.set("restarts", r.restarts);
            man.set("decision_events", decisions.size());
            man.set("engine_ticks", r.engineTicks);
            man.set("engine_fast_ticks", r.engineFastTicks);
            man.set("engine_full_ticks", r.engineFullTicks);
            man.set("engine_skip_ratio", r.skipRatio());
            man.set("periodic_fires", r.periodicFires);
            man.set("demand_calls", r.demandCalls);
            man.set("advance_calls", r.advanceCalls);
            man.set("fast_task_ticks", r.fastTaskTicks);
            man.set("resolve_cache_hits", r.resolveCacheHits);
            man.set("resolve_cache_misses", r.resolveCacheMisses);
            man.set("mc_cache_hits", r.mcCacheHits);
            man.set("mc_cache_misses", r.mcCacheMisses);
            man.set("mem_fast_ticks", r.memFastTicks);
            man.set("llc_memo_hits", r.llcMemoHits);
            man.set("llc_memo_misses", r.llcMemoMisses);
            if (s.inferTask) {
                man.addHistogram("ml_request_latency_s",
                                 s.inferTask->latency());
            }
            if (s.server) {
                man.set("req_arrivals", r.reqArrivals);
                man.set("req_admitted", r.reqAdmitted);
                man.set("req_rejected", r.reqRejected);
                man.set("req_shed", r.reqShed);
                man.set("req_expired", r.reqExpired);
                man.set("req_completed", r.reqCompleted);
                man.set("brownout_transitions",
                        r.brownoutTransitions);
                man.addHistogram("request_latency_s",
                                 s.server->latency());
            }
            if (!man.writeJson(manifestPath))
                sim::fatal("cannot write manifest to ", manifestPath);
            std::printf("manifest written to %s\n",
                        manifestPath.c_str());
        }
    }

    std::printf("%s %s%s under %s:\n", wl::mlName(cfg.ml),
                cfg.cpu ? "+ " : "(standalone)",
                cfg.cpu ? wl::cpuName(*cfg.cpu) : "",
                exp::configName(cfg.config));
    std::printf("  ML performance : %.2f /s (%.0f%% of standalone)\n",
                r.mlPerf, 100.0 * r.mlPerf / ref.mlPerf);
    if (r.mlTailP95 > 0.0) {
        std::printf("  p95 latency    : %.2f ms (standalone %.2f)\n",
                    1e3 * r.mlTailP95, 1e3 * ref.mlTailP95);
    }
    std::printf("  CPU throughput : %.2f units/s\n", r.cpuThroughput);
    std::printf("  knobs (avg)    : lo cores %.1f, prefetchers %.1f, "
                "backfill %.1f\n",
                r.avgLoCores, r.avgLoPrefetchers, r.avgHiBackfill);
    if (cfg.faults.any()) {
        std::printf("  faults         : %s controller, fail-safe "
                    "entries %llu, time in fail-safe %.0f s\n",
                    cfg.hardened ? "hardened" : "naive",
                    static_cast<unsigned long long>(r.failSafeEntries),
                    r.timeInFailSafe);
    }
    if (cfg.churn.enabled) {
        std::printf("  churn          : %llu arrivals, %llu finished, "
                    "%llu crashed, %llu rejected\n",
                    static_cast<unsigned long long>(r.churnArrivals),
                    static_cast<unsigned long long>(r.churnFinishes),
                    static_cast<unsigned long long>(r.churnCrashes),
                    static_cast<unsigned long long>(r.churnRejected));
    }
    if (cfg.serving.enabled) {
        std::printf(
            "  traffic        : %s\n",
            cfg.serving.traffic.toString().c_str());
        std::printf(
            "  requests       : %llu arrived, %llu admitted, "
            "%llu rejected, %llu shed, %llu expired, "
            "%llu completed, %llu in flight\n",
            static_cast<unsigned long long>(r.reqArrivals),
            static_cast<unsigned long long>(r.reqAdmitted),
            static_cast<unsigned long long>(r.reqRejected),
            static_cast<unsigned long long>(r.reqShed),
            static_cast<unsigned long long>(r.reqExpired),
            static_cast<unsigned long long>(r.reqCompleted),
            static_cast<unsigned long long>(r.reqInFlight));
        std::printf("  request tails  : p99 %.2f ms, p99.9 %.2f ms, "
                    "p99.99 %.2f ms\n",
                    1e3 * r.reqP99, 1e3 * r.reqP999,
                    1e3 * r.reqP9999);
        std::printf("  brownout       : %llu transitions, final "
                    "level %d\n",
                    static_cast<unsigned long long>(
                        r.brownoutTransitions),
                    r.brownoutFinal);
    }
    if (!cfg.kills.empty()) {
        std::string kills;
        for (sim::Time t : cfg.kills) {
            if (!kills.empty())
                kills += ", ";
            kills += sim::formatDouble(t);
        }
        std::printf("  restarts       : %llu (kills at %s s)\n",
                    static_cast<unsigned long long>(r.restarts),
                    kills.c_str());
    }
    if (cfg.slo.enabled) {
        std::printf("  SLO ladder     : %llu violations, %llu rung "
                    "transitions, final rung %s\n",
                    static_cast<unsigned long long>(r.sloViolations),
                    static_cast<unsigned long long>(r.sloTransitions),
                    runtime::sloRungName(r.sloFinalRung));
    }
    if (sim::contractViolations() > 0) {
        std::printf("  contracts      : %llu violation(s) recorded "
                    "(counted, not fatal)\n",
                    static_cast<unsigned long long>(
                        sim::contractViolations()));
    }
    // Tick-engine cost breakdown: how much of the run the
    // event-driven engine proved quiescent and skipped, and what the
    // full-path ticks actually paid for. Deterministic counters --
    // safe inside the CI byte-diff.
    std::printf("  tick engine    : %llu ticks (%llu fast-forwarded, "
                "%llu executed), skip %.1f%%\n",
                static_cast<unsigned long long>(r.engineTicks),
                static_cast<unsigned long long>(r.engineFastTicks),
                static_cast<unsigned long long>(r.engineFullTicks),
                100.0 * r.skipRatio());
    std::printf("  full-path cost : %llu demand + %llu advance calls, "
                "%llu periodic fires, %llu fast task-ticks\n",
                static_cast<unsigned long long>(r.demandCalls),
                static_cast<unsigned long long>(r.advanceCalls),
                static_cast<unsigned long long>(r.periodicFires),
                static_cast<unsigned long long>(r.fastTaskTicks));
    std::printf("  resolve cache  : mem %llu hit / %llu miss, "
                "mc %llu hit / %llu miss, llc %llu hit / %llu miss, "
                "%llu mem fast ticks\n",
                static_cast<unsigned long long>(r.resolveCacheHits),
                static_cast<unsigned long long>(r.resolveCacheMisses),
                static_cast<unsigned long long>(r.mcCacheHits),
                static_cast<unsigned long long>(r.mcCacheMisses),
                static_cast<unsigned long long>(r.llcMemoHits),
                static_cast<unsigned long long>(r.llcMemoMisses),
                static_cast<unsigned long long>(r.memFastTicks));
    if (opts.getBool("perf")) {
        // kelp: allow(determinism): --perf opts into wall clocks
        auto wall1 = std::chrono::steady_clock::now();
        double wall_s =
            std::chrono::duration<double>(wall1 - wall0).count();
        double tps = wall_s > 0.0
                         ? static_cast<double>(r.engineTicks) / wall_s
                         : 0.0;
        std::printf("  throughput     : %.3g ticks/s wall "
                    "(%.2f s wall for %.0f s simulated)\n",
                    tps, wall_s, cfg.warmup + cfg.measure);
    }
    return 0;
}
