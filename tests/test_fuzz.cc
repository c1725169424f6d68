/**
 * @file
 * Tests for the scenario fuzzer: spec round-tripping, the
 * generator/mutator envelope, the oracle set, the shrinker's
 * 1-minimality, and byte-identical reports across worker counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "exp/spec.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/mutate.hh"
#include "fuzz/oracle.hh"
#include "fuzz/shrink.hh"
#include "sim/log.hh"
#include "sim/number.hh"
#include "sim/options.hh"
#include "sim/rng.hh"

using namespace kelp;
using namespace kelp::fuzz;
using kelp::exp::ScenarioSpec;
using kelp::sim::formatDouble;

namespace {

/** A short-horizon spec for tests that actually execute runs. */
ScenarioSpec
quickSpec()
{
    ScenarioSpec s;
    s.cfg.ml = wl::MlWorkload::Cnn1;
    s.cfg.config = exp::ConfigKind::KP;
    s.cfg.cpu = wl::CpuWorkload::Stitch;
    s.cfg.cpuInstances = 2;
    s.cfg.warmup = 2.0;
    s.cfg.measure = 8.0;
    s.cfg.samplePeriod = 1.0;
    return s;
}

} // namespace

// ------------------------------------------------------------------
// formatDouble / ScenarioSpec round-tripping

TEST(FuzzSpec, FormatDoubleShortestRoundTrip)
{
    EXPECT_EQ(formatDouble(0.0), "0");
    EXPECT_EQ(formatDouble(0.25), "0.25");
    EXPECT_EQ(formatDouble(12.5), "12.5");
    EXPECT_EQ(formatDouble(0.1), "0.1");
    // Reparse-reprint is a fixpoint even for awkward values.
    for (double v : {1.0 / 3.0, 0.1 + 0.2, 1e-9, 123456.789}) {
        std::string s = formatDouble(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
}

TEST(FuzzSpec, DefaultSpecRoundTrips)
{
    ScenarioSpec spec;
    std::string text = spec.toString();
    std::string error;
    auto back = ScenarioSpec::tryParse(text, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->toString(), text);
}

TEST(FuzzSpec, ToStringIsCanonicalFixpoint)
{
    // killAt folds into the kills list: the printed form reparses to
    // an equal spec even though the field layout differs.
    ScenarioSpec spec = quickSpec();
    spec.cfg.killAt = 5.0;
    spec.cfg.kills = {7.5};
    std::string text = spec.toString();
    EXPECT_NE(text.find("kills=5,7.5"), std::string::npos) << text;
    auto back = ScenarioSpec::tryParse(text);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->toString(), text);
    EXPECT_EQ(*back, spec);
}

TEST(FuzzSpec, ParseRejectsGarbage)
{
    std::string error;
    EXPECT_FALSE(ScenarioSpec::tryParse("ml=vax", &error));
    EXPECT_NE(error.find("unknown ml workload"), std::string::npos);

    EXPECT_FALSE(ScenarioSpec::tryParse("bogus=1", &error));
    EXPECT_NE(error.find("unknown key"), std::string::npos);

    EXPECT_FALSE(ScenarioSpec::tryParse("ml=cnn1\nml=cnn2", &error));
    EXPECT_NE(error.find("duplicate key"), std::string::npos);

    EXPECT_FALSE(ScenarioSpec::tryParse("measure=0", &error));
    EXPECT_NE(error.find("measure"), std::string::npos);

    EXPECT_FALSE(ScenarioSpec::tryParse("kills=4,-1", &error));
    EXPECT_NE(error.find("positive"), std::string::npos);

    EXPECT_FALSE(ScenarioSpec::tryParse("slo-floor=1.5", &error));
    EXPECT_NE(error.find("slo-floor"), std::string::npos);

    EXPECT_FALSE(ScenarioSpec::tryParse("warmup", &error));
    EXPECT_NE(error.find("key=value"), std::string::npos);
}

TEST(FuzzSpec, CommentsAndBlanksAreSkipped)
{
    auto spec = ScenarioSpec::tryParse(
        "# a comment\n\n  \nml=cnn3\n# another\nseed=9\n");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->cfg.ml, wl::MlWorkload::Cnn3);
    EXPECT_EQ(spec->cfg.seed, 9u);
}

namespace {

/** Parse @p args as the flags ScenarioSpec::addFlags registers on
 * top of @p defaults; nullopt + *error on a bad value. */
std::optional<ScenarioSpec>
specFromFlags(const ScenarioSpec &defaults,
              std::vector<const char *> args, std::string *error)
{
    sim::Options opts("prog", "spec flags");
    defaults.addFlags(opts);
    args.insert(args.begin(), "prog");
    EXPECT_TRUE(opts.parse(static_cast<int>(args.size()), args.data()));
    return ScenarioSpec::fromFlags(opts, error);
}

} // namespace

TEST(FuzzSpec, FlagsDefaultToTheRegisteringSpec)
{
    ScenarioSpec defaults = quickSpec();
    defaults.cfg.kills = {2.5};
    std::string error;
    auto spec = specFromFlags(defaults, {}, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(*spec, defaults);
}

TEST(FuzzSpec, FlagsSetTheirKeys)
{
    std::string error;
    auto spec = specFromFlags(
        ScenarioSpec(),
        {"--ml=rnn1", "--cpu", "dram", "--level=medium", "--churn",
         "--hardened=false", "--slo=1", "--kills=9,4",
         "--faults=drop=0.05", "--seed=77"},
        &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->cfg.ml, wl::MlWorkload::Rnn1);
    EXPECT_EQ(spec->cfg.cpu, wl::CpuWorkload::DramAggressor);
    EXPECT_EQ(spec->cfg.aggressorLevel, wl::AggressorLevel::Medium);
    EXPECT_TRUE(spec->cfg.churn.enabled);
    EXPECT_FALSE(spec->cfg.hardened);
    EXPECT_TRUE(spec->cfg.slo.enabled);
    EXPECT_EQ(spec->cfg.seed, 77u);
    EXPECT_EQ(spec->cfg.faults.toString(), "drop=0.05");
    EXPECT_NE(spec->toString().find("kills=4,9\n"), std::string::npos);
}

TEST(FuzzSpec, BadFlagValuesGetTheSpecError)
{
    std::string error;
    EXPECT_FALSE(specFromFlags(ScenarioSpec(), {"--instances=-2"},
                               &error));
    EXPECT_NE(error.find("instances: out of range"), std::string::npos)
        << error;
    EXPECT_FALSE(specFromFlags(ScenarioSpec(), {"--seed="}, &error));
    EXPECT_NE(error.find("seed: bad number"), std::string::npos)
        << error;
    EXPECT_FALSE(specFromFlags(ScenarioSpec(), {"--seed=-1"}, &error));
    EXPECT_FALSE(specFromFlags(ScenarioSpec(), {"--threads=1.5"}, &error));
    EXPECT_FALSE(specFromFlags(ScenarioSpec(), {"--warmup=nan"}, &error));
    EXPECT_NE(error.find("warmup: bad number"), std::string::npos)
        << error;
    EXPECT_FALSE(specFromFlags(ScenarioSpec(), {"--cpu="}, &error));
    EXPECT_NE(error.find("unknown colocated cpu workload"),
              std::string::npos)
        << error;
}

TEST(FuzzSpec, RandomizedMutantRoundTrip)
{
    // Every spec the mutator can emit round-trips through the
    // grammar byte-for-byte: the corpus never archives an
    // unparseable find.
    sim::Rng rng(2024);
    std::vector<ScenarioSpec> pool = seedSpecs();
    for (int i = 0; i < 300; ++i) {
        ScenarioSpec spec = pool[rng.below(pool.size())];
        mutateSpec(spec, rng, 1 + static_cast<int>(rng.below(5)));
        std::string text = spec.toString();
        std::string error;
        auto back = ScenarioSpec::tryParse(text, &error);
        ASSERT_TRUE(back.has_value()) << error << "\n" << text;
        EXPECT_EQ(back->toString(), text);
        pool.push_back(spec);
    }
}

// ------------------------------------------------------------------
// Generator / mutator

TEST(FuzzMutate, GenerateSpecIsPureInSeedAndIndex)
{
    const std::vector<ScenarioSpec> pool = seedSpecs();
    for (uint64_t idx : {0ull, 1ull, 17ull, 255ull}) {
        ScenarioSpec a = generateSpec(42, idx, pool);
        ScenarioSpec b = generateSpec(42, idx, pool);
        EXPECT_EQ(a, b) << "index " << idx;
    }
    // Different indices explore different specs (not a constant).
    std::set<std::string> texts;
    for (uint64_t idx = 0; idx < 16; ++idx)
        texts.insert(generateSpec(42, idx, pool).toString());
    EXPECT_GT(texts.size(), 4u);
}

TEST(FuzzMutate, MutantsStayInsideTheEnvelope)
{
    sim::Rng rng(7);
    std::vector<ScenarioSpec> pool = seedSpecs();
    for (int i = 0; i < 200; ++i) {
        ScenarioSpec spec = generateSpec(7, static_cast<uint64_t>(i),
                                         pool);
        const exp::RunConfig &c = spec.cfg;
        EXPECT_GT(c.measure, 0.0);
        EXPECT_GE(c.warmup, 0.0);
        EXPECT_GT(c.samplePeriod, 0.0);
        EXPECT_GE(c.cpuInstances, 1);
        for (sim::Time t : c.kills) {
            EXPECT_GT(t, 0.0);
            EXPECT_LT(t, c.warmup + c.measure);
        }
        if (c.slo.enabled) {
            EXPECT_GT(c.slo.minPerfRatio, 0.0);
            EXPECT_LE(c.slo.minPerfRatio, 1.0);
        }
        if (c.churn.enabled) {
            EXPECT_GT(c.churn.arrivalRate, 0.0);
        }
    }
}

// ------------------------------------------------------------------
// Oracles

TEST(FuzzOracle, LadderThrashRate)
{
    EXPECT_DOUBLE_EQ(ladderThrashRate(0, 10.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(ladderThrashRate(5, 10.0, 1.0), 0.5);
    EXPECT_DOUBLE_EQ(ladderThrashRate(5, 10.0, 2.0), 1.0);
    EXPECT_DOUBLE_EQ(ladderThrashRate(3, 0.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(ladderThrashRate(3, 10.0, 0.0), 0.0);
}

TEST(FuzzOracle, ResultTextIsStablePerRun)
{
    sim::setContractMode(sim::ContractMode::Count);
    OracleConfig ocfg;
    ocfg.doubleRun = false;
    ocfg.twinRun = false;
    TrialOutcome a = runTrial(quickSpec(), ocfg);
    TrialOutcome b = runTrial(quickSpec(), ocfg);
    EXPECT_EQ(a.resultText, b.resultText);
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_NE(a.resultText.find("mlPerf="), std::string::npos);
}

TEST(FuzzOracle, BenignSpecFiresNothing)
{
    sim::setContractMode(sim::ContractMode::Count);
    OracleConfig ocfg;
    TrialOutcome out = runTrial(quickSpec(), ocfg);
    EXPECT_FALSE(out.fired())
        << out.hits.front().name << ": " << out.hits.front().detail;
    EXPECT_GT(out.decisionEvents, 0u);
    EXPECT_FALSE(out.coverage.empty());
}

TEST(FuzzOracle, KilledRunMatchesTwinWhenFaultFree)
{
    // The restart-divergence oracle leans on the bit-neutral restart
    // guarantee; check it holds through the oracle's own lens.
    sim::setContractMode(sim::ContractMode::Count);
    ScenarioSpec spec = quickSpec();
    spec.cfg.kills = {4.0, 7.0};
    OracleConfig ocfg;
    EXPECT_FALSE(oracleFires(spec, "restart-divergence", ocfg));
}

TEST(FuzzOracle, UnknownOracleNameIsFatal)
{
    OracleConfig ocfg;
    EXPECT_EXIT(oracleFires(quickSpec(), "no-such-oracle", ocfg),
                ::testing::ExitedWithCode(1), "unknown oracle");
}

// ------------------------------------------------------------------
// Shrinker

TEST(FuzzShrink, CandidatesAreStrictlySmallerAndParseable)
{
    ScenarioSpec spec = quickSpec();
    spec.cfg.kills = {3.0, 6.0};
    spec.cfg.churn.enabled = true;
    spec.cfg.faults.dropProb = 0.1;
    spec.cfg.slo.enabled = true;
    spec.cfg.hardened = false;
    std::vector<ScenarioSpec> cands = shrinkCandidates(spec);
    ASSERT_FALSE(cands.empty());
    for (const ScenarioSpec &c : cands) {
        EXPECT_NE(c, spec);
        auto back = ScenarioSpec::tryParse(c.toString());
        EXPECT_TRUE(back.has_value());
    }
}

TEST(FuzzShrink, PredicateShrinkIsOneMinimal)
{
    // Synthetic predicate: "fails" iff the spec schedules at least
    // one kill AND has churn enabled. Everything else is noise the
    // shrinker must strip.
    ScenarioSpec noisy = quickSpec();
    noisy.cfg.kills = {3.0, 5.0, 7.0};
    noisy.cfg.churn.enabled = true;
    noisy.cfg.churn.crashProb = 0.5;
    noisy.cfg.churn.maxLive = 6;
    noisy.cfg.faults.dropProb = 0.1;
    noisy.cfg.faults.knobFailProb = 0.3;
    noisy.cfg.slo.enabled = true;
    noisy.cfg.cpuThreadsOverride = 12;
    noisy.cfg.hardened = false;

    auto fails = [](const ScenarioSpec &s) {
        return !s.cfg.kills.empty() && s.cfg.churn.enabled;
    };
    ASSERT_TRUE(fails(noisy));

    ShrinkResult res = shrinkWith(noisy, fails, 10000);
    EXPECT_TRUE(res.minimal);
    EXPECT_GT(res.steps, 0);
    EXPECT_TRUE(fails(res.spec));

    // The shrunk spec kept only what the predicate needs...
    EXPECT_EQ(res.spec.cfg.kills.size(), 1u);
    EXPECT_TRUE(res.spec.cfg.churn.enabled);
    EXPECT_DOUBLE_EQ(res.spec.cfg.faults.dropProb, 0.0);
    EXPECT_DOUBLE_EQ(res.spec.cfg.faults.knobFailProb, 0.0);
    EXPECT_FALSE(res.spec.cfg.slo.enabled);
    EXPECT_EQ(res.spec.cfg.cpuThreadsOverride, 0);
    EXPECT_TRUE(res.spec.cfg.hardened);

    // ... and is 1-minimal: no single-step reduction still fails.
    for (const ScenarioSpec &c : shrinkCandidates(res.spec))
        EXPECT_FALSE(fails(c)) << c.toString();
}

TEST(FuzzShrink, BudgetExhaustionIsReportedNotMinimal)
{
    ScenarioSpec noisy = quickSpec();
    noisy.cfg.kills = {3.0, 5.0, 7.0};
    noisy.cfg.churn.enabled = true;
    auto alwaysFails = [](const ScenarioSpec &) { return true; };
    ShrinkResult res = shrinkWith(noisy, alwaysFails, 3);
    EXPECT_FALSE(res.minimal);
    EXPECT_EQ(res.attempts, 3);
}

// ------------------------------------------------------------------
// Campaign determinism

TEST(FuzzCampaign, ReportIsByteIdenticalAcrossJobs)
{
    FuzzOptions opts;
    opts.seed = 11;
    opts.trials = 6;
    opts.batch = 3;
    opts.shrink = false; // keep the test cheap; CLI smoke covers it

    opts.jobs = 1;
    FuzzReport serial = fuzz::fuzz(opts);
    opts.jobs = 4;
    FuzzReport parallel = fuzz::fuzz(opts);
    EXPECT_EQ(serial.toText(), parallel.toText());
    EXPECT_EQ(serial.coverageKeys, parallel.coverageKeys);
    EXPECT_GT(serial.coverageKeys, 0u);
}

// ------------------------------------------------------------------
// Corpus format

TEST(FuzzCorpus, EntryTextRoundTrips)
{
    CorpusEntry entry;
    entry.oracle = "contract-violation";
    entry.spec = quickSpec();
    std::string text = corpusEntryText(entry);
    std::string error;
    auto back = parseCorpusEntry(text, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->oracle, entry.oracle);
    EXPECT_EQ(back->spec, entry.spec);
    EXPECT_EQ(corpusEntryText(*back), text);
}

TEST(FuzzCorpus, FixedStatusRoundTrips)
{
    CorpusEntry entry;
    entry.oracle = "watchdog-stuck";
    entry.fixed = true;
    entry.spec = quickSpec();
    std::string text = corpusEntryText(entry);
    EXPECT_NE(text.find("# status: fixed\n"), std::string::npos);
    std::string error;
    auto back = parseCorpusEntry(text, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_TRUE(back->fixed);
    EXPECT_EQ(corpusEntryText(*back), text);

    // Open entries must not grow a status directive.
    entry.fixed = false;
    EXPECT_EQ(corpusEntryText(entry).find("# status:"),
              std::string::npos);
}

TEST(FuzzCorpus, EntryParsingIsStrict)
{
    std::string error;
    EXPECT_FALSE(parseCorpusEntry("ml=cnn1\n", &error));
    EXPECT_NE(error.find("oracle"), std::string::npos);

    EXPECT_FALSE(
        parseCorpusEntry("# oracle: nonsense\nml=cnn1\n", &error));
    EXPECT_NE(error.find("unknown oracle"), std::string::npos);

    EXPECT_FALSE(parseCorpusEntry(
        "# oracle: bad-metric\n# oracle: bad-metric\nml=cnn1\n",
        &error));
    EXPECT_NE(error.find("multiple"), std::string::npos);

    EXPECT_FALSE(
        parseCorpusEntry("# oracle: bad-metric\nml=vax\n", &error));

    EXPECT_FALSE(parseCorpusEntry(
        "# oracle: bad-metric\n# status: wontfix\nml=cnn1\n",
        &error));
    EXPECT_NE(error.find("unknown status"), std::string::npos);

    EXPECT_FALSE(parseCorpusEntry("# oracle: bad-metric\n"
                                  "# status: fixed\n"
                                  "# status: fixed\nml=cnn1\n",
                                  &error));
    EXPECT_NE(error.find("multiple"), std::string::npos);
}

TEST(FuzzCorpus, FileNameIsContentAddressed)
{
    CorpusEntry a{"bad-metric", false, quickSpec()};
    CorpusEntry b = a;
    EXPECT_EQ(corpusFileName(a), corpusFileName(b));
    b.spec.cfg.seed = 777;
    EXPECT_NE(corpusFileName(a), corpusFileName(b));
    EXPECT_NE(corpusFileName(a).find("bad-metric-"),
              std::string::npos);
    EXPECT_NE(corpusFileName(a).find(".scenario"), std::string::npos);
}
