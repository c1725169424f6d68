/**
 * @file
 * Tests for the HAL fault injectors: plan parsing, each telemetry
 * fault class, actuation failure/delay semantics, and determinism.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hal/fault_injector.hh"
#include "sim/rng.hh"

using namespace kelp;
using namespace kelp::hal;

namespace {

/**
 * Scripted telemetry backend: every read returns a slightly
 * different, fully deterministic sample (real windowed counters
 * always jitter, and the stuck detector depends on that).
 */
class ScriptedSource : public CounterSource
{
  public:
    CounterSample
    sample(sim::SocketId socket) override
    {
        (void)socket;
        ++n_;
        CounterSample s;
        s.windowEnd = 0.01 * n_;
        s.socketBw = 50.0 + 0.125 * n_;
        s.memLatency = 120.0 + 0.25 * n_;
        s.saturation = 0.05 + 0.001 * n_;
        s.subdomainBw = {20.0 + 0.0625 * n_, 30.0 + 0.0625 * n_};
        s.subdomainLat = {110.0 + 0.5 * n_, 130.0 + 0.5 * n_};
        return s;
    }

  private:
    int n_ = 0;
};

/** Actuation backend that records every write it receives. */
class RecordingSink : public KnobSink
{
  public:
    struct Write
    {
        char kind;  // 'c', 'p', or 'w'
        sim::GroupId group;
        int value;
    };

    bool
    setCores(sim::GroupId group, sim::SocketId socket,
             sim::SubdomainId sub, int count) override
    {
        (void)socket;
        (void)sub;
        writes.push_back({'c', group, count});
        return true;
    }

    bool
    setPrefetchersEnabled(sim::GroupId group, int count) override
    {
        writes.push_back({'p', group, count});
        return true;
    }

    bool
    setCatWays(sim::GroupId group, int ways) override
    {
        writes.push_back({'w', group, ways});
        return true;
    }

    std::vector<Write> writes;
};

bool
sameSample(const CounterSample &a, const CounterSample &b)
{
    return a.windowEnd == b.windowEnd && a.socketBw == b.socketBw &&
           a.memLatency == b.memLatency &&
           a.saturation == b.saturation &&
           a.subdomainBw == b.subdomainBw &&
           a.subdomainLat == b.subdomainLat;
}

} // namespace

TEST(FaultPlan, EmptySpecIsDisabled)
{
    FaultPlan p = FaultPlan::parse("");
    EXPECT_FALSE(p.any());
    EXPECT_EQ(p.dropProb, 0.0);
    EXPECT_EQ(p.knobFailProb, 0.0);
}

TEST(FaultPlan, ParsesEveryKey)
{
    FaultPlan p = FaultPlan::parse(
        "drop=0.1,stuck=0.05,noise=0.2,noisefrac=0.3,spike=0.02,"
        "spikescale=8,knobfail=0.15,knobdelay=0.25");
    EXPECT_TRUE(p.any());
    EXPECT_DOUBLE_EQ(p.dropProb, 0.1);
    EXPECT_DOUBLE_EQ(p.stuckProb, 0.05);
    EXPECT_DOUBLE_EQ(p.noiseProb, 0.2);
    EXPECT_DOUBLE_EQ(p.noiseFrac, 0.3);
    EXPECT_DOUBLE_EQ(p.spikeProb, 0.02);
    EXPECT_DOUBLE_EQ(p.spikeScale, 8.0);
    EXPECT_DOUBLE_EQ(p.knobFailProb, 0.15);
    EXPECT_DOUBLE_EQ(p.knobDelayProb, 0.25);
}

TEST(FaultPlan, ToStringIsCanonicalAndRoundTrips)
{
    // Default plan renders empty and reparses to default.
    FaultPlan def;
    EXPECT_EQ(def.toString(), "");
    ASSERT_TRUE(FaultPlan::tryParse("").has_value());

    // Only non-default fields print, in documented key order.
    FaultPlan p;
    p.dropProb = 0.1;
    p.knobFailProb = 0.25;
    EXPECT_EQ(p.toString(), "drop=0.1,knobfail=0.25");

    // A scale knob at its default stays silent even when its
    // probability prints.
    FaultPlan q;
    q.noiseProb = 0.2;
    EXPECT_EQ(q.toString(), "noise=0.2");
    q.noiseFrac = 0.3;
    EXPECT_EQ(q.toString(), "noise=0.2,noisefrac=0.3");
}

TEST(FaultPlan, RandomizedToStringRoundTrip)
{
    // toString . tryParse is the identity, and toString of the
    // reparse reproduces the same bytes, across a seeded sweep of
    // plans (including awkward decimals).
    sim::Rng rng(31337);
    for (int i = 0; i < 500; ++i) {
        FaultPlan p;
        auto prob = [&]() {
            switch (rng.below(4)) {
              case 0:
                return 0.0;
              case 1:
                return 0.1 * static_cast<double>(rng.below(11));
              case 2:
                return rng.uniform();
              default:
                return 1.0 / 3.0;
            }
        };
        p.dropProb = prob();
        p.stuckProb = prob();
        p.noiseProb = prob();
        p.noiseFrac = prob();
        p.spikeProb = prob();
        p.spikeScale = 1.0 + 20.0 * rng.uniform();
        p.knobFailProb = prob();
        p.knobDelayProb = prob();

        const std::string text = p.toString();
        std::string error;
        auto back = FaultPlan::tryParse(text, &error);
        ASSERT_TRUE(back.has_value()) << error << " <- " << text;
        EXPECT_EQ(back->toString(), text);
        EXPECT_DOUBLE_EQ(back->dropProb, p.dropProb);
        EXPECT_DOUBLE_EQ(back->stuckProb, p.stuckProb);
        EXPECT_DOUBLE_EQ(back->noiseProb, p.noiseProb);
        EXPECT_DOUBLE_EQ(back->spikeProb, p.spikeProb);
        EXPECT_DOUBLE_EQ(back->knobFailProb, p.knobFailProb);
        EXPECT_DOUBLE_EQ(back->knobDelayProb, p.knobDelayProb);
        // Scale knobs print whenever non-default, so they round-trip
        // exactly even when their probability class is disarmed.
        EXPECT_DOUBLE_EQ(back->noiseFrac, p.noiseFrac);
        EXPECT_DOUBLE_EQ(back->spikeScale, p.spikeScale);
    }
}

TEST(FaultPlan, UnknownKeyFatal)
{
    EXPECT_EXIT(FaultPlan::parse("bogus=0.5"),
                ::testing::ExitedWithCode(1), "unknown fault spec");
}

TEST(FaultPlan, MalformedValueFatal)
{
    EXPECT_EXIT(FaultPlan::parse("drop=lots"),
                ::testing::ExitedWithCode(1), "bad value");
}

TEST(FaultPlan, TryParseRejectsUnknownKeyAmongValidOnes)
{
    // A typo'd key must not silently drop one fault dimension from
    // an otherwise-valid chaos spec.
    std::string error;
    auto p = FaultPlan::tryParse("drop=0.1,typo=1", &error);
    EXPECT_FALSE(p.has_value());
    EXPECT_NE(error.find("typo"), std::string::npos);
    EXPECT_NE(error.find("drop"), std::string::npos)
        << "error should list the valid keys: " << error;
}

TEST(FaultPlan, TryParseRejectsEmptyValue)
{
    // strtod("") yields 0.0; an empty value must be an error, not a
    // silently-disabled fault.
    std::string error;
    EXPECT_FALSE(FaultPlan::tryParse("drop=", &error).has_value());
    EXPECT_NE(error.find("bad value"), std::string::npos);
    EXPECT_FALSE(FaultPlan::tryParse("drop", &error).has_value());
}

TEST(FaultPlan, TryParseRejectsRepeatedKey)
{
    // Last-one-wins would run a chaos sweep at a fault rate the spec
    // text does not obviously say.
    std::string error;
    EXPECT_FALSE(
        FaultPlan::tryParse("drop=0.1,drop=0.2", &error).has_value());
    EXPECT_NE(error.find("repeats key 'drop'"), std::string::npos)
        << error;
    EXPECT_FALSE(FaultPlan::tryParse("knobfail=0.1,stuck=0.1,knobfail=0.1",
                                     &error)
                     .has_value());
}

TEST(FaultPlan, TryParseRejectsNonFiniteValue)
{
    // nan slips past every range check and any() reads false, so
    // drop=nan used to run silently fault-free.
    std::string error;
    EXPECT_FALSE(FaultPlan::tryParse("drop=nan", &error).has_value());
    EXPECT_NE(error.find("bad value"), std::string::npos) << error;
    EXPECT_FALSE(FaultPlan::tryParse("spikescale=inf", &error)
                     .has_value());
    EXPECT_FALSE(FaultPlan::tryParse("noisefrac=1e999", &error)
                     .has_value());
}

TEST(FaultPlan, TryParseRejectsOutOfRangeProbability)
{
    std::string error;
    EXPECT_FALSE(FaultPlan::tryParse("drop=1.5", &error).has_value());
    EXPECT_FALSE(FaultPlan::tryParse("stuck=-0.1", &error).has_value());
    EXPECT_FALSE(
        FaultPlan::tryParse("spikescale=0", &error).has_value());
}

TEST(FaultPlan, TryParseAgreesWithParseOnValidSpecs)
{
    std::string spec = "drop=0.1,noise=0.2,noisefrac=0.3,knobfail=0.4";
    auto p = FaultPlan::tryParse(spec);
    ASSERT_TRUE(p.has_value());
    FaultPlan q = FaultPlan::parse(spec);
    EXPECT_DOUBLE_EQ(p->dropProb, q.dropProb);
    EXPECT_DOUBLE_EQ(p->noiseProb, q.noiseProb);
    EXPECT_DOUBLE_EQ(p->noiseFrac, q.noiseFrac);
    EXPECT_DOUBLE_EQ(p->knobFailProb, q.knobFailProb);
}

TEST(FaultyCounters, ZeroPlanIsPassThrough)
{
    ScriptedSource reference;
    FaultyCounterSource faulty(std::make_unique<ScriptedSource>(),
                               FaultPlan{}, sim::Rng(1));
    for (int i = 0; i < 20; ++i) {
        CounterSample want = reference.sample(0);
        CounterSample got = faulty.sample(0);
        EXPECT_TRUE(sameSample(want, got));
    }
    EXPECT_EQ(faulty.stats().reads, 20u);
    EXPECT_EQ(faulty.stats().drops, 0u);
    EXPECT_EQ(faulty.stats().stucks, 0u);
    EXPECT_EQ(faulty.stats().noises, 0u);
    EXPECT_EQ(faulty.stats().spikes, 0u);
}

TEST(FaultyCounters, DropReturnsZeroedSample)
{
    FaultPlan plan;
    plan.dropProb = 1.0;
    FaultyCounterSource faulty(std::make_unique<ScriptedSource>(),
                               plan, sim::Rng(2));
    for (int i = 0; i < 5; ++i) {
        CounterSample s = faulty.sample(0);
        // The dropout signature: all-zero, detectably impossible
        // (real memory latency is never 0, and the timestamp of a
        // healthy read always advances past 0).
        EXPECT_EQ(s.windowEnd, 0.0);
        EXPECT_EQ(s.memLatency, 0.0);
        EXPECT_EQ(s.socketBw, 0.0);
        EXPECT_EQ(s.saturation, 0.0);
    }
    EXPECT_EQ(faulty.stats().drops, 5u);
}

TEST(FaultyCounters, StuckRepeatsLastGoodSample)
{
    FaultyCounterSource faulty(std::make_unique<ScriptedSource>(),
                               FaultPlan{}, sim::Rng(3));
    CounterSample good = faulty.sample(0);  // clean, cached
    FaultPlan plan;
    plan.stuckProb = 1.0;
    faulty.setPlan(plan);
    for (int i = 0; i < 4; ++i) {
        CounterSample s = faulty.sample(0);
        EXPECT_TRUE(sameSample(s, good));  // bit-identical repeats
    }
    EXPECT_EQ(faulty.stats().stucks, 4u);
}

TEST(FaultyCounters, NoiseStaysWithinFraction)
{
    ScriptedSource reference;
    FaultPlan plan;
    plan.noiseProb = 1.0;
    plan.noiseFrac = 0.2;
    FaultyCounterSource faulty(std::make_unique<ScriptedSource>(),
                               plan, sim::Rng(4));
    bool perturbed = false;
    for (int i = 0; i < 20; ++i) {
        CounterSample want = reference.sample(0);
        CounterSample got = faulty.sample(0);
        EXPECT_NEAR(got.socketBw, want.socketBw,
                    0.2 * want.socketBw + 1e-9);
        EXPECT_NEAR(got.memLatency, want.memLatency,
                    0.2 * want.memLatency + 1e-9);
        if (!sameSample(want, got))
            perturbed = true;
    }
    EXPECT_TRUE(perturbed);
    EXPECT_EQ(faulty.stats().noises, 20u);
}

TEST(FaultyCounters, SpikeScalesExactlyOneSignal)
{
    ScriptedSource reference;
    FaultPlan plan;
    plan.spikeProb = 1.0;
    plan.spikeScale = 10.0;
    FaultyCounterSource faulty(std::make_unique<ScriptedSource>(),
                               plan, sim::Rng(5));
    for (int i = 0; i < 20; ++i) {
        CounterSample want = reference.sample(0);
        CounterSample got = faulty.sample(0);
        int scaled = 0;
        // kelp: allow(float-eq): the spike fault multiplies one
        // signal by exactly 10.0; the test asserts that bit-exact
        // scaling, tolerance would mask a buggy near-miss.
        scaled += got.socketBw == 10.0 * want.socketBw;
        // kelp: allow(float-eq): same bit-exact spike check.
        scaled += got.memLatency == 10.0 * want.memLatency;
        // kelp: allow(float-eq): same bit-exact spike check.
        scaled += got.saturation == 10.0 * want.saturation;
        // kelp: allow(float-eq): same bit-exact spike check.
        scaled += got.subdomainBw[0] == 10.0 * want.subdomainBw[0];
        EXPECT_EQ(scaled, 1);
    }
    EXPECT_EQ(faulty.stats().spikes, 20u);
}

TEST(FaultyCounters, SameSeedSameFaultSequence)
{
    FaultPlan plan;
    plan.dropProb = 0.3;
    plan.stuckProb = 0.2;
    plan.noiseProb = 0.3;
    plan.spikeProb = 0.1;
    FaultyCounterSource a(std::make_unique<ScriptedSource>(), plan,
                          sim::Rng(42));
    FaultyCounterSource b(std::make_unique<ScriptedSource>(), plan,
                          sim::Rng(42));
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(sameSample(a.sample(0), b.sample(0)));
    EXPECT_EQ(a.stats().drops, b.stats().drops);
    EXPECT_EQ(a.stats().noises, b.stats().noises);
}

TEST(FaultyKnobs, ZeroPlanAppliesImmediately)
{
    RecordingSink inner;
    FaultyKnobSink faulty(inner, FaultPlan{}, sim::Rng(1));
    EXPECT_TRUE(faulty.setCores(3, 0, 1, 8));
    EXPECT_TRUE(faulty.setPrefetchersEnabled(3, 6));
    EXPECT_TRUE(faulty.setCatWays(3, 4));
    ASSERT_EQ(inner.writes.size(), 3u);
    EXPECT_EQ(inner.writes[0].kind, 'c');
    EXPECT_EQ(inner.writes[0].value, 8);
    EXPECT_EQ(inner.writes[1].kind, 'p');
    EXPECT_EQ(inner.writes[2].kind, 'w');
    EXPECT_EQ(faulty.stats().writes, 3u);
    EXPECT_EQ(faulty.stats().failures, 0u);
    EXPECT_EQ(faulty.stats().delays, 0u);
}

TEST(FaultyKnobs, FailedWriteIsLostAndReportsFalse)
{
    RecordingSink inner;
    FaultPlan plan;
    plan.knobFailProb = 1.0;
    FaultyKnobSink faulty(inner, plan, sim::Rng(2));
    EXPECT_FALSE(faulty.setCores(3, 0, 1, 8));
    EXPECT_FALSE(faulty.setPrefetchersEnabled(3, 6));
    EXPECT_TRUE(inner.writes.empty());
    EXPECT_EQ(faulty.stats().failures, 2u);
}

TEST(FaultyKnobs, DelayedWriteLandsBeforeNextWrite)
{
    RecordingSink inner;
    FaultPlan plan;
    plan.knobDelayProb = 1.0;
    FaultyKnobSink faulty(inner, plan, sim::Rng(3));

    // Delayed: reports success but nothing reaches the sink yet.
    EXPECT_TRUE(faulty.setCores(3, 0, 1, 8));
    EXPECT_TRUE(inner.writes.empty());

    // The next write flushes the queued one first (in order), then
    // is itself delayed.
    EXPECT_TRUE(faulty.setPrefetchersEnabled(3, 6));
    ASSERT_EQ(inner.writes.size(), 1u);
    EXPECT_EQ(inner.writes[0].kind, 'c');
    EXPECT_EQ(inner.writes[0].value, 8);

    // flush() drains the remainder.
    faulty.flush();
    ASSERT_EQ(inner.writes.size(), 2u);
    EXPECT_EQ(inner.writes[1].kind, 'p');
    EXPECT_EQ(inner.writes[1].value, 6);
    EXPECT_EQ(faulty.stats().delays, 2u);
}

TEST(FaultyKnobs, SameSeedSameWriteFate)
{
    FaultPlan plan;
    plan.knobFailProb = 0.4;
    plan.knobDelayProb = 0.3;
    RecordingSink ia, ib;
    FaultyKnobSink a(ia, plan, sim::Rng(9));
    FaultyKnobSink b(ib, plan, sim::Rng(9));
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.setCores(3, 0, 1, i), b.setCores(3, 0, 1, i));
    a.flush();
    b.flush();
    EXPECT_EQ(a.stats().failures, b.stats().failures);
    EXPECT_EQ(a.stats().delays, b.stats().delays);
    ASSERT_EQ(ia.writes.size(), ib.writes.size());
    for (size_t i = 0; i < ia.writes.size(); ++i)
        EXPECT_EQ(ia.writes[i].value, ib.writes[i].value);
}
