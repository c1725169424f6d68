/**
 * @file
 * Seeded generator/mutator over the exp::ScenarioSpec space.
 *
 * All randomness flows through a caller-provided sim::Rng, so spec
 * generation is a pure function of the rng stream: the fuzzer derives
 * one stream per trial index (sim::Rng::derive) and gets the same
 * spec sequence for any worker count.
 *
 * Generated values are clamped to a "fuzzable" envelope -- short
 * horizons (a trial is three simulated runs, so seconds matter),
 * bounded churn/fault intensities, kill times inside the run -- and
 * every emitted spec parses back cleanly (tested), so the shrinker
 * and the corpus never see an invalid spec.
 */

#ifndef KELP_FUZZ_MUTATE_HH
#define KELP_FUZZ_MUTATE_HH

#include <vector>

#include "exp/spec.hh"
#include "sim/rng.hh"

namespace kelp {
namespace fuzz {

/**
 * The deterministic built-in starting corpus: a handful of archetype
 * scenarios (quiet KP run, churny SLO run, chaos run, crashy run)
 * that give the first mutations something structured to work from.
 */
std::vector<exp::ScenarioSpec> seedSpecs();

/** A fresh random scenario inside the fuzzable envelope. */
exp::ScenarioSpec freshSpec(sim::Rng &rng);

/** Apply @p steps random single-field mutations in place. */
void mutateSpec(exp::ScenarioSpec &spec, sim::Rng &rng, int steps);

/**
 * Generate the spec for trial @p index of a fuzz run seeded with
 * @p base: derive the trial's rng stream, then either mutate a
 * parent drawn from @p pool or (sometimes, and always when the pool
 * is empty) build a fresh spec. Pure in (base, index, pool).
 */
exp::ScenarioSpec generateSpec(uint64_t base, uint64_t index,
                          const std::vector<exp::ScenarioSpec> &pool);

} // namespace fuzz
} // namespace kelp

#endif // KELP_FUZZ_MUTATE_HH
