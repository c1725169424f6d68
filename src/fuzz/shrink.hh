/**
 * @file
 * Delta-debugging shrinker: minimize a failing exp::ScenarioSpec while its
 * oracle still fires.
 *
 * The shrinker is greedy over a fixed, deterministic candidate order:
 * each pass proposes every single-step reduction of the current spec
 * (drop a kill, disable churn, zero one fault class, disarm the SLO
 * ladder, remove the colocated workload, halve the horizon, ...); the
 * first candidate that still fails becomes the new current spec and
 * the pass restarts. At the fixpoint no single-step reduction fails
 * any more -- the result is 1-minimal with respect to the candidate
 * grammar, which is exactly the property the corpus regression test
 * asserts.
 *
 * Every candidate strictly reduces a well-founded "size" of the spec
 * (fewer scheduled events, fewer enabled subsystems, shorter
 * horizon), so shrinking terminates without a budget; the budget
 * only caps worst-case work on expensive oracles.
 */

#ifndef KELP_FUZZ_SHRINK_HH
#define KELP_FUZZ_SHRINK_HH

#include <functional>
#include <string>
#include <vector>

#include "fuzz/oracle.hh"
#include "exp/spec.hh"

namespace kelp {
namespace fuzz {

/** Outcome of one shrink. */
struct ShrinkResult
{
    /** The minimized spec (== input when nothing could shrink). */
    exp::ScenarioSpec spec;

    /** Accepted reductions. */
    int steps = 0;

    /** Candidate evaluations spent. */
    int attempts = 0;

    /** True when the result is 1-minimal (a full candidate pass ran
     * with no acceptance); false when the attempt budget ran out
     * first. */
    bool minimal = false;
};

/**
 * All single-step reductions of @p spec, in the fixed deterministic
 * order the shrinker tries them. Candidates identical to the input
 * are filtered out.
 */
std::vector<exp::ScenarioSpec> shrinkCandidates(const exp::ScenarioSpec &spec);

/**
 * Shrink @p failing while @p stillFails holds, spending at most
 * @p maxAttempts predicate evaluations. The predicate must be
 * deterministic; it is never called on @p failing itself (the caller
 * established that it fails).
 */
ShrinkResult
shrinkWith(const exp::ScenarioSpec &failing,
           const std::function<bool(const exp::ScenarioSpec &)> &stillFails,
           int maxAttempts);

/** Shrink @p failing while the named oracle still fires. */
ShrinkResult shrink(const exp::ScenarioSpec &failing,
                    const std::string &oracle,
                    const OracleConfig &ocfg, int maxAttempts);

} // namespace fuzz
} // namespace kelp

#endif // KELP_FUZZ_SHRINK_HH
