/**
 * @file
 * ScenarioSpec: the one text grammar for a run. It is a canonical,
 * round-trippable serialization of everything that defines one
 * experiment -- the exp::RunConfig workload mix and timing, the churn
 * plan, the HAL fault plan, the open-loop traffic, the SLO target,
 * the controller kill/restart schedule, and the seeds.
 *
 * The grammar is deliberately dumb: one `key=value` per line, `#`
 * comments, every key printed on every spec in a fixed order, numbers
 * in the sim/number.hh format. One table in spec.cc lists each key
 * with its kind and help line; printing, parsing, and the kelpsim
 * command line (addFlags/fromFlags: `--key=value` per key) all read
 * it, so the three cannot drift apart. That buys:
 *
 *  - canonical: toString() is a fixpoint (parsing a printed spec and
 *    printing it again reproduces the same bytes), so specs can be
 *    compared, deduplicated, and diffed as strings;
 *  - mutable: the fuzzer's mutator and shrinker edit the typed
 *    RunConfig and re-print, never the text;
 *  - archival: a spec in a run manifest or in tests/corpus/ replays
 *    byte-identically years later.
 *
 * Parsing is strict -- unknown keys, duplicate keys, malformed
 * values, and out-of-range values are errors -- so a typo in a hand-
 * edited corpus entry or a flag cannot silently run a different
 * scenario.
 *
 * The grammar covers the run-defining subspace of RunConfig. Fields
 * outside it (tick length, aggressor data placement, forced
 * prefetcher fractions, open-loop QPS, the event-driven engine
 * switch) keep their defaults; serializing a config that changed
 * them loses those changes.
 */

#ifndef KELP_EXP_SPEC_HH
#define KELP_EXP_SPEC_HH

#include <optional>
#include <string>

#include "exp/scenario.hh"
#include "sim/options.hh"

namespace kelp {
namespace exp {

/** The spec key of a runtime configuration ("bl", "kpsd", ...). */
const char *configKey(ConfigKind kind);

/** One run, as the spec grammar describes it. */
struct ScenarioSpec
{
    RunConfig cfg;

    /** Canonical text form (see file comment). */
    std::string toString() const;

    /**
     * Strict parse of a spec text. Returns std::nullopt on any error
     * and, when @p error is non-null, stores a description. Keys not
     * present keep their RunConfig defaults; present keys must be
     * unique and well-formed.
     */
    static std::optional<ScenarioSpec>
    tryParse(const std::string &text, std::string *error = nullptr);

    /** Register one `--key` option per spec key on @p opts, with
     * this spec's value as its default. */
    void addFlags(sim::Options &opts) const;

    /** After @p opts (set up by addFlags) has parsed argv: join every
     * key's flag value into spec text and tryParse() it. */
    static std::optional<ScenarioSpec>
    fromFlags(const sim::Options &opts, std::string *error = nullptr);

    /** Specs compare by their canonical text. */
    bool operator==(const ScenarioSpec &o) const;
    bool operator!=(const ScenarioSpec &o) const;
};

} // namespace exp
} // namespace kelp

#endif // KELP_EXP_SPEC_HH
