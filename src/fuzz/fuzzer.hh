/**
 * @file
 * The coverage-guided scenario fuzzer and the regression corpus
 * format.
 *
 * Determinism contract: a fuzz run is a pure function of
 * (seed, trials, batch, oracle config, extra seeds). Trials are
 * generated in batches; every spec in a batch is derived from the
 * base seed, the global trial index, and the candidate pool as it
 * stood at the batch boundary (sim::Rng::derive per trial, no shared
 * generator state), so workers can evaluate a batch in any order.
 * Outcomes are then merged on the calling thread in strict trial
 * order -- coverage growth, pool admission, finding admission, and
 * shrinking all happen there -- which makes the report byte-identical
 * for any --jobs value. The report deliberately contains no worker
 * counts, timings, or paths.
 *
 * Coverage: the set of decision-pattern keys (see coverageKeys()).
 * A trial whose run exhibits a pattern never seen before gets its
 * spec admitted to the mutation pool, steering the search toward
 * scenarios that exercise new controller behaviour -- knob-move
 * sequences and SLO-rung transitions count, not code lines.
 *
 * Corpus: a shrunk finding is archived as one text file -- directive
 * comments (`# oracle: <name>`) followed by the canonical spec -- so
 * entries are human-readable, hand-editable, and replayable as
 * regression tests (tests/test_corpus.cc).
 */

#ifndef KELP_FUZZ_FUZZER_HH
#define KELP_FUZZ_FUZZER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/oracle.hh"
#include "exp/spec.hh"

namespace kelp {
namespace fuzz {

/** One fuzz campaign's parameters. */
struct FuzzOptions
{
    /** Base seed; every trial derives its stream from it. */
    uint64_t seed = 1;

    /** Trials to run. */
    int trials = 64;

    /** Worker threads (resolveJobs semantics; must not change the
     * report). */
    int jobs = 1;

    /** Trials per generation batch: the pool/coverage state is
     * frozen at batch boundaries, so `batch` bounds how stale the
     * guidance may be, not the result. */
    int batch = 8;

    /** Shrink failing specs before reporting. */
    bool shrink = true;

    /** Shrink budget: candidate evaluations per finding. */
    int maxShrinkAttempts = 400;

    OracleConfig oracle;

    /** Extra pool seeds (e.g. the archived corpus) mutated alongside
     * the built-in archetypes. */
    std::vector<exp::ScenarioSpec> extraSeeds;
};

/** One distinct failure the campaign found. */
struct Finding
{
    /** Global index of the trial that found it. */
    uint64_t trial = 0;

    /** Oracle that fired (first in oracle order when several did). */
    std::string oracle;

    /** The firing oracle's evidence on the original spec. */
    std::string detail;

    /** The spec as generated. */
    exp::ScenarioSpec spec;

    /** The minimized spec (== spec when shrinking is off). */
    exp::ScenarioSpec shrunk;

    /** Accepted shrink steps. */
    int shrinkSteps = 0;

    /** The shrunk spec is 1-minimal (shrink budget did not run
     * out). */
    bool minimal = false;
};

/** Campaign summary. */
struct FuzzReport
{
    uint64_t seed = 0;
    uint64_t trials = 0;

    /** Distinct findings, in discovery (trial) order. Distinct means
     * a (oracle, shrunk-spec) pair not seen before. */
    std::vector<Finding> findings;

    /** Trials whose failure duplicated an earlier finding. */
    uint64_t duplicates = 0;

    /** Coverage keys discovered over the whole campaign. */
    uint64_t coverageKeys = 0;

    /** Final mutation-pool size. */
    uint64_t poolSize = 0;

    /** Findings whose shrink budget ran out (CI gates on 0). */
    uint64_t unshrunk() const;

    /** Canonical text report: byte-identical for any jobs count. */
    std::string toText() const;
};

/** Run a fuzz campaign. Sets ContractMode::Count process-wide (the
 * oracles count violations; a Fatal-mode campaign would abort on the
 * first find). Call from the main thread only. */
FuzzReport fuzz(const FuzzOptions &opts);

/** One archived regression scenario. */
struct CorpusEntry
{
    /** Oracle this entry is judged against when replayed. */
    std::string oracle;

    /**
     * Lifecycle of the entry. An open entry (the default) is a
     * still-unfixed find: replay expects its oracle to fire, and a
     * miss means the corpus is stale. A fixed entry is a regression
     * gate for a bug that has been repaired: replay expects its
     * oracle NOT to fire, and a hit means the fix regressed.
     * Serialized as a '# status: fixed' directive.
     */
    bool fixed = false;

    exp::ScenarioSpec spec;
};

/** Canonical file text of an entry (directives + spec). */
std::string corpusEntryText(const CorpusEntry &entry);

/** Parse an entry file's text; nullopt + *error on bad directives or
 * a malformed spec. */
std::optional<CorpusEntry>
parseCorpusEntry(const std::string &text,
                 std::string *error = nullptr);

/** Canonical file name: "<oracle>-<16-hex-digit spec hash>.scenario"
 * -- content-addressed, so re-archiving the same find is
 * idempotent. */
std::string corpusFileName(const CorpusEntry &entry);

/** Load every *.scenario file under @p dir, sorted by file name
 * (deterministic replay order). Fatal on malformed entries; returns
 * (file name, entry) pairs. Missing directory yields an empty
 * corpus. */
std::vector<std::pair<std::string, CorpusEntry>>
loadCorpus(const std::string &dir);

/** Write @p entry into @p dir (creating it) under its canonical
 * name; returns the file name. Fatal on I/O failure. */
std::string saveCorpusEntry(const std::string &dir,
                            const CorpusEntry &entry);

} // namespace fuzz
} // namespace kelp

#endif // KELP_FUZZ_FUZZER_HH
