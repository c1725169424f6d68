#include "fuzz/fuzzer.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "exp/pool.hh"
#include "fuzz/mutate.hh"
#include "fuzz/shrink.hh"
#include "sim/log.hh"

namespace kelp {
namespace fuzz {

namespace {

/** FNV-1a 64-bit of the spec text (content addressing for corpus
 * file names; not security-relevant). */
uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex16(uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<size_t>(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

} // namespace

uint64_t
FuzzReport::unshrunk() const
{
    uint64_t n = 0;
    for (const Finding &f : findings) {
        if (!f.minimal)
            ++n;
    }
    return n;
}

std::string
FuzzReport::toText() const
{
    std::ostringstream os;
    os << "kelp-fuzz report\n";
    os << "seed=" << seed << "\n";
    os << "trials=" << trials << "\n";
    os << "findings=" << findings.size() << "\n";
    os << "duplicates=" << duplicates << "\n";
    os << "unshrunk=" << unshrunk() << "\n";
    os << "coverage-keys=" << coverageKeys << "\n";
    os << "pool-size=" << poolSize << "\n";
    for (size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        os << "\n";
        os << "finding=" << (i + 1) << "\n";
        os << "trial=" << f.trial << "\n";
        os << "oracle=" << f.oracle << "\n";
        os << "detail=" << f.detail << "\n";
        os << "shrink-steps=" << f.shrinkSteps << "\n";
        os << "minimal=" << (f.minimal ? "true" : "false") << "\n";
        os << "spec:\n" << f.shrunk.toString();
    }
    return os.str();
}

FuzzReport
fuzz(const FuzzOptions &opts)
{
    /*
     * Count mode, set on the calling thread before any fan-out: the
     * oracles count violations per trial; Fatal mode would abort the
     * whole campaign at the first find.
     */
    sim::setContractMode(sim::ContractMode::Count);

    FuzzReport rep;
    rep.seed = opts.seed;
    rep.trials = static_cast<uint64_t>(std::max(0, opts.trials));

    std::vector<exp::ScenarioSpec> pool = seedSpecs();
    pool.insert(pool.end(), opts.extraSeeds.begin(),
                opts.extraSeeds.end());

    std::set<std::string> coverage;
    std::set<std::string> seenFindings;

    const int trials = std::max(0, opts.trials);
    const int batch = std::max(1, opts.batch);

    for (int start = 0; start < trials; start += batch) {
        const int count = std::min(batch, trials - start);

        /*
         * The guidance state is frozen per batch: every spec in the
         * batch derives from (seed, global trial index, snapshot)
         * only, so workers can race freely and the jobs count cannot
         * influence what gets generated.
         */
        const std::vector<exp::ScenarioSpec> snapshot = pool;
        std::vector<exp::ScenarioSpec> specs(
            static_cast<size_t>(count));
        std::vector<TrialOutcome> outcomes(
            static_cast<size_t>(count));

        exp::runJobs(
            count, opts.jobs,
            [&](int i) {
                specs[static_cast<size_t>(i)] = generateSpec(
                    opts.seed,
                    static_cast<uint64_t>(start + i), snapshot);
                outcomes[static_cast<size_t>(i)] = runTrial(
                    specs[static_cast<size_t>(i)], opts.oracle);
            },
            [&](int i) {
                // Serial merge, strict trial order (pool thread
                // commits are sequenced by index).
                const exp::ScenarioSpec &spec =
                    specs[static_cast<size_t>(i)];
                const TrialOutcome &out =
                    outcomes[static_cast<size_t>(i)];

                bool fresh = false;
                for (const std::string &k : out.coverage) {
                    if (coverage.insert(k).second)
                        fresh = true;
                }
                if (fresh)
                    pool.push_back(spec);

                if (!out.fired())
                    return;
                const OracleHit &hit = out.hits.front();

                Finding f;
                f.trial = static_cast<uint64_t>(start + i);
                f.oracle = hit.name;
                f.detail = hit.detail;
                f.spec = spec;
                f.shrunk = spec;
                if (opts.shrink) {
                    ShrinkResult sr =
                        shrink(spec, hit.name, opts.oracle,
                               opts.maxShrinkAttempts);
                    f.shrunk = sr.spec;
                    f.shrinkSteps = sr.steps;
                    f.minimal = sr.minimal;
                }

                const std::string key =
                    f.oracle + "\n" + f.shrunk.toString();
                if (!seenFindings.insert(key).second) {
                    ++rep.duplicates;
                    return;
                }
                rep.findings.push_back(std::move(f));
            });
    }

    rep.coverageKeys = coverage.size();
    rep.poolSize = pool.size();
    return rep;
}

std::string
corpusEntryText(const CorpusEntry &entry)
{
    std::ostringstream os;
    os << "# kelp-fuzz regression scenario\n";
    os << "# oracle: " << entry.oracle << "\n";
    if (entry.fixed)
        os << "# status: fixed\n";
    os << entry.spec.toString();
    return os.str();
}

std::optional<CorpusEntry>
parseCorpusEntry(const std::string &text, std::string *error)
{
    auto fail = [&](const std::string &what)
        -> std::optional<CorpusEntry> {
        if (error)
            *error = what;
        return std::nullopt;
    };

    static const std::string kOracle = "# oracle:";
    static const std::string kStatus = "# status:";
    CorpusEntry entry;
    bool sawStatus = false;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        const std::string *directive = nullptr;
        if (line.compare(0, kOracle.size(), kOracle) == 0)
            directive = &kOracle;
        else if (line.compare(0, kStatus.size(), kStatus) == 0)
            directive = &kStatus;
        else
            continue;
        std::string name = line.substr(directive->size());
        size_t b = name.find_first_not_of(" \t");
        size_t e = name.find_last_not_of(" \t\r");
        if (b == std::string::npos)
            return fail("empty '" + *directive + "' directive");
        name = name.substr(b, e - b + 1);
        if (directive == &kStatus) {
            if (sawStatus)
                return fail("multiple '# status:' directives");
            if (name != "fixed")
                return fail("unknown status '" + name +
                            "' (only 'fixed' is recognized)");
            sawStatus = true;
            entry.fixed = true;
            continue;
        }
        if (!entry.oracle.empty())
            return fail("multiple '# oracle:' directives");
        entry.oracle = name;
    }
    if (entry.oracle.empty())
        return fail("missing '# oracle: <name>' directive");
    const std::vector<std::string> &names = oracleNames();
    if (std::find(names.begin(), names.end(), entry.oracle) ==
        names.end())
        return fail("unknown oracle '" + entry.oracle + "'");

    std::string specError;
    std::optional<exp::ScenarioSpec> spec =
        exp::ScenarioSpec::tryParse(text, &specError);
    if (!spec)
        return fail(specError);
    entry.spec = *spec;
    return entry;
}

std::string
corpusFileName(const CorpusEntry &entry)
{
    return entry.oracle + "-" + hex16(fnv1a(entry.spec.toString())) +
           ".scenario";
}

std::vector<std::pair<std::string, CorpusEntry>>
loadCorpus(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<std::pair<std::string, CorpusEntry>> entries;
    if (!fs::exists(dir))
        return entries;

    std::vector<std::string> names;
    for (const fs::directory_entry &de : fs::directory_iterator(dir)) {
        if (de.path().extension() == ".scenario")
            names.push_back(de.path().filename().string());
    }
    std::sort(names.begin(), names.end());

    for (const std::string &name : names) {
        std::ifstream in(fs::path(dir) / name);
        std::ostringstream text;
        text << in.rdbuf();
        if (!in)
            sim::fatal("cannot read corpus entry ", dir, "/", name);
        std::string error;
        std::optional<CorpusEntry> entry =
            parseCorpusEntry(text.str(), &error);
        if (!entry)
            sim::fatal("bad corpus entry ", dir, "/", name, ": ",
                       error);
        entries.emplace_back(name, std::move(*entry));
    }
    return entries;
}

std::string
saveCorpusEntry(const std::string &dir, const CorpusEntry &entry)
{
    namespace fs = std::filesystem;
    fs::create_directories(dir);
    const std::string name = corpusFileName(entry);
    const fs::path path = fs::path(dir) / name;
    std::ofstream out(path);
    out << corpusEntryText(entry);
    out.close();
    if (!out)
        sim::fatal("cannot write corpus entry ", path.string());
    return name;
}

} // namespace fuzz
} // namespace kelp
