#include "exp/sweep_runner.hh"

#include <set>

namespace kelp {
namespace exp {

void
prewarmReferences(const std::vector<RunConfig> &cfgs)
{
    std::set<wl::MlWorkload> mls;
    for (const RunConfig &cfg : cfgs)
        mls.insert(cfg.ml);
    std::vector<wl::MlWorkload> missing;
    for (wl::MlWorkload ml : mls)
        if (!hasStandaloneReference(ml))
            missing.push_back(ml);

    // Missing references are independent runs that never touch the
    // memo, so several of them share all cores. A single one (a
    // cluster cell's) runs on the caller below, so no pool nests
    // inside another.
    if (missing.size() > 1) {
        std::vector<RunResult> refs = parallelMap<RunResult>(
            static_cast<int>(missing.size()), 0, [&](int i) {
                return computeStandaloneReference(
                    missing[static_cast<size_t>(i)]);
            });
        InitGuard guard;
        for (size_t i = 0; i < missing.size(); ++i)
            storeStandaloneReference(missing[i], refs[i]);
    }
    for (wl::MlWorkload ml : mls)
        standaloneReference(ml);
}

std::vector<RunResult>
runScenarios(const std::vector<RunConfig> &cfgs, int jobs)
{
    prewarmReferences(cfgs);
    return parallelMap<RunResult>(
        static_cast<int>(cfgs.size()), jobs,
        [&](int i) { return runScenario(cfgs[static_cast<size_t>(i)]); });
}

} // namespace exp
} // namespace kelp
