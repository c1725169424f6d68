#include "cpu/llc.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"

namespace kelp {
namespace cpu {

Llc::Llc(double size_mb, int ways)
    : sizeMb_(size_mb), ways_(ways)
{
    KELP_ASSERT(size_mb > 0.0, "LLC size must be positive");
    KELP_ASSERT(ways > 0, "LLC must have at least one way");
}

double
Llc::hitRate(double capacity_mb, double footprint_mb, double hit_max)
{
    if (footprint_mb <= 0.0)
        return hit_max;
    double cover = std::min(capacity_mb / footprint_mb, 1.0);
    // Square-root curve: early capacity captures hot lines first.
    return hit_max * std::sqrt(std::max(cover, 0.0));
}

std::vector<LlcShare>
Llc::apportion(const std::vector<LlcRequest> &requests) const
{
    std::vector<LlcShare> out;
    std::vector<size_t> order;
    apportion(requests, out, order);
    return out;
}

void
Llc::apportion(const std::vector<LlcRequest> &requests,
               std::vector<LlcShare> &out,
               std::vector<size_t> &order) const
{
    out.assign(requests.size(), LlcShare{});

    int dedicated_ways = 0;
    for (const auto &r : requests)
        dedicated_ways += std::max(r.dedicatedWays, 0);
    KELP_ASSERT(dedicated_ways <= ways_,
                "dedicated CAT ways exceed LLC associativity");

    double shared_pool = (ways_ - dedicated_ways) * wayMb();

    // First pass: dedicated groups take their partitions; shared
    // groups register weighted claims capped by footprint.
    double total_weight = 0.0;
    for (size_t i = 0; i < requests.size(); ++i) {
        const LlcRequest &r = requests[i];
        if (r.dedicatedWays > 0) {
            double cap = r.dedicatedWays * wayMb();
            out[i] = {cap, hitRate(cap, r.footprintMb, r.hitMax)};
        } else {
            total_weight += std::max(r.weight, 0.0);
        }
    }

    // Second pass with one redistribution round: groups whose
    // footprint is smaller than their fair share release the excess
    // to the remaining competitors.
    double pool = shared_pool;
    double weight_left = total_weight;
    order.clear();
    for (size_t i = 0; i < requests.size(); ++i)
        if (requests[i].dedicatedWays <= 0)
            order.push_back(i);

    // Satisfy small-footprint groups first so redistribution is
    // deterministic regardless of request order.
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const LlcRequest &ra = requests[a];
        const LlcRequest &rb = requests[b];
        if (ra.footprintMb != rb.footprintMb)
            return ra.footprintMb < rb.footprintMb;
        return ra.group < rb.group;
    });

    for (size_t i : order) {
        const LlcRequest &r = requests[i];
        double w = std::max(r.weight, 0.0);
        double fair = weight_left > 0.0 ? pool * w / weight_left : 0.0;
        double cap = std::min(fair, std::max(r.footprintMb, 0.0));
        // A zero-weight group still gets to cache in an empty pool.
        if (total_weight <= 0.0)
            cap = std::min(pool, std::max(r.footprintMb, 0.0));
        out[i] = {cap, hitRate(cap, r.footprintMb, r.hitMax)};
        pool -= cap;
        weight_left -= w;
    }
}

namespace {

bool
sameRequests(const std::vector<LlcRequest> &a,
             const std::vector<LlcRequest> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        // Exact comparison on purpose: any drift forces a recompute.
        if (a[i].group != b[i].group ||
            a[i].footprintMb != b[i].footprintMb ||
            a[i].weight != b[i].weight ||
            a[i].dedicatedWays != b[i].dedicatedWays ||
            a[i].hitMax != b[i].hitMax) {
            return false;
        }
    }
    return true;
}

} // namespace

const std::vector<LlcShare> &
ApportionCache::get(const Llc &llc,
                    const std::vector<LlcRequest> &requests)
{
    const bool hit = llc.sizeMb() == sizeMb_ && llc.ways() == ways_ &&
                     sameRequests(requests, key_);
    if (hit) {
        ++hits_;
#ifndef NDEBUG
        const auto fresh = llc.apportion(requests);
        KELP_INVARIANT(fresh.size() == value_.size(),
                       "LLC apportion memo drifted: group set changed");
        for (size_t i = 0; i < fresh.size(); ++i) {
            KELP_INVARIANT(value_[i].capacityMb == fresh[i].capacityMb &&
                               value_[i].hitRate == fresh[i].hitRate,
                           "LLC apportion memo drifted for group ",
                           requests[i].group);
        }
#endif
        return value_;
    }
    ++misses_;
    sizeMb_ = llc.sizeMb();
    ways_ = llc.ways();
    key_ = requests;
    llc.apportion(requests, value_, order_);
    return value_;
}

} // namespace cpu
} // namespace kelp
