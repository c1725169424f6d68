/**
 * @file
 * Last-level cache with CAT-style way partitioning.
 *
 * The LLC is apportioned among task groups whenever the node
 * rebuilds its tick shape (a group, task or memory change):
 *  - Groups holding dedicated CAT ways get that capacity exclusively
 *    (this is how all managed configurations shield the ML task from
 *    LLC interference, per Section III-B).
 *  - Groups without dedicated ways compete for the shared pool in
 *    proportion to their access intensity, capped at their footprint;
 *    capacity a group cannot use is redistributed.
 *
 * A group's hit rate follows a square-root capacity curve up to the
 * phase's achievable maximum; the node converts hit rates into DRAM
 * traffic and stall scaling.
 *
 * Under NUMA subdomains each subdomain owns an Llc instance of half
 * the socket's size and ways.
 */

#ifndef KELP_CPU_LLC_HH
#define KELP_CPU_LLC_HH

#include <cstddef>
#include <vector>

#include "sim/types.hh"

namespace kelp {
namespace cpu {

/** One group's cache usage characteristics for apportionment. */
struct LlcRequest
{
    /** Task-group identifier. */
    int group = 0;

    /** Working-set size, MiB. */
    double footprintMb = 0.0;

    /** Relative access intensity (weights shared-pool competition). */
    double weight = 1.0;

    /** CAT ways dedicated to this group (0 = use the shared pool). */
    int dedicatedWays = 0;

    /** Hit rate achieved with unbounded capacity, in [0, 1]. */
    double hitMax = 0.95;
};

/** Apportionment result for one group. */
struct LlcShare
{
    /** Effective capacity available to the group, MiB. */
    double capacityMb = 0.0;

    /** Resulting hit rate, in [0, 1]. */
    double hitRate = 0.0;
};

/** A last-level cache domain (a socket, or a subdomain under SNC). */
class Llc
{
  public:
    /**
     * @param size_mb Total capacity, MiB.
     * @param ways Associativity (CAT partition granularity).
     */
    Llc(double size_mb, int ways);

    double sizeMb() const { return sizeMb_; }
    int ways() const { return ways_; }

    /** Capacity of a single way, MiB. */
    double wayMb() const { return sizeMb_ / ways_; }

    /**
     * Apportion capacity among the given groups and compute each
     * group's hit rate. Returns one share per request, aligned with
     * the request order. Dedicated ways must not exceed the total.
     */
    std::vector<LlcShare>
    apportion(const std::vector<LlcRequest> &requests) const;

    /**
     * The same apportionment written into caller-owned buffers whose
     * capacity is reused: `out` receives the shares, `order` is
     * scratch. For callers that must not allocate.
     */
    void apportion(const std::vector<LlcRequest> &requests,
                   std::vector<LlcShare> &out,
                   std::vector<size_t> &order) const;

    /** Hit rate for one group occupying the given capacity alone. */
    static double hitRate(double capacity_mb, double footprint_mb,
                          double hit_max);

  private:
    double sizeMb_;
    int ways_;
};

} // namespace cpu
} // namespace kelp

#endif // KELP_CPU_LLC_HH
