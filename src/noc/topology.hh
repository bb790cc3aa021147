/**
 * @file
 * Route computation for the four interconnect styles.
 *
 * A Topology converts (src tile, dst tile, traffic class) into an
 * ordered list of hops. Each hop names a directed link resource and
 * whether the message stops at the downstream router (Re-Link bypasses
 * traverse links without a router stop).
 */

#ifndef DITILE_NOC_TOPOLOGY_HH
#define DITILE_NOC_TOPOLOGY_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "noc/message.hh"

namespace ditile::noc {

/** Dense identifier of a directed physical link. */
using LinkId = std::int32_t;

/** Direction encoding for grid link ids (mesh and ring fabrics). */
enum class GridDir { East = 0, West = 1, South = 2, North = 3 };

/** Dense id of `tile`'s outgoing grid link in direction `dir`. */
inline LinkId
gridLinkId(TileId tile, GridDir dir)
{
    return tile * 4 + static_cast<LinkId>(dir);
}

/**
 * Interconnect fault state for one communication phase: dead directed
 * links, per-column Re-Link bypass overrides (stuck bypass switches),
 * and the bounded-backoff retry policy applied when no fault-free
 * route exists.
 */
struct NocFaults
{
    /** Dead directed link ids, sorted ascending. */
    std::vector<LinkId> deadLinks;
    /**
     * Per-column vertical bypass span forced by a stuck switch
     * (0 = no override). Empty when no bypass faults are active.
     */
    std::vector<int> columnSpanOverride;
    /** Backoff charged per retry attempt on an unavoidable dead link. */
    Cycle retryBackoffCycles = 64;
    /** Retry attempts before the message is forced through degraded. */
    int maxRetries = 3;

    bool
    empty() const
    {
        return deadLinks.empty() && columnSpanOverride.empty();
    }

    bool
    linkDead(LinkId link) const
    {
        return std::binary_search(deadLinks.begin(), deadLinks.end(),
                                  link);
    }

    int
    spanOverride(int col) const
    {
        if (col < 0 ||
            static_cast<std::size_t>(col) >= columnSpanOverride.size())
            return 0;
        return columnSpanOverride[col];
    }
};

/**
 * One step of a route: traverse `link`; if `routerStop`, pay the
 * router pipeline latency at the downstream node.
 */
struct Hop
{
    LinkId link = 0;
    bool routerStop = true;
};

/**
 * A fault-aware route: the hops plus what it took to find them.
 * `rerouted` means a non-minimal path was chosen to dodge dead links;
 * `degraded` means every candidate path crosses a dead link and the
 * message must retry with backoff before being forced through.
 */
struct Route
{
    std::vector<Hop> hops;
    bool rerouted = false;
    bool degraded = false;
};

/**
 * Abstract route oracle for one interconnect style.
 *
 * Routing contract: every style implements exactly one virtual,
 * routeInto(), which clears `out` and refills it in place — hops,
 * rerouted and degraded — so a caller replaying a message batch keeps
 * one Route and its hop storage across every message. With empty
 * faults the result is the fault-free route with both flags false.
 * route() and routeResilient() are non-virtual conveniences over it.
 */
class Topology
{
  public:
    virtual ~Topology() = default;

    /**
     * Fault-aware route from src to dst into `out` (no hops if
     * src == dst), reusing out.hops' storage. Grid styles reroute
     * around dead links where an alternative exists; otherwise the
     * fault-free route is kept and flagged degraded.
     */
    virtual void routeInto(TileId src, TileId dst, TrafficClass cls,
                           const NocFaults &faults,
                           Route &out) const = 0;

    /** Fault-free hops from src to dst (empty if src == dst). */
    std::vector<Hop> route(TileId src, TileId dst,
                           TrafficClass cls) const;

    /** routeInto() into a fresh Route. */
    Route routeResilient(TileId src, TileId dst, TrafficClass cls,
                         const NocFaults &faults) const;

    /** Number of directed link resources. */
    virtual LinkId numLinks() const = 0;

    /** Build the topology matching config.topology. */
    static std::unique_ptr<Topology> create(const NocConfig &config);
};

} // namespace ditile::noc

#endif // DITILE_NOC_TOPOLOGY_HH
