/**
 * @file
 * Route computation for the four interconnect styles.
 *
 * A route is an ordered sequence of hops from a src tile to a dst
 * tile. Each hop names a directed link resource and whether the
 * message stops at the downstream router (Re-Link bypasses traverse
 * links without a router stop). Each style defines its routes once,
 * as an inline walker (MeshRoutes, RingRoutes, CrossbarRoutes) that
 * produces link ids arithmetically and settles faults itself.
 */

#ifndef DITILE_NOC_TOPOLOGY_HH
#define DITILE_NOC_TOPOLOGY_HH

#include <algorithm>
#include <vector>

#include "common/logging.hh"
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
 * Which path a route walker takes for one message, settled before
 * any hop is walked (a degraded message's backoff delays its first
 * hop). Each style reads only its own fields.
 */
struct RouteChoice
{
    bool rerouted = false;
    bool degraded = false;
    bool yFirst = false;  ///< Mesh: the YX fallback order.
    bool rowLong = false; ///< Rings: the row leg takes the long arc.
    bool colLong = false; ///< Rings: the column leg takes the long arc.
    int colSpan = 1;      ///< Rings: router-stop spacing, column leg.
};

/*
 * Route walkers, one per interconnect style. choose() settles the
 * path under `faults` (empty faults: the fault-free route, both flags
 * false); walk() calls hop(link, routerStop) for each hop in order,
 * deriving link ids arithmetically. These are the only route
 * definitions: the fast replay loop instantiates over them directly,
 * and Topology collects their hops into Hop lists.
 */

/**
 * 2D mesh with dimension-ordered (XY) routing; ReaDy's interconnect
 * style. Under faults it falls back to YX before giving up.
 */
class MeshRoutes
{
  public:
    MeshRoutes(int rows, int cols)
        : rows_(rows), cols_(cols)
    {
        DITILE_ASSERT(rows > 0 && cols > 0);
    }

    LinkId numLinks() const { return rows_ * cols_ * 4; }

    RouteChoice
    choose(TileId src, TileId dst, const NocFaults &faults) const
    {
        RouteChoice choice;
        if (!crossesDead(src, dst, choice, faults))
            return choice;
        choice.yFirst = true;
        if (!crossesDead(src, dst, choice, faults)) {
            choice.rerouted = true;
            return choice;
        }
        choice.yFirst = false;
        choice.degraded = true;
        return choice;
    }

    template <typename OnHop>
    void
    walk(TileId src, TileId dst, const RouteChoice &choice,
         OnHop &&hop) const
    {
        const int r = src / cols_;
        const int c = src % cols_;
        const int rd = dst / cols_;
        const int cd = dst % cols_;
        if (choice.yFirst) {
            column(r, rd, c, hop);
            row(rd, c, cd, hop);
        } else {
            row(r, c, cd, hop);
            column(r, rd, cd, hop);
        }
    }

  private:
    bool
    crossesDead(TileId src, TileId dst, const RouteChoice &choice,
                const NocFaults &faults) const
    {
        if (faults.deadLinks.empty())
            return false;
        bool dead = false;
        walk(src, dst, choice, [&](LinkId link, bool) {
            dead = dead || faults.linkDead(link);
        });
        return dead;
    }

    /** Hops along row r from column c to cd. */
    template <typename OnHop>
    void
    row(int r, int c, int cd, OnHop &hop) const
    {
        const LinkId base = static_cast<LinkId>(r * cols_) * 4;
        for (; c < cd; ++c)
            hop(base + c * 4 + static_cast<LinkId>(GridDir::East), true);
        for (; c > cd; --c)
            hop(base + c * 4 + static_cast<LinkId>(GridDir::West), true);
    }

    /** Hops along column c from row r to rd. */
    template <typename OnHop>
    void
    column(int r, int rd, int c, OnHop &hop) const
    {
        const LinkId stride = static_cast<LinkId>(cols_) * 4;
        const LinkId base = static_cast<LinkId>(c) * 4;
        for (; r < rd; ++r)
            hop(base + r * stride +
                    static_cast<LinkId>(GridDir::South), true);
        for (; r > rd; --r)
            hop(base + r * stride +
                    static_cast<LinkId>(GridDir::North), true);
    }

    int rows_;
    int cols_;
};

/**
 * Row rings + column rings with minimal-direction routing: the row
 * leg first, then the column leg in the destination column. With
 * `span` = 1 this is the no-bypass ring; a larger span is the paper's
 * Re-Link: the column leg bypasses intermediate routers (link still
 * occupied, no router stop) and stops every `span` hops plus at the
 * destination. Under faults each leg can reverse direction to dodge
 * dead links, and a stuck bypass switch in the destination column
 * forces that column's own span.
 */
class RingRoutes
{
  public:
    RingRoutes(int rows, int cols, int span)
        : rows_(rows), cols_(cols), span_(span)
    {
        DITILE_ASSERT(rows > 0 && cols > 0 && span >= 1);
    }

    LinkId numLinks() const { return rows_ * cols_ * 4; }

    RouteChoice
    choose(TileId src, TileId dst, const NocFaults &faults) const
    {
        RouteChoice choice;
        const int r = src / cols_;
        const int c = src % cols_;
        const int rd = dst / cols_;
        const int cd = dst % cols_;
        const int ov = faults.spanOverride(cd);
        choice.colSpan = ov ? ov : span_;
        if (faults.deadLinks.empty())
            return choice;
        // Each leg keeps its minimal arc unless that arc crosses a
        // dead link and the opposite arc does not.
        auto settle = [&](const Leg &minimal, const Leg &opposite,
                          bool &take_long) {
            if (!legDead(minimal, faults))
                return;
            if (!legDead(opposite, faults)) {
                take_long = true;
                choice.rerouted = true;
            } else {
                choice.degraded = true;
            }
        };
        if (c != cd)
            settle(rowLeg(r, c, cd, false), rowLeg(r, c, cd, true),
                   choice.rowLong);
        if (r != rd)
            settle(colLeg(cd, r, rd, false, 1),
                   colLeg(cd, r, rd, true, 1), choice.colLong);
        return choice;
    }

    template <typename OnHop>
    void
    walk(TileId src, TileId dst, const RouteChoice &choice,
         OnHop &&hop) const
    {
        const int r = src / cols_;
        const int c = src % cols_;
        const int rd = dst / cols_;
        const int cd = dst % cols_;
        if (c != cd)
            walkLeg(rowLeg(r, c, cd, choice.rowLong), hop);
        if (r != rd)
            walkLeg(colLeg(cd, r, rd, choice.colLong, choice.colSpan),
                    hop);
    }

  private:
    /**
     * `steps` hops around a ring of `n` nodes from position `pos`;
     * position p's outgoing link is base + p * stride + dir.
     */
    struct Leg
    {
        int pos;
        int n;
        int steps;
        bool forward;
        LinkId base;
        LinkId stride;
        LinkId dir;
        int span;
    };

    /** The minimal arc (forward on ties), or the opposite one. */
    static Leg
    ringLeg(int pos, int to, int n, bool take_long)
    {
        const int fwd = (to - pos + n) % n;
        const bool forward = (fwd <= n / 2) != take_long;
        return {pos, n, forward ? fwd : n - fwd, forward, 0, 0, 0, 1};
    }

    Leg
    rowLeg(int r, int c, int cd, bool take_long) const
    {
        Leg leg = ringLeg(c, cd, cols_, take_long);
        leg.base = static_cast<LinkId>(r * cols_) * 4;
        leg.stride = 4;
        leg.dir = static_cast<LinkId>(leg.forward ? GridDir::East
                                                  : GridDir::West);
        return leg;
    }

    Leg
    colLeg(int c, int r, int rd, bool take_long, int span) const
    {
        Leg leg = ringLeg(r, rd, rows_, take_long);
        leg.base = static_cast<LinkId>(c) * 4;
        leg.stride = static_cast<LinkId>(cols_) * 4;
        leg.dir = static_cast<LinkId>(leg.forward ? GridDir::South
                                                  : GridDir::North);
        leg.span = span;
        return leg;
    }

    template <typename OnHop>
    static void
    walkLeg(Leg leg, OnHop &&hop)
    {
        int until_stop = leg.span;
        for (int k = leg.steps; k > 0; --k) {
            const bool stop = k == 1 || --until_stop == 0;
            if (stop)
                until_stop = leg.span;
            hop(leg.base + leg.pos * leg.stride + leg.dir, stop);
            if (leg.forward)
                leg.pos = leg.pos + 1 == leg.n ? 0 : leg.pos + 1;
            else
                leg.pos = (leg.pos == 0 ? leg.n : leg.pos) - 1;
        }
    }

    static bool
    legDead(const Leg &leg, const NocFaults &faults)
    {
        bool dead = false;
        walkLeg(leg, [&](LinkId link, bool) {
            dead = dead || faults.linkDead(link);
        });
        return dead;
    }

    int rows_;
    int cols_;
    int span_;
};

/**
 * Single-stage crossbar: one hop, contention on the destination input
 * port; RACE's engine interconnect.
 */
class CrossbarRoutes
{
  public:
    explicit CrossbarRoutes(int tiles)
        : tiles_(tiles)
    {
    }

    LinkId numLinks() const { return tiles_; }

    RouteChoice
    choose(TileId src, TileId dst, const NocFaults &faults) const
    {
        RouteChoice choice;
        choice.degraded = src != dst && faults.linkDead(dst);
        return choice;
    }

    template <typename OnHop>
    void
    walk(TileId src, TileId dst, const RouteChoice &,
         OnHop &&hop) const
    {
        if (src != dst)
            hop(static_cast<LinkId>(dst), true);
    }

  private:
    int tiles_;
};

/**
 * Call f with the route walker of config.topology and return its
 * result: one switch per call, so a batch replay instantiated inside
 * `f` makes no per-message dispatch.
 */
template <typename F>
decltype(auto)
withRoutes(const NocConfig &config, F &&f)
{
    switch (config.topology) {
      case TopologyKind::Mesh:
        return f(MeshRoutes(config.rows, config.cols));
      case TopologyKind::Ring:
        return f(RingRoutes(config.rows, config.cols, 1));
      case TopologyKind::Crossbar:
        return f(CrossbarRoutes(config.numTiles()));
      case TopologyKind::Reconfigurable:
        return f(RingRoutes(config.rows, config.cols,
                            config.reLinkSpan));
    }
    DITILE_PANIC("unreachable topology kind");
}

/**
 * Hop-list routes of one configuration, collected from its walker:
 * for the flit model, zero-load checks and tests. The fast replay
 * (simulateTraffic) walks routes without building hop lists.
 */
class Topology
{
  public:
    explicit Topology(const NocConfig &config)
        : config_(config)
    {
    }

    /**
     * Fault-aware route from src to dst into `out` (no hops if
     * src == dst), reusing out.hops' storage. Grid styles reroute
     * around dead links where an alternative exists; otherwise the
     * fault-free route is kept and flagged degraded.
     */
    void routeInto(TileId src, TileId dst, TrafficClass cls,
                   const NocFaults &faults, Route &out) const;

    /** Fault-free hops from src to dst (empty if src == dst). */
    std::vector<Hop> route(TileId src, TileId dst,
                           TrafficClass cls) const;

    /** routeInto() into a fresh Route. */
    Route routeResilient(TileId src, TileId dst, TrafficClass cls,
                         const NocFaults &faults) const;

    /** Number of directed link resources. */
    LinkId numLinks() const;

  private:
    NocConfig config_;
};

} // namespace ditile::noc

#endif // DITILE_NOC_TOPOLOGY_HH
