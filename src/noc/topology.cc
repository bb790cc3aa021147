/**
 * @file
 * Topology implementations: mesh, rings, crossbar, reconfigurable.
 */

#include "noc/topology.hh"

#include "common/logging.hh"

namespace ditile::noc {

const char *
trafficClassName(TrafficClass cls)
{
    switch (cls) {
      case TrafficClass::Temporal: return "temporal";
      case TrafficClass::Spatial: return "spatial";
      case TrafficClass::Reuse: return "reuse";
      case TrafficClass::Control: return "control";
    }
    DITILE_PANIC("unreachable traffic class");
}

const char *
topologyKindName(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::Mesh: return "mesh";
      case TopologyKind::Ring: return "ring";
      case TopologyKind::Crossbar: return "crossbar";
      case TopologyKind::Reconfigurable: return "reconfigurable";
    }
    DITILE_PANIC("unreachable topology kind");
}

namespace {

bool
crossesDead(const std::vector<Hop> &hops, const NocFaults &faults)
{
    if (faults.deadLinks.empty())
        return false;
    for (const Hop &h : hops) {
        if (faults.linkDead(h.link))
            return true;
    }
    return false;
}

/**
 * Shared grid-link helpers: every node owns four outgoing directed
 * links (E/W/S/N); ring topologies use the same ids with wraparound.
 */
class GridBase : public Topology
{
  public:
    GridBase(int rows, int cols)
        : rows_(rows), cols_(cols)
    {
        DITILE_ASSERT(rows > 0 && cols > 0);
    }

    LinkId numLinks() const override { return rows_ * cols_ * 4; }

  protected:
    int row(TileId t) const { return t / cols_; }
    int col(TileId t) const { return t % cols_; }
    TileId tile(int r, int c) const { return r * cols_ + c; }

    void
    step(int &r, int &c, GridDir dir) const
    {
        switch (dir) {
          case GridDir::East: c = (c + 1) % cols_; break;
          case GridDir::West: c = (c + cols_ - 1) % cols_; break;
          case GridDir::South: r = (r + 1) % rows_; break;
          case GridDir::North: r = (r + rows_ - 1) % rows_; break;
        }
    }

    /** Would a ring traversal of `steps` hops cross a dead link? */
    bool
    ringPathDead(int r, int c, GridDir dir, int steps,
                 const NocFaults &faults) const
    {
        if (faults.deadLinks.empty())
            return false;
        while (steps-- > 0) {
            if (faults.linkDead(gridLinkId(tile(r, c), dir)))
                return true;
            step(r, c, dir);
        }
        return false;
    }

    /**
     * Append `steps` ring hops in `dir`, stopping at a router every
     * `span` hops plus at the final node, advancing (r, c).
     */
    void
    appendRingHops(std::vector<Hop> &hops, int &r, int &c, GridDir dir,
                   int steps, int span) const
    {
        int until_stop = span;
        while (steps-- > 0) {
            const bool last = steps == 0;
            const bool stop = last || --until_stop == 0;
            if (stop)
                until_stop = span;
            hops.push_back({gridLinkId(tile(r, c), dir), stop});
            step(r, c, dir);
        }
    }

    int rows_;
    int cols_;
};

/**
 * 2D mesh with dimension-ordered (XY) routing; ReaDy's interconnect
 * style. Under faults it falls back to YX before giving up.
 */
class MeshTopology : public GridBase
{
  public:
    using GridBase::GridBase;

    void
    routeInto(TileId src, TileId dst, TrafficClass,
              const NocFaults &faults, Route &out) const override
    {
        out.rerouted = false;
        out.degraded = false;
        build(src, dst, true, out.hops);
        if (!crossesDead(out.hops, faults))
            return;
        build(src, dst, false, out.hops);
        if (!crossesDead(out.hops, faults)) {
            out.rerouted = true;
            return;
        }
        build(src, dst, true, out.hops);
        out.degraded = true;
    }

  private:
    void
    build(TileId src, TileId dst, bool x_first,
          std::vector<Hop> &hops) const
    {
        hops.clear();
        int r = row(src);
        int c = col(src);
        const int rd = row(dst);
        const int cd = col(dst);
        for (int phase = 0; phase < 2; ++phase) {
            const bool horizontal = (phase == 0) == x_first;
            if (horizontal) {
                while (c != cd) {
                    const GridDir d = cd > c ? GridDir::East
                                             : GridDir::West;
                    hops.push_back({gridLinkId(tile(r, c), d), true});
                    c += cd > c ? 1 : -1;
                }
            } else {
                while (r != rd) {
                    const GridDir d = rd > r ? GridDir::South
                                             : GridDir::North;
                    hops.push_back({gridLinkId(tile(r, c), d), true});
                    r += rd > r ? 1 : -1;
                }
            }
        }
    }
};

/**
 * Row rings + column rings with minimal-direction routing; the
 * no-bypass variant of the paper's dual-layer interconnect. Under
 * faults each ring segment can reverse direction to dodge dead links,
 * and a stuck bypass switch overrides the column's Re-Link span.
 */
class RingTopology : public GridBase
{
  public:
    RingTopology(int rows, int cols, int relink_span)
        : GridBase(rows, cols), span_(relink_span)
    {
        DITILE_ASSERT(span_ >= 1);
    }

    void
    routeInto(TileId src, TileId dst, TrafficClass,
              const NocFaults &faults, Route &out) const override
    {
        out.hops.clear();
        out.rerouted = false;
        out.degraded = false;
        int r = row(src);
        int c = col(src);
        const int rd = row(dst);
        const int cd = col(dst);

        // Horizontal ring: minimal direction around the row unless
        // that arc crosses a dead link and the opposite arc does not.
        if (c != cd) {
            const int fwd = (cd - c + cols_) % cols_;
            const bool min_east = fwd <= cols_ / 2;
            const int min_steps = min_east ? fwd : cols_ - fwd;
            GridDir dir = min_east ? GridDir::East : GridDir::West;
            int steps = min_steps;
            if (ringPathDead(r, c, dir, steps, faults)) {
                const GridDir alt = min_east ? GridDir::West
                                             : GridDir::East;
                if (!ringPathDead(r, c, alt, cols_ - min_steps,
                                  faults)) {
                    dir = alt;
                    steps = cols_ - min_steps;
                    out.rerouted = true;
                } else {
                    out.degraded = true;
                }
            }
            appendRingHops(out.hops, r, c, dir, steps, 1);
        }
        // Vertical ring: same policy; with a Re-Link span > 1,
        // intermediate routers are bypassed (link still occupied, no
        // router stop) and the message stops every span hops. A stuck
        // bypass switch in this column forces its own span.
        if (r != rd) {
            int span = span_;
            if (const int ov = faults.spanOverride(c))
                span = ov;
            const int fwd = (rd - r + rows_) % rows_;
            const bool min_south = fwd <= rows_ / 2;
            const int min_steps = min_south ? fwd : rows_ - fwd;
            GridDir dir = min_south ? GridDir::South : GridDir::North;
            int steps = min_steps;
            if (ringPathDead(r, c, dir, steps, faults)) {
                const GridDir alt = min_south ? GridDir::North
                                              : GridDir::South;
                if (!ringPathDead(r, c, alt, rows_ - min_steps,
                                  faults)) {
                    dir = alt;
                    steps = rows_ - min_steps;
                    out.rerouted = true;
                } else {
                    out.degraded = true;
                }
            }
            appendRingHops(out.hops, r, c, dir, steps, span);
        }
    }

  private:
    int span_;
};

/**
 * Single-stage crossbar: one hop, contention on the destination input
 * port; RACE's engine interconnect.
 */
class CrossbarTopology : public Topology
{
  public:
    explicit CrossbarTopology(int tiles)
        : tiles_(tiles)
    {
    }

    void
    routeInto(TileId src, TileId dst, TrafficClass,
              const NocFaults &faults, Route &out) const override
    {
        out.hops.clear();
        out.rerouted = false;
        out.degraded = false;
        if (src == dst)
            return;
        const auto port = static_cast<LinkId>(dst);
        out.hops.push_back({port, true});
        out.degraded = faults.linkDead(port);
    }

    LinkId numLinks() const override { return tiles_; }

  private:
    int tiles_;
};

} // namespace

std::vector<Hop>
Topology::route(TileId src, TileId dst, TrafficClass cls) const
{
    static const NocFaults none;
    return routeResilient(src, dst, cls, none).hops;
}

Route
Topology::routeResilient(TileId src, TileId dst, TrafficClass cls,
                         const NocFaults &faults) const
{
    Route out;
    routeInto(src, dst, cls, faults, out);
    return out;
}

std::unique_ptr<Topology>
Topology::create(const NocConfig &config)
{
    switch (config.topology) {
      case TopologyKind::Mesh:
        return std::make_unique<MeshTopology>(config.rows, config.cols);
      case TopologyKind::Ring:
        return std::make_unique<RingTopology>(config.rows, config.cols,
                                              1);
      case TopologyKind::Crossbar:
        return std::make_unique<CrossbarTopology>(config.numTiles());
      case TopologyKind::Reconfigurable:
        return std::make_unique<RingTopology>(config.rows, config.cols,
                                              config.reLinkSpan);
    }
    DITILE_PANIC("unreachable topology kind");
}

} // namespace ditile::noc
