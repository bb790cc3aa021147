/**
 * @file
 * Display names and the hop-list Topology over the route walkers.
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

void
Topology::routeInto(TileId src, TileId dst, TrafficClass,
                    const NocFaults &faults, Route &out) const
{
    withRoutes(config_, [&](const auto &routes) {
        const RouteChoice choice = routes.choose(src, dst, faults);
        out.rerouted = choice.rerouted;
        out.degraded = choice.degraded;
        out.hops.clear();
        routes.walk(src, dst, choice, [&](LinkId link, bool stop) {
            out.hops.push_back({link, stop});
        });
    });
}

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

LinkId
Topology::numLinks() const
{
    return withRoutes(config_, [](const auto &routes) {
        return routes.numLinks();
    });
}

} // namespace ditile::noc
