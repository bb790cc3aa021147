/**
 * @file
 * SnapshotWindow implementation.
 */

#include "graph/window.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ditile::graph {

SnapshotWindow::SnapshotWindow(std::string name, Csr initial,
                               SnapshotId capacity, int feature_dim)
    : capacity_(capacity < 1 ? 1 : capacity)
{
    std::vector<Csr> snapshots;
    snapshots.push_back(std::move(initial));
    graph_ = DynamicGraph(std::move(name), std::move(snapshots),
                          feature_dim);
    live_ = graph_.snapshot(0).edgeList();
    keys_.reserve(live_.size() * 2);
    for (auto [u, v] : live_)
        keys_.insert(edgeKey(u, v));
}

SnapshotWindow
SnapshotWindow::restore(std::string name, SnapshotId capacity,
                        int feature_dim, std::vector<Csr> ring,
                        const std::vector<Edge> &live,
                        const Counters &counters)
{
    if (ring.empty())
        DITILE_THROW("window restore for '", name,
                     "': checkpoint has an empty snapshot ring");
    if (capacity < 1)
        DITILE_THROW("window restore for '", name,
                     "': capacity must be >= 1");
    if (feature_dim < 1)
        DITILE_THROW("window restore for '", name,
                     "': feature width must be >= 1");
    if (static_cast<SnapshotId>(ring.size()) > capacity)
        DITILE_THROW("window restore for '", name, "': ring has ",
                     ring.size(), " snapshots but capacity is ",
                     capacity);
    const VertexId vertices = ring.front().numVertices();
    for (const auto &csr : ring) {
        if (csr.numVertices() != vertices)
            DITILE_THROW("window restore for '", name,
                         "': inconsistent vertex universes in ring (",
                         vertices, " vs ", csr.numVertices(), ")");
    }

    SnapshotWindow window(
        DynamicGraph(std::move(name), std::move(ring), feature_dim),
        capacity);
    window.keys_.reserve(live.size() * 2);
    for (auto [u, v] : live) {
        if (u < 0 || u >= vertices || v < 0 || v >= vertices)
            DITILE_THROW("window restore for '", window.name(),
                         "': live edge (", u, ",", v,
                         ") outside universe [0,", vertices, ")");
        if (!window.keys_.insert(edgeKey(u, v)).second)
            DITILE_THROW("window restore for '", window.name(),
                         "': duplicate live edge (", u, ",", v, ")");
        window.live_.emplace_back(std::min(u, v), std::max(u, v));
    }

    window.appliedEvents_ = counters.appliedEvents;
    window.noopEvents_ = counters.noopEvents;
    window.rolls_ = counters.rolls;
    window.sinceRoll_ = counters.sinceRoll;
    return window;
}

std::vector<Edge>
SnapshotWindow::liveEdgeList() const
{
    std::vector<Edge> edges = live_;
    std::sort(edges.begin(), edges.end());
    return edges;
}

void
SnapshotWindow::apply(const GraphEvent &event)
{
    const VertexId vertices = numVertices();
    if (event.u < 0 || event.u >= vertices || event.v < 0 ||
        event.v >= vertices) {
        DITILE_THROW("event endpoint (", event.u, ",", event.v,
                     ") outside tenant '", name(), "' universe [0,",
                     vertices, ")");
    }
    const auto key = edgeKey(event.u, event.v);
    if (event.kind == GraphEvent::Kind::AddEdge) {
        if (event.u == event.v || !keys_.insert(key).second) {
            ++noopEvents_;
            return;
        }
        live_.emplace_back(std::min(event.u, event.v),
                           std::max(event.u, event.v));
    } else {
        if (!keys_.erase(key)) {
            ++noopEvents_;
            return;
        }
        const Edge victim{std::min(event.u, event.v),
                          std::max(event.u, event.v)};
        auto it = std::find(live_.begin(), live_.end(), victim);
        DITILE_ASSERT(it != live_.end(),
                      "live set and key set out of sync");
        *it = live_.back();
        live_.pop_back();
    }
    ++appliedEvents_;
    ++sinceRoll_;
}

void
SnapshotWindow::roll()
{
    // Keep the newest capacity - 1 snapshots and the deltas between
    // them, then append the live set and its one diff.
    const SnapshotId size = graph_.numSnapshots();
    const SnapshotId first = size < capacity_ ? 0 : 1;
    std::vector<Csr> snapshots;
    std::vector<GraphDelta> deltas;
    for (SnapshotId t = first; t < size; ++t) {
        snapshots.push_back(graph_.snapshot(t));
        if (t > first)
            deltas.push_back(graph_.delta(t));
    }
    Csr next = Csr::fromEdges(numVertices(), live_);
    if (!snapshots.empty())
        deltas.push_back(GraphDelta::diff(snapshots.back(), next));
    snapshots.push_back(std::move(next));
    graph_ = DynamicGraph(graph_.name(), std::move(snapshots),
                          std::move(deltas), graph_.featureDim());
    ++rolls_;
    sinceRoll_ = 0;
}

} // namespace ditile::graph
