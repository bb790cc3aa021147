/**
 * @file
 * SnapshotWindow implementation.
 */

#include "graph/window.hh"

#include <algorithm>
#include <iterator>
#include <memory>

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

namespace {

/**
 * Throw InputError unless `delta` is canonical and applies to `prev`:
 * everything Csr::patched asserts, checked first so that a hostile
 * checkpoint is an error, not an abort.
 */
void
checkDelta(const std::string &name, const Csr &prev,
           const GraphDelta &delta, const char *what)
{
    const VertexId vertices = prev.numVertices();
    auto check = [&](const std::vector<Edge> &edges, bool in_prev,
                     const char *list) {
        for (std::size_t i = 0; i < edges.size(); ++i) {
            const auto [u, v] = edges[i];
            if (u < 0 || u >= v || v >= vertices)
                DITILE_THROW("window restore for '", name, "': ", what,
                             " ", list, " edge (", u, ",", v,
                             ") is not a canonical edge of [0,",
                             vertices, ")");
            if (i > 0 && !(edges[i - 1] < edges[i]))
                DITILE_THROW("window restore for '", name, "': ", what,
                             " ", list, " edges are unsorted or "
                             "duplicated at (", u, ",", v, ")");
            if (prev.hasEdge(u, v) != in_prev)
                DITILE_THROW("window restore for '", name, "': ", what,
                             " ", list, " edge (", u, ",", v, ") is ",
                             in_prev ? "missing from" : "already in",
                             " the snapshot before it");
        }
    };
    check(delta.removedEdges(), true, "removed");
    check(delta.addedEdges(), false, "added");
}

} // namespace

SnapshotWindow
SnapshotWindow::restore(std::string name, SnapshotId capacity,
                        int feature_dim, Csr oldest,
                        std::vector<GraphDelta> deltas,
                        const GraphDelta &pending,
                        const Counters &counters)
{
    if (capacity < 1)
        DITILE_THROW("window restore for '", name,
                     "': capacity must be >= 1");
    if (feature_dim < 1)
        DITILE_THROW("window restore for '", name,
                     "': feature width must be >= 1");
    // A window holds min(rolls + 1, capacity) snapshots.
    const std::uint64_t want = std::min<std::uint64_t>(
        counters.rolls, static_cast<std::uint64_t>(capacity) - 1);
    if (deltas.size() != want)
        DITILE_THROW("window restore for '", name, "': checkpoint has ",
                     deltas.size(), " deltas, but ", counters.rolls,
                     " rolls at capacity ", capacity, " leave ", want);

    std::vector<Csr> snapshots;
    snapshots.reserve(deltas.size() + 1);
    snapshots.push_back(std::move(oldest));
    for (const GraphDelta &delta : deltas) {
        checkDelta(name, snapshots.back(), delta, "delta");
        Csr next = Csr::patched(snapshots.back(), delta.addedEdges(),
                                delta.removedEdges());
        snapshots.push_back(std::move(next));
    }
    checkDelta(name, snapshots.back(), pending, "pending delta");

    // Live set = newest snapshot - removed + added; all three lists
    // are canonical, so one difference and one merge build it sorted.
    const std::vector<Edge> newest = snapshots.back().edgeList();
    std::vector<Edge> kept;
    kept.reserve(newest.size());
    std::set_difference(newest.begin(), newest.end(),
                        pending.removedEdges().begin(),
                        pending.removedEdges().end(),
                        std::back_inserter(kept));
    SnapshotWindow window(DynamicGraph(std::move(name),
                                       std::move(snapshots),
                                       std::move(deltas), feature_dim),
                          capacity);
    window.live_.reserve(kept.size() + pending.addedEdges().size());
    std::merge(kept.begin(), kept.end(), pending.addedEdges().begin(),
               pending.addedEdges().end(),
               std::back_inserter(window.live_));
    window.keys_.reserve(window.live_.size() * 2);
    for (auto [u, v] : window.live_)
        window.keys_.insert(edgeKey(u, v));

    window.appliedEvents_ = counters.appliedEvents;
    window.noopEvents_ = counters.noopEvents;
    window.rolls_ = counters.rolls;
    window.sinceRoll_ = counters.sinceRoll;
    return window;
}

GraphDelta
SnapshotWindow::pendingDelta() const
{
    const Csr &newest = graph_.snapshot(graph_.numSnapshots() - 1);
    std::vector<Edge> added;
    for (auto [u, v] : live_)
        if (!newest.hasEdge(u, v))
            added.emplace_back(u, v);
    std::vector<Edge> removed;
    for (VertexId u = 0; u < newest.numVertices(); ++u)
        for (VertexId v : newest.neighbors(u))
            if (u < v && !keys_.count(edgeKey(u, v)))
                removed.emplace_back(u, v);
    return GraphDelta::fromChanges(std::move(added), std::move(removed));
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
    // Share the newest capacity - 1 snapshots and copy the deltas
    // between them, then append the live set and its one diff.
    const SnapshotId size = graph_.numSnapshots();
    const SnapshotId first = size < capacity_ ? 0 : 1;
    std::vector<std::shared_ptr<const Csr>> snapshots;
    std::vector<GraphDelta> deltas;
    for (SnapshotId t = first; t < size; ++t) {
        snapshots.push_back(graph_.sharedSnapshot(t));
        if (t > first)
            deltas.push_back(graph_.delta(t));
    }
    auto next = std::make_shared<const Csr>(
        Csr::fromEdges(numVertices(), live_));
    if (!snapshots.empty())
        deltas.push_back(GraphDelta::diff(*snapshots.back(), *next));
    snapshots.push_back(std::move(next));
    graph_ = DynamicGraph(graph_.name(), std::move(snapshots),
                          std::move(deltas), graph_.featureDim());
    ++rolls_;
    sinceRoll_ = 0;
}

} // namespace ditile::graph
