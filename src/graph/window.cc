/**
 * @file
 * SnapshotWindow implementation.
 */

#include "graph/window.hh"

#include <algorithm>
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
}

namespace {

/** The canonical edges an edgeKey() set packs, in hash-set order. */
std::vector<Edge>
keyEdges(const std::unordered_set<std::uint64_t> &keys)
{
    std::vector<Edge> edges;
    edges.reserve(keys.size());
    for (std::uint64_t key : keys)
        edges.emplace_back(static_cast<VertexId>(key >> 32),
                           static_cast<VertexId>(key & 0xffffffffu));
    return edges;
}

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

    SnapshotWindow window(DynamicGraph(std::move(name),
                                       std::move(snapshots),
                                       std::move(deltas), feature_dim),
                          capacity);
    for (auto [u, v] : pending.addedEdges())
        window.added_.insert(edgeKey(u, v));
    for (auto [u, v] : pending.removedEdges())
        window.removed_.insert(edgeKey(u, v));

    window.appliedEvents_ = counters.appliedEvents;
    window.noopEvents_ = counters.noopEvents;
    window.rolls_ = counters.rolls;
    window.sinceRoll_ = counters.sinceRoll;
    return window;
}

GraphDelta
SnapshotWindow::pendingDelta() const
{
    // fromChanges sorts both lists, so hash-set order never leaks.
    return GraphDelta::fromChanges(keyEdges(added_), keyEdges(removed_));
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
    // Live = in the newest snapshot, adjusted by the pending delta.
    const auto key = edgeKey(event.u, event.v);
    const bool self_loop = event.u == event.v;
    const bool live = !self_loop &&
        (added_.count(key) != 0 ||
         (removed_.count(key) == 0 && newest().hasEdge(event.u, event.v)));
    const bool add = event.kind == GraphEvent::Kind::AddEdge;
    if (self_loop || live == add) {
        ++noopEvents_;
        return;
    }
    // A change that undoes a pending one cancels it.
    auto &undo = add ? removed_ : added_;
    if (!undo.erase(key))
        (add ? added_ : removed_).insert(key);
    ++appliedEvents_;
    ++sinceRoll_;
}

void
SnapshotWindow::roll()
{
    // Share the newest capacity - 1 snapshots and copy the deltas
    // between them, then append the patched newest and its delta.
    GraphDelta delta = pendingDelta();
    auto next = std::make_shared<const Csr>(Csr::patched(
        newest(), delta.addedEdges(), delta.removedEdges()));
    const SnapshotId size = graph_.numSnapshots();
    const SnapshotId first = size < capacity_ ? 0 : 1;
    std::vector<std::shared_ptr<const Csr>> snapshots;
    std::vector<GraphDelta> deltas;
    for (SnapshotId t = first; t < size; ++t) {
        snapshots.push_back(graph_.sharedSnapshot(t));
        if (t > first)
            deltas.push_back(graph_.delta(t));
    }
    if (!snapshots.empty())
        deltas.push_back(std::move(delta));
    snapshots.push_back(std::move(next));
    graph_ = DynamicGraph(graph_.name(), std::move(snapshots),
                          std::move(deltas), graph_.featureDim());
    added_.clear();
    removed_.clear();
    ++rolls_;
    sinceRoll_ = 0;
}

} // namespace ditile::graph
