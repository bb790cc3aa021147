/**
 * @file
 * Continuous-time dynamic graph implementation.
 */

#include "graph/ctdg.hh"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "common/logging.hh"
#include "graph/generator.hh"
#include "graph/window.hh"

namespace ditile::graph {

ContinuousDynamicGraph::ContinuousDynamicGraph(
    std::string name, Csr initial, std::vector<GraphEvent> events)
    : name_(std::move(name)), initial_(std::move(initial)),
      events_(std::move(events))
{
    for (std::size_t i = 1; i < events_.size(); ++i) {
        DITILE_ASSERT(events_[i - 1].timestamp <= events_[i].timestamp,
                      "event stream must be time-ordered");
    }
    for (const auto &e : events_) {
        DITILE_ASSERT(e.u >= 0 && e.u < initial_.numVertices() &&
                      e.v >= 0 && e.v < initial_.numVertices(),
                      "event endpoints out of the vertex universe");
    }
}

double
ContinuousDynamicGraph::beginTime() const
{
    return events_.empty() ? 0.0 : events_.front().timestamp;
}

double
ContinuousDynamicGraph::endTime() const
{
    return events_.empty() ? 0.0 : events_.back().timestamp;
}

DynamicGraph
ContinuousDynamicGraph::discretize(SnapshotId num_snapshots,
                                   int feature_dim) const
{
    DITILE_ASSERT(num_snapshots >= 1);
    // A two-snapshot window rolls each snapshot and its delta out; the
    // output graph is built (and hashed) once, at the end.
    SnapshotWindow window(name_, initial_, 2, feature_dim);
    std::vector<std::shared_ptr<const Csr>> snapshots = {
        window.graph().sharedSnapshot(0)};
    std::vector<GraphDelta> deltas;
    const double begin = beginTime();
    const double span = endTime() - begin;
    std::size_t cursor = 0;
    for (SnapshotId t = 1; t < num_snapshots; ++t) {
        const double cutoff = begin + span * static_cast<double>(t) /
            static_cast<double>(num_snapshots - 1);
        while (cursor < events_.size() &&
               events_[cursor].timestamp <= cutoff)
            window.apply(events_[cursor++]);
        window.roll();
        snapshots.push_back(window.graph().sharedSnapshot(1));
        deltas.push_back(window.graph().delta(1));
    }
    return DynamicGraph(name_, std::move(snapshots), std::move(deltas),
                        feature_dim);
}

ContinuousDynamicGraph
generateEventStream(const EventStreamConfig &config)
{
    Rng rng(config.seed);
    Csr initial = generateRmat(config.numVertices, config.initialEdges,
                               {}, rng);

    // Live set mirrors the replay so removals target real edges.
    std::vector<Edge> live = initial.edgeList();
    std::unordered_set<std::uint64_t> keys;
    for (auto [u, v] : live)
        keys.insert(edgeKey(u, v));

    const int levels = rmatLevels(config.numVertices);

    // Uniform timestamps, sorted, then events assigned in order.
    std::vector<double> times;
    times.reserve(config.numEvents);
    for (std::size_t i = 0; i < config.numEvents; ++i)
        times.push_back(rng.uniformReal(0.0, config.duration));
    std::sort(times.begin(), times.end());

    std::vector<GraphEvent> events;
    events.reserve(config.numEvents);
    for (double ts : times) {
        GraphEvent e;
        e.timestamp = ts;
        const bool remove = rng.bernoulli(config.removalFraction) &&
            !live.empty();
        if (remove) {
            const auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            e.kind = GraphEvent::Kind::RemoveEdge;
            e.u = live[idx].first;
            e.v = live[idx].second;
            keys.erase(edgeKey(e.u, e.v));
            live[idx] = live.back();
            live.pop_back();
        } else {
            e.kind = GraphEvent::Kind::AddEdge;
            // Bounded retry keeps generation deterministic-fast even
            // on dense graphs.
            for (int attempt = 0; attempt < 64; ++attempt) {
                Rng draw_rng(mix64(rng()));
                const auto [u, v] = rmatDraw(levels, {}, draw_rng);
                if (u >= config.numVertices || v >= config.numVertices
                    || u == v || keys.count(edgeKey(u, v))) {
                    continue;
                }
                e.u = u;
                e.v = v;
                break;
            }
            if (e.u == e.v) // all retries failed: degenerate add.
                continue;
            keys.insert(edgeKey(e.u, e.v));
            live.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
        }
        events.push_back(e);
    }
    return ContinuousDynamicGraph(config.name, std::move(initial),
                                  std::move(events));
}

} // namespace ditile::graph
