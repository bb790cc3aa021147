/**
 * @file
 * Delta computation and frontier expansion.
 */

#include "graph/delta.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ditile::graph {

GraphDelta
GraphDelta::diff(const Csr &prev, const Csr &next)
{
    DITILE_ASSERT(prev.numVertices() == next.numVertices(),
                  "snapshots must share a vertex universe");
    std::vector<Edge> prev_edges = prev.edgeList();
    std::vector<Edge> next_edges = next.edgeList();

    GraphDelta d;
    std::set_difference(next_edges.begin(), next_edges.end(),
                        prev_edges.begin(), prev_edges.end(),
                        std::back_inserter(d.added_));
    std::set_difference(prev_edges.begin(), prev_edges.end(),
                        next_edges.begin(), next_edges.end(),
                        std::back_inserter(d.removed_));
    d.rebuildAffected();
    return d;
}

GraphDelta
GraphDelta::fromChanges(std::vector<Edge> added, std::vector<Edge> removed)
{
    GraphDelta d;
    d.added_ = std::move(added);
    d.removed_ = std::move(removed);
    std::sort(d.added_.begin(), d.added_.end());
    std::sort(d.removed_.begin(), d.removed_.end());
    d.rebuildAffected();
    return d;
}

void
GraphDelta::rebuildAffected()
{
    affected_.clear();
    affected_.reserve(2 * (added_.size() + removed_.size()));
    for (auto [u, v] : added_) {
        affected_.push_back(u);
        affected_.push_back(v);
    }
    for (auto [u, v] : removed_) {
        affected_.push_back(u);
        affected_.push_back(v);
    }
    std::sort(affected_.begin(), affected_.end());
    affected_.erase(std::unique(affected_.begin(), affected_.end()),
                    affected_.end());
}

double
GraphDelta::dissimilarity(VertexId num_vertices) const
{
    if (num_vertices == 0)
        return 0.0;
    return static_cast<double>(affected_.size()) /
           static_cast<double>(num_vertices);
}

std::vector<VertexId>
expandFrontier(const Csr &g, const std::vector<VertexId> &seeds, int hops)
{
    std::vector<bool> visited(static_cast<std::size_t>(g.numVertices()),
                              false);
    std::vector<VertexId> frontier;
    frontier.reserve(seeds.size());
    for (VertexId v : seeds) {
        DITILE_ASSERT(v >= 0 && v < g.numVertices());
        if (!visited[static_cast<std::size_t>(v)]) {
            visited[static_cast<std::size_t>(v)] = true;
            frontier.push_back(v);
        }
    }

    std::vector<VertexId> next;
    for (int h = 0; h < hops; ++h) {
        next.clear();
        for (VertexId v : frontier) {
            for (VertexId w : g.neighbors(v)) {
                if (!visited[static_cast<std::size_t>(w)]) {
                    visited[static_cast<std::size_t>(w)] = true;
                    next.push_back(w);
                }
            }
        }
        frontier.swap(next);
        if (frontier.empty())
            break;
    }

    std::vector<VertexId> out;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        if (visited[static_cast<std::size_t>(v)])
            out.push_back(v);
    return out;
}

std::vector<std::vector<VertexId>>
expandFrontierLevels(const Csr &g, const std::vector<VertexId> &seeds,
                     int hops, std::size_t reach_cap)
{
    std::vector<bool> visited(static_cast<std::size_t>(g.numVertices()),
                              false);
    std::vector<std::vector<VertexId>> levels;
    levels.reserve(static_cast<std::size_t>(hops) + 1);

    std::vector<VertexId> frontier;
    frontier.reserve(seeds.size());
    for (VertexId v : seeds) {
        DITILE_ASSERT(v >= 0 && v < g.numVertices());
        if (!visited[static_cast<std::size_t>(v)]) {
            visited[static_cast<std::size_t>(v)] = true;
            frontier.push_back(v);
        }
    }
    std::sort(frontier.begin(), frontier.end());
    std::size_t reached = frontier.size();
    levels.push_back(frontier);

    for (int h = 0; h < hops && reached <= reach_cap; ++h) {
        std::vector<VertexId> next;
        for (VertexId v : levels.back()) {
            for (VertexId w : g.neighbors(v)) {
                if (!visited[static_cast<std::size_t>(w)]) {
                    visited[static_cast<std::size_t>(w)] = true;
                    next.push_back(w);
                }
            }
            if (reached + next.size() > reach_cap)
                break;
        }
        reached += next.size();
        std::sort(next.begin(), next.end());
        levels.push_back(std::move(next));
        if (levels.back().empty())
            break;
    }
    // Pad so callers can always index levels[0..hops].
    while (levels.size() < static_cast<std::size_t>(hops) + 1)
        levels.emplace_back();
    return levels;
}

GraphDelta
GraphDelta::induced(const std::vector<VertexId> &local_of) const
{
    auto restrict = [&local_of](const std::vector<Edge> &edges) {
        std::vector<Edge> kept;
        for (const auto &[u, v] : edges) {
            const VertexId lu = local_of[static_cast<std::size_t>(u)];
            const VertexId lv = local_of[static_cast<std::size_t>(v)];
            if (lu != kInvalidVertex && lv != kInvalidVertex)
                kept.emplace_back(lu, lv);
        }
        return kept;
    };
    GraphDelta d;
    d.added_ = restrict(added_);
    d.removed_ = restrict(removed_);
    d.rebuildAffected();
    return d;
}

} // namespace ditile::graph
