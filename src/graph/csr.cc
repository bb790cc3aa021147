/**
 * @file
 * CSR construction and queries.
 */

#include "graph/csr.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ditile::graph {

Csr::Csr(VertexId num_vertices)
    : numVertices_(num_vertices),
      rowPtr_(static_cast<std::size_t>(num_vertices) + 1, 0)
{
    DITILE_ASSERT(num_vertices >= 0);
}

namespace {

/**
 * Sort edges by (first, second) in O(E + V): one stable counting pass
 * on the second endpoint, then one on the first (an LSD radix sort
 * over vertex ids). Both endpoints must lie in [0, num_vertices).
 */
void
sortEdges(VertexId num_vertices, std::vector<Edge> &edges)
{
    std::vector<Edge> tmp(edges.size());
    std::vector<std::size_t> start(
        static_cast<std::size_t>(num_vertices) + 1);
    auto pass = [&start](const std::vector<Edge> &from,
                         std::vector<Edge> &to, auto key) {
        std::fill(start.begin(), start.end(), 0);
        for (const Edge &e : from)
            ++start[static_cast<std::size_t>(key(e)) + 1];
        for (std::size_t v = 1; v < start.size(); ++v)
            start[v] += start[v - 1];
        for (const Edge &e : from)
            to[start[static_cast<std::size_t>(key(e))]++] = e;
    };
    pass(edges, tmp, [](const Edge &e) { return e.second; });
    pass(tmp, edges, [](const Edge &e) { return e.first; });
}

} // namespace

Csr
Csr::fromEdges(VertexId num_vertices, const std::vector<Edge> &edges)
{
    Csr g(num_vertices);

    // Canonicalize, drop self loops, sort, and de-duplicate.
    std::vector<Edge> canon;
    canon.reserve(edges.size());
    for (auto [u, v] : edges) {
        DITILE_ASSERT(u >= 0 && u < num_vertices &&
                      v >= 0 && v < num_vertices,
                      "edge (", u, ",", v, ") out of range [0,",
                      num_vertices, ")");
        if (u == v)
            continue;
        if (u > v)
            std::swap(u, v);
        canon.emplace_back(u, v);
    }
    sortEdges(num_vertices, canon);
    canon.erase(std::unique(canon.begin(), canon.end()), canon.end());

    // Count symmetric degrees, then fill.
    std::vector<EdgeId> degree(static_cast<std::size_t>(num_vertices), 0);
    for (auto [u, v] : canon) {
        ++degree[u];
        ++degree[v];
    }
    for (VertexId v = 0; v < num_vertices; ++v)
        g.rowPtr_[v + 1] = g.rowPtr_[v] + degree[v];
    g.adj_.resize(static_cast<std::size_t>(g.rowPtr_[num_vertices]));

    std::vector<EdgeId> cursor(g.rowPtr_.begin(), g.rowPtr_.end() - 1);
    for (auto [u, v] : canon) {
        g.adj_[static_cast<std::size_t>(cursor[u]++)] = v;
        g.adj_[static_cast<std::size_t>(cursor[v]++)] = u;
    }
    // Adjacency lists are sorted because canon was sorted by (u,v) and we
    // append v's in ascending order for each u; the reverse entries also
    // arrive in ascending source order. Verify cheaply in debug runs.
    return g;
}

namespace {

/** Both directions of each edge, sorted by (source, target). */
std::vector<Edge>
directedSorted(VertexId num_vertices, const std::vector<Edge> &edges)
{
    std::vector<Edge> out;
    out.reserve(2 * edges.size());
    for (auto [u, v] : edges) {
        DITILE_ASSERT(u >= 0 && u < num_vertices &&
                      v >= 0 && v < num_vertices && u != v,
                      "delta edge (", u, ",", v, ") is a self loop or "
                      "out of range [0,", num_vertices, ")");
        out.emplace_back(u, v);
        out.emplace_back(v, u);
    }
    sortEdges(num_vertices, out);
    return out;
}

} // namespace

Csr
Csr::patched(const Csr &prev, const std::vector<Edge> &added,
             const std::vector<Edge> &removed)
{
    const VertexId n = prev.numVertices_;
    const std::vector<Edge> add = directedSorted(n, added);
    const std::vector<Edge> rem = directedSorted(n, removed);

    Csr g(n);
    g.adj_.reserve(prev.adj_.size() + add.size());
    std::size_t ai = 0;
    std::size_t ri = 0;
    for (VertexId v = 0; v < n; ++v) {
        const auto nbrs = prev.neighbors(v);
        const bool changed = (ai < add.size() && add[ai].first == v) ||
                             (ri < rem.size() && rem[ri].first == v);
        if (!changed) {
            g.adj_.insert(g.adj_.end(), nbrs.begin(), nbrs.end());
            g.rowPtr_[v + 1] = static_cast<EdgeId>(g.adj_.size());
            continue;
        }
        // Copy prev's row, dropping the removed targets (sorted, so
        // they are met in order) and slotting in the added ones.
        auto keep = [&](VertexId w) {
            if (ri < rem.size() && rem[ri] == Edge{v, w})
                ++ri;
            else
                g.adj_.push_back(w);
        };
        auto it = nbrs.begin();
        for (; ai < add.size() && add[ai].first == v; ++ai) {
            const VertexId w = add[ai].second;
            DITILE_ASSERT(ai == 0 || add[ai - 1] != add[ai],
                          "edge (", v, ",", w, ") added twice");
            for (; it != nbrs.end() && *it < w; ++it)
                keep(*it);
            DITILE_ASSERT(it == nbrs.end() || *it != w, "added edge (",
                          v, ",", w, ") is already in the graph");
            g.adj_.push_back(w);
        }
        for (; it != nbrs.end(); ++it)
            keep(*it);
        DITILE_ASSERT(ri == rem.size() || rem[ri].first != v,
                      "removed edge (", v, ",", rem[ri].second,
                      ") is not in the graph");
        g.rowPtr_[v + 1] = static_cast<EdgeId>(g.adj_.size());
    }
    return g;
}

bool
Csr::hasEdge(VertexId u, VertexId v) const
{
    if (u < 0 || u >= numVertices_ || v < 0 || v >= numVertices_)
        return false;
    auto nbrs = neighbors(u);
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge>
Csr::edgeList() const
{
    std::vector<Edge> edges;
    edges.reserve(static_cast<std::size_t>(numEdges()));
    for (VertexId u = 0; u < numVertices_; ++u)
        for (VertexId v : neighbors(u))
            if (u < v)
                edges.emplace_back(u, v);
    return edges;
}

double
Csr::avgDegree() const
{
    if (numVertices_ == 0)
        return 0.0;
    return static_cast<double>(numAdjacencies()) /
           static_cast<double>(numVertices_);
}

VertexId
Csr::maxDegree() const
{
    VertexId best = 0;
    for (VertexId v = 0; v < numVertices_; ++v)
        best = std::max(best, degree(v));
    return best;
}

Csr
Csr::induced(const std::vector<VertexId> &local_of) const
{
    DITILE_ASSERT(local_of.size() ==
                  static_cast<std::size_t>(numVertices_),
                  "induced subgraph needs one local id per vertex");
    VertexId kept = 0;
    for (const VertexId l : local_of) {
        if (l == kInvalidVertex)
            continue;
        DITILE_ASSERT(l == kept, "local ids must number the kept "
                      "vertices in ascending order");
        ++kept;
    }
    Csr g(kept);
    for (VertexId v = 0; v < numVertices_; ++v) {
        const VertexId lv = local_of[static_cast<std::size_t>(v)];
        if (lv == kInvalidVertex)
            continue;
        for (const VertexId u : neighbors(v)) {
            const VertexId lu = local_of[static_cast<std::size_t>(u)];
            if (lu != kInvalidVertex)
                g.adj_.push_back(lu);
        }
        g.rowPtr_[lv + 1] = static_cast<EdgeId>(g.adj_.size());
    }
    return g;
}

} // namespace ditile::graph
