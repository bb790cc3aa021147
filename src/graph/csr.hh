/**
 * @file
 * Compressed-sparse-row static graph used for every snapshot.
 *
 * Snapshots are undirected graphs stored in symmetric CSR form: each
 * undirected edge {u,v} contributes adjacency entries (u,v) and (v,u).
 * numEdges() counts undirected edges; numAdjacencies() counts stored
 * entries (2x numEdges for simple graphs without self loops).
 */

#ifndef DITILE_GRAPH_CSR_HH
#define DITILE_GRAPH_CSR_HH

#include <span>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace ditile::graph {

/** One undirected edge as an ordered pair (u <= v is canonical form). */
using Edge = std::pair<VertexId, VertexId>;

/**
 * Pack an undirected edge into one 64-bit key (smaller id in the high
 * half), so {u,v} and {v,u} share a key. Edge-set membership in the
 * generators and the event replay hashes these keys.
 */
inline std::uint64_t
edgeKey(VertexId u, VertexId v)
{
    if (u > v)
        std::swap(u, v);
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u))
            << 32) |
           static_cast<std::uint32_t>(v);
}

/**
 * Immutable symmetric CSR graph.
 */
class Csr
{
  public:
    /** Empty graph with a fixed vertex count. */
    explicit Csr(VertexId num_vertices = 0);

    /**
     * Build from an undirected edge list.
     *
     * Edges are canonicalized (u <= v), de-duplicated, self loops
     * dropped, and stored symmetrically with sorted adjacency lists.
     */
    static Csr fromEdges(VertexId num_vertices,
                         const std::vector<Edge> &edges);

    /**
     * prev with `added` inserted and `removed` deleted, in one merge
     * pass over prev's rows: O(V + E + D) for D changed edges, instead
     * of the full rebuild of fromEdges. Each list names every
     * undirected edge once (as GraphDelta stores them). Fails loudly
     * unless every removed edge is in prev and no added edge is, so the
     * result always equals fromEdges() of the patched edge set.
     */
    static Csr patched(const Csr &prev, const std::vector<Edge> &added,
                       const std::vector<Edge> &removed);

    /**
     * Subgraph induced by the vertices v with local_of[v] !=
     * kInvalidVertex, renumbered to local_of[v], in one walk of the
     * kept rows. The local ids must number the kept vertices 0, 1, 2,
     * ... in ascending v order, so every filtered row stays sorted and
     * the result equals fromEdges() of the renumbered kept edges.
     */
    Csr induced(const std::vector<VertexId> &local_of) const;

    VertexId numVertices() const { return numVertices_; }

    /** Undirected edge count. */
    EdgeId numEdges() const { return static_cast<EdgeId>(adj_.size()) / 2; }

    /** Stored adjacency entries (2x undirected edges). */
    EdgeId numAdjacencies() const
    {
        return static_cast<EdgeId>(adj_.size());
    }

    /** Degree of v (number of neighbors). */
    VertexId degree(VertexId v) const
    {
        return static_cast<VertexId>(rowPtr_[v + 1] - rowPtr_[v]);
    }

    /** Sorted neighbor list of v. */
    std::span<const VertexId>
    neighbors(VertexId v) const
    {
        return {adj_.data() + rowPtr_[v],
                adj_.data() + rowPtr_[v + 1]};
    }

    /** True if {u,v} is an edge (binary search, O(log deg)). */
    bool hasEdge(VertexId u, VertexId v) const;

    /** Canonicalized undirected edge list (u <= v), sorted. */
    std::vector<Edge> edgeList() const;

    /** Average degree over all vertices. */
    double avgDegree() const;

    /** Maximum degree over all vertices. */
    VertexId maxDegree() const;

    /** Row-pointer array (size numVertices + 1), for bulk consumers. */
    const std::vector<EdgeId> &rowPtr() const { return rowPtr_; }

    /** Flattened adjacency array, for bulk consumers. */
    const std::vector<VertexId> &adjacency() const { return adj_; }

  private:
    VertexId numVertices_;
    std::vector<EdgeId> rowPtr_;
    std::vector<VertexId> adj_;
};

} // namespace ditile::graph

#endif // DITILE_GRAPH_CSR_HH
