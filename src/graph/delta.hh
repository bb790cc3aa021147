/**
 * @file
 * Snapshot-to-snapshot change record (the "O" of a dynamic graph).
 *
 * A GraphDelta lists the undirected edges added and removed between two
 * consecutive snapshots and derives the affected-vertex set — the
 * quantity that drives every redundancy-elimination algorithm in the
 * paper (Re-Alg recomputes everything; Race/Mega/DiTile restrict work to
 * neighborhoods of affected vertices).
 */

#ifndef DITILE_GRAPH_DELTA_HH
#define DITILE_GRAPH_DELTA_HH

#include <vector>

#include "common/types.hh"
#include "graph/csr.hh"

namespace ditile::graph {

/**
 * Edge-level difference between two snapshots of equal vertex count.
 */
class GraphDelta
{
  public:
    GraphDelta() = default;

    /** Compute the exact delta between prev and next. */
    static GraphDelta diff(const Csr &prev, const Csr &next);

    const std::vector<Edge> &addedEdges() const { return added_; }
    const std::vector<Edge> &removedEdges() const { return removed_; }

    /**
     * Vertices incident to any changed edge, sorted ascending.
     * These are the "dissimilar" vertices of the paper.
     */
    const std::vector<VertexId> &affectedVertices() const
    {
        return affected_;
    }

    /** Fraction of vertices affected: the paper's dissimilarity rate. */
    double dissimilarity(VertexId num_vertices) const;

    /** Total changed edges (additions + removals). */
    std::size_t numChanges() const
    {
        return added_.size() + removed_.size();
    }

    /**
     * The changes among the vertices v with local_of[v] !=
     * kInvalidVertex, renumbered to local_of[v] (ids ascending with v,
     * as Csr::induced takes them). The renumbering keeps the lists
     * sorted and canonical, so the restriction of an exact delta
     * equals diff() of the two induced snapshots, at O(changes).
     */
    GraphDelta induced(const std::vector<VertexId> &local_of) const;

    /** Build directly from change lists (generator fast path). */
    static GraphDelta fromChanges(std::vector<Edge> added,
                                  std::vector<Edge> removed);

  private:
    void rebuildAffected();

    std::vector<Edge> added_;
    std::vector<Edge> removed_;
    std::vector<VertexId> affected_;
};

/**
 * Expand a seed vertex set by `hops` BFS levels on a snapshot.
 *
 * Returns the union of the seeds and all vertices within `hops` edges of
 * a seed, sorted ascending. This is the L-layer affected-set expansion
 * that incremental DGNN algorithms use: a changed vertex invalidates the
 * layer-l features of everything within l hops.
 */
std::vector<VertexId> expandFrontier(const Csr &g,
                                     const std::vector<VertexId> &seeds,
                                     int hops);

/**
 * Per-level variant of expandFrontier for incremental re-evaluation.
 *
 * Returns hops+1 levels: levels[0] is the deduplicated seed set and
 * levels[k] holds the vertices first reached at BFS distance k from a
 * seed, each sorted ascending. The union of levels[0..h] is exactly
 * the set whose h+1-hop walk counts can differ after the change that
 * produced the seeds, which is what digest patching iterates.
 *
 * The walk stops as soon as more than `reach_cap` vertices are
 * reached: the levels are then incomplete, and their total size
 * exceeds the cap, which is all a caller deciding "is the reach small
 * enough to patch?" needs.
 */
std::vector<std::vector<VertexId>>
expandFrontierLevels(const Csr &g, const std::vector<VertexId> &seeds,
                     int hops,
                     std::size_t reach_cap = static_cast<std::size_t>(-1));

} // namespace ditile::graph

#endif // DITILE_GRAPH_DELTA_HH
