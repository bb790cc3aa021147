/**
 * @file
 * Discrete-time dynamic graph: DG = {G^1, G^2, ..., G^T} (paper Eq. 1).
 *
 * Owns the snapshot sequence, the per-step deltas, and the feature
 * dimensionality of the vertex inputs. All DGNN algorithms and the
 * accelerator models consume this container.
 *
 * Snapshots are immutable and held shared, so graphs that start from
 * the same snapshot (sweep grid points drawn from one seed, rolled
 * serve windows) hold one copy of it. Each snapshot also carries a
 * content key, and each prefix a chained key, so snapshot-local
 * results can be shared across graphs (see DESIGN.md, "Caches").
 */

#ifndef DITILE_GRAPH_DYNAMIC_GRAPH_HH
#define DITILE_GRAPH_DYNAMIC_GRAPH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "graph/csr.hh"
#include "graph/delta.hh"

namespace ditile::graph {

/**
 * Sequence of snapshots over a fixed vertex universe plus deltas.
 */
class DynamicGraph
{
  public:
    DynamicGraph() = default;

    /**
     * Build from a snapshot sequence; deltas are derived automatically.
     *
     * @param name Human-readable workload name for reports.
     * @param snapshots At least one snapshot; all with equal numVertices.
     * @param feature_dim Input feature vector width per vertex.
     */
    DynamicGraph(std::string name, std::vector<Csr> snapshots,
                 int feature_dim);

    /**
     * Fast path: snapshots plus precomputed deltas (generators know the
     * changes they made, so re-diffing would be wasted work).
     * deltas.size() must equal snapshots.size() - 1.
     */
    DynamicGraph(std::string name, std::vector<Csr> snapshots,
                 std::vector<GraphDelta> deltas, int feature_dim);

    /** As above, over snapshots shared with other graphs. */
    DynamicGraph(std::string name,
                 std::vector<std::shared_ptr<const Csr>> snapshots,
                 std::vector<GraphDelta> deltas, int feature_dim);

    const std::string &name() const { return name_; }

    /** Number of snapshots T. */
    SnapshotId numSnapshots() const
    {
        return static_cast<SnapshotId>(snapshots_.size());
    }

    /** Shared vertex-universe size. */
    VertexId numVertices() const
    {
        return snapshots_.empty() ? 0 : snapshots_.front()->numVertices();
    }

    int featureDim() const { return featureDim_; }

    const Csr &snapshot(SnapshotId t) const;

    /** Snapshot t as held, for building other graphs that share it. */
    const std::shared_ptr<const Csr> &sharedSnapshot(SnapshotId t) const;

    /** Delta from snapshot t-1 to snapshot t (t in [1, T)). */
    const GraphDelta &delta(SnapshotId t) const;

    /** Mean undirected edge count across snapshots. */
    double avgEdges() const;

    /** Max undirected edge count across snapshots. */
    EdgeId maxEdges() const;

    /**
     * Mean dissimilarity rate across consecutive snapshot pairs
     * (the paper's "Dis"; 0 for single-snapshot graphs).
     */
    double avgDissimilarity() const;

    /** Dissimilarity of the step into snapshot t (t in [1, T)). */
    double dissimilarity(SnapshotId t) const;

    /** Cached structure hash (see structureHash() below). */
    std::uint64_t structureHashValue() const { return structureHash_; }

    /**
     * Content key of snapshot t alone: FNV-1a over its vertex count,
     * edge count and every adjacency list. Equal keys identify equal
     * snapshots in any graph, at any position.
     */
    std::uint64_t snapshotKey(SnapshotId t) const;

    /**
     * Chained key of snapshots 0..t: equal prefix keys identify graphs
     * whose first t+1 snapshots are equal (and so are their deltas).
     * Independent of the name, the feature width and of T.
     */
    std::uint64_t prefixKey(SnapshotId t) const;

  private:
    /** One walk over every snapshot (ctor-time): the structure hash,
     *  each snapshot's key and the chained prefix keys. */
    void computeKeys();

    std::string name_;
    std::vector<std::shared_ptr<const Csr>> snapshots_;
    std::vector<GraphDelta> deltas_;
    int featureDim_ = 0;
    std::uint64_t structureHash_ = 0;
    std::vector<std::uint64_t> snapshotKeys_; ///< [T]
    std::vector<std::uint64_t> prefixKeys_;   ///< [T]
};

/**
 * FNV-1a content hash of the graph structure: vertex universe,
 * feature width, snapshot count and every adjacency list of every
 * snapshot. Equal hashes identify structurally identical workloads
 * across separately constructed DynamicGraph instances, which is what
 * the plan cache and the workload-digest cache key on. Snapshots are
 * immutable after construction, so the walk runs once in the ctor and
 * this lookup is O(1) — it sits on every cache-key path.
 */
std::uint64_t structureHash(const DynamicGraph &dg);

} // namespace ditile::graph

#endif // DITILE_GRAPH_DYNAMIC_GRAPH_HH
