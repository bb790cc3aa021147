/**
 * @file
 * DynamicGraph implementation.
 */

#include "graph/dynamic_graph.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/logging.hh"

namespace ditile::graph {

DynamicGraph::DynamicGraph(std::string name, std::vector<Csr> snapshots,
                           int feature_dim)
    : name_(std::move(name)), snapshots_(std::move(snapshots)),
      featureDim_(feature_dim)
{
    DITILE_ASSERT(!snapshots_.empty(), "need at least one snapshot");
    DITILE_ASSERT(featureDim_ > 0, "feature dim must be positive");
    for (const auto &s : snapshots_) {
        DITILE_ASSERT(s.numVertices() == snapshots_.front().numVertices(),
                      "snapshots must share a vertex universe");
    }
    deltas_.reserve(snapshots_.size() - 1);
    for (std::size_t t = 1; t < snapshots_.size(); ++t)
        deltas_.push_back(GraphDelta::diff(snapshots_[t - 1],
                                           snapshots_[t]));
    structureHash_ = computeStructureHash();
}

DynamicGraph::DynamicGraph(std::string name, std::vector<Csr> snapshots,
                           std::vector<GraphDelta> deltas, int feature_dim)
    : name_(std::move(name)), snapshots_(std::move(snapshots)),
      deltas_(std::move(deltas)), featureDim_(feature_dim)
{
    DITILE_ASSERT(!snapshots_.empty(), "need at least one snapshot");
    DITILE_ASSERT(featureDim_ > 0, "feature dim must be positive");
    DITILE_ASSERT(deltas_.size() + 1 == snapshots_.size(),
                  "need exactly T-1 deltas for T snapshots");
    structureHash_ = computeStructureHash();
}

const Csr &
DynamicGraph::snapshot(SnapshotId t) const
{
    DITILE_ASSERT(t >= 0 && t < numSnapshots(), "snapshot ", t,
                  " out of range");
    return snapshots_[static_cast<std::size_t>(t)];
}

const GraphDelta &
DynamicGraph::delta(SnapshotId t) const
{
    DITILE_ASSERT(t >= 1 && t < numSnapshots(), "delta ", t,
                  " out of range");
    return deltas_[static_cast<std::size_t>(t) - 1];
}

double
DynamicGraph::avgEdges() const
{
    if (snapshots_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &s : snapshots_)
        sum += static_cast<double>(s.numEdges());
    return sum / static_cast<double>(snapshots_.size());
}

EdgeId
DynamicGraph::maxEdges() const
{
    EdgeId best = 0;
    for (const auto &s : snapshots_)
        best = std::max(best, s.numEdges());
    return best;
}

double
DynamicGraph::avgDissimilarity() const
{
    if (deltas_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &d : deltas_)
        sum += d.dissimilarity(numVertices());
    return sum / static_cast<double>(deltas_.size());
}

double
DynamicGraph::dissimilarity(SnapshotId t) const
{
    return delta(t).dissimilarity(numVertices());
}

std::uint64_t
DynamicGraph::computeStructureHash() const
{
    WordHasher hasher;
    hasher.mix(static_cast<std::uint64_t>(numVertices()));
    hasher.mix(static_cast<std::uint64_t>(featureDim()));
    hasher.mix(static_cast<std::uint64_t>(numSnapshots()));
    for (const Csr &g : snapshots_) {
        hasher.mix(static_cast<std::uint64_t>(g.numEdges()));
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            hasher.mix(static_cast<std::uint64_t>(g.degree(v)));
            for (VertexId u : g.neighbors(v))
                hasher.mix(static_cast<std::uint64_t>(u));
        }
    }
    return hasher.h;
}

std::uint64_t
structureHash(const DynamicGraph &dg)
{
    return dg.structureHashValue();
}

} // namespace ditile::graph
