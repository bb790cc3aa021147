/**
 * @file
 * DynamicGraph implementation.
 */

#include "graph/dynamic_graph.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/logging.hh"

namespace ditile::graph {

namespace {

std::vector<std::shared_ptr<const Csr>>
share(std::vector<Csr> snapshots)
{
    std::vector<std::shared_ptr<const Csr>> shared;
    shared.reserve(snapshots.size());
    for (Csr &g : snapshots)
        shared.push_back(std::make_shared<const Csr>(std::move(g)));
    return shared;
}

std::vector<GraphDelta>
diffAll(const std::vector<std::shared_ptr<const Csr>> &snapshots)
{
    std::vector<GraphDelta> deltas;
    for (std::size_t t = 1; t < snapshots.size(); ++t)
        deltas.push_back(GraphDelta::diff(*snapshots[t - 1],
                                          *snapshots[t]));
    return deltas;
}

} // namespace

DynamicGraph::DynamicGraph(std::string name, std::vector<Csr> snapshots,
                           int feature_dim)
    : name_(std::move(name)), snapshots_(share(std::move(snapshots))),
      featureDim_(feature_dim)
{
    DITILE_ASSERT(!snapshots_.empty(), "need at least one snapshot");
    DITILE_ASSERT(featureDim_ > 0, "feature dim must be positive");
    for (const auto &s : snapshots_) {
        DITILE_ASSERT(s->numVertices() == snapshots_.front()->numVertices(),
                      "snapshots must share a vertex universe");
    }
    deltas_ = diffAll(snapshots_);
    computeKeys();
}

DynamicGraph::DynamicGraph(std::string name, std::vector<Csr> snapshots,
                           std::vector<GraphDelta> deltas, int feature_dim)
    : DynamicGraph(std::move(name), share(std::move(snapshots)),
                   std::move(deltas), feature_dim)
{
}

DynamicGraph::DynamicGraph(
    std::string name, std::vector<std::shared_ptr<const Csr>> snapshots,
    std::vector<GraphDelta> deltas, int feature_dim)
    : name_(std::move(name)), snapshots_(std::move(snapshots)),
      deltas_(std::move(deltas)), featureDim_(feature_dim)
{
    DITILE_ASSERT(!snapshots_.empty(), "need at least one snapshot");
    DITILE_ASSERT(featureDim_ > 0, "feature dim must be positive");
    DITILE_ASSERT(deltas_.size() + 1 == snapshots_.size(),
                  "need exactly T-1 deltas for T snapshots");
    computeKeys();
}

const Csr &
DynamicGraph::snapshot(SnapshotId t) const
{
    return *sharedSnapshot(t);
}

const std::shared_ptr<const Csr> &
DynamicGraph::sharedSnapshot(SnapshotId t) const
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
        sum += static_cast<double>(s->numEdges());
    return sum / static_cast<double>(snapshots_.size());
}

EdgeId
DynamicGraph::maxEdges() const
{
    EdgeId best = 0;
    for (const auto &s : snapshots_)
        best = std::max(best, s->numEdges());
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
DynamicGraph::snapshotKey(SnapshotId t) const
{
    DITILE_ASSERT(t >= 0 && t < numSnapshots(), "snapshot ", t,
                  " out of range");
    return snapshotKeys_[static_cast<std::size_t>(t)];
}

std::uint64_t
DynamicGraph::prefixKey(SnapshotId t) const
{
    DITILE_ASSERT(t >= 0 && t < numSnapshots(), "snapshot ", t,
                  " out of range");
    return prefixKeys_[static_cast<std::size_t>(t)];
}

void
DynamicGraph::computeKeys()
{
    // The whole-graph hash walks exactly as it always has (cache keys
    // and checkpointed plan keys depend on its value); each snapshot's
    // key is a second accumulator over the same words.
    WordHasher hasher;
    hasher.mix(static_cast<std::uint64_t>(numVertices()));
    hasher.mix(static_cast<std::uint64_t>(featureDim()));
    hasher.mix(static_cast<std::uint64_t>(numSnapshots()));
    WordHasher prefix;
    snapshotKeys_.clear();
    prefixKeys_.clear();
    snapshotKeys_.reserve(snapshots_.size());
    prefixKeys_.reserve(snapshots_.size());
    for (const auto &snapshot : snapshots_) {
        const Csr &g = *snapshot;
        WordHasher own;
        own.mix(static_cast<std::uint64_t>(g.numVertices()));
        hasher.mix(static_cast<std::uint64_t>(g.numEdges()));
        own.mix(static_cast<std::uint64_t>(g.numEdges()));
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            hasher.mix(static_cast<std::uint64_t>(g.degree(v)));
            own.mix(static_cast<std::uint64_t>(g.degree(v)));
            for (VertexId u : g.neighbors(v)) {
                hasher.mix(static_cast<std::uint64_t>(u));
                own.mix(static_cast<std::uint64_t>(u));
            }
        }
        snapshotKeys_.push_back(own.h);
        prefix.mix(own.h);
        prefixKeys_.push_back(prefix.h);
    }
    structureHash_ = hasher.h;
}

std::uint64_t
structureHash(const DynamicGraph &dg)
{
    return dg.structureHashValue();
}

} // namespace ditile::graph
