/**
 * @file
 * SnapshotDigest layer: delta-incremental per-snapshot workload
 * summaries, content-addressed and shared across consumers.
 *
 * Three places used to walk every GCN layer x vertex x neighbor from
 * scratch for every snapshot — the Algorithm-2 balancer
 * (workload::computeVertexLoads, once per ablation variant), the
 * engine's Stage-1 full-recompute evaluation, and the fault-injection
 * pre-pass — O(L*E*T) work each, repeated per accelerator. Yet
 * consecutive snapshots differ only by a GraphDelta, so everything
 * those passes derive can be patched from snapshot t-1's summary in
 * O(L*Delta) and shared through a content-addressed cache:
 *
 *   - LoadDigest: per-snapshot Eq.-17 per-vertex MAC loads (and their
 *     over-snapshots total), bit-identical to
 *     workload::computeSnapshotLoads on every snapshot;
 *   - PartitionDigest: per-slot vertex counts and, per snapshot, the
 *     per-slot degree sums and the dense slot x slot cross-owner
 *     adjacency matrix behind the spatial gather traffic. It covers
 *     only snapshots [0, N) for the N its requester names: the engine
 *     reads rows on full-recompute snapshots alone, which for the
 *     incremental accelerators is snapshot 0.
 *
 * Both digests are exact — integer counters patch exactly, and the
 * float walk arrays are re-summed per changed vertex in the same CSR
 * order the scratch pass uses — so consumers produce byte-identical
 * results whether the digest or the scratch path computed the data.
 */

#ifndef DITILE_WORKLOAD_DIGEST_HH
#define DITILE_WORKLOAD_DIGEST_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/content_cache.hh"
#include "graph/dynamic_graph.hh"
#include "workload/slot_arrays.hh"

namespace ditile::workload {

/**
 * Global digest gate, on by default; tests turn it off to compare the
 * digest path with the scratch path.
 */
bool digestEnabled();
void setDigestEnabled(bool enabled);

/** One snapshot's per-vertex loads, shared by every digest holding it. */
using SnapshotLoads = std::shared_ptr<const std::vector<double>>;

/**
 * Per-snapshot Eq.-17 workload loads for a whole dynamic graph.
 * *snapshotLoads[t] is bit-identical to
 * computeSnapshotLoads(dg.snapshot(t), gcnLayers); totalLoads is their
 * ascending-t sum (bit-identical to computeVertexLoads).
 */
struct LoadDigest
{
    int gcnLayers = 0;
    std::vector<SnapshotLoads> snapshotLoads; ///< [T] -> [V]
    std::vector<double> totalLoads;           ///< [V]

    /** Construction accounting: how each computed snapshot was
     *  produced. A snapshot served by DigestCache's per-snapshot memo
     *  counts in neither. */
    std::uint64_t incrementalSnapshots = 0;
    std::uint64_t scratchSnapshots = 0;
};

/** Coverage that asks a PartitionDigest for every snapshot. */
inline constexpr SnapshotId kAllSnapshots =
    std::numeric_limits<SnapshotId>::max();

/**
 * Per-snapshot, per-partition summary of the quantities the engine's
 * full-recompute fast path needs, for the covered snapshots [0,
 * covered()). All counters are integers, patched exactly from the
 * GraphDelta edge lists, so row t does not depend on the coverage.
 *
 * Backed by a flat SlotArrays store (one contiguous plane per
 * counter family) so consumers read unit-stride rows; the accessors
 * below are the stable surface.
 */
struct PartitionDigest
{
    int slots = 0;

    /** Flat SoA planes; prefer the row accessors below. */
    SlotArrays arrays;

    std::uint64_t incrementalSnapshots = 0;
    std::uint64_t scratchSnapshots = 0;

    /** Snapshots [0, covered()) have rows; others assert. */
    SnapshotId covered() const { return arrays.snapshots; }

    /** Vertices owned by each slot (static across snapshots). */
    std::span<const std::uint64_t>
    slotVertexCount() const
    {
        return arrays.slotVertexCount;
    }

    /** Sum of snapshot-t degrees over each slot's vertices. */
    std::span<const std::uint64_t>
    slotDegreeSum(SnapshotId t) const
    {
        return arrays.degreeSumRow(t);
    }

    /**
     * Directed cross-owner adjacency counts: crossRow(t)[s*S+d] is
     * the number of adjacency entries (center v, neighbor u) of
     * snapshot t with owner(u)=s, owner(v)=d, s != d — i.e. the
     * gather-message multiplicity from slot s to slot d.
     */
    std::span<const std::uint64_t>
    crossRow(SnapshotId t) const
    {
        return arrays.crossRow(t);
    }
};

/**
 * Build a LoadDigest, patching snapshot t from t-1 where profitable.
 * Cache-free: the oracle for DigestCache::loads.
 */
LoadDigest buildLoadDigest(const graph::DynamicGraph &dg,
                           int gcn_layers);

/**
 * Build a PartitionDigest for a vertex->slot assignment covering
 * snapshots [0, min(covered, T)). owners must assign every vertex to
 * [0, slots). Cache-free: the oracle for DigestCache::partition.
 */
PartitionDigest buildPartitionDigest(const graph::DynamicGraph &dg,
                                     const std::vector<int> &owners,
                                     int slots,
                                     SnapshotId covered = kAllSnapshots);

/** Content key of a LoadDigest: graph structure + layer count. */
std::uint64_t loadDigestKey(const graph::DynamicGraph &dg,
                            int gcn_layers);

/** Content key of a PartitionDigest: graph structure + assignment. */
std::uint64_t partitionDigestKey(const graph::DynamicGraph &dg,
                                 const std::vector<int> &owners,
                                 int slots);

/**
 * Content-addressed digest cache, the workload-layer sibling of
 * sim::PlanCache: sweep variants, the balancer and the engine share
 * one digest per (graph, layers) / (graph, partition) input set,
 * under the shared policy of common/content_cache.hh (unbounded).
 *
 * Below the load-digest map sits a silent per-snapshot memo keyed on
 * (layers, DynamicGraph::snapshotKey): a load-digest miss takes every
 * snapshot it already holds (one another graph shares — a sweep
 * point's seed, a T=8 graph's snapshots inside the T=16 graph, a
 * rolled window's kept snapshots) and computes only the rest. Its
 * arrays are the ones the digests hold, so it adds only its index
 * while those digests are resident; an LRU bound of
 * kSnapshotLoadsMemoEntries caps what it can pin alone.
 *
 * A partition lookup names its coverage. When the published digest
 * covers fewer snapshots (ReaDy's T rows after RACE's one), the
 * lookup still counts as a hit, and ContentCache rebuilds the digest
 * at the larger coverage and republishes it under the same key.
 */
class DigestCache
{
  public:
    /** Per-snapshot memo bound, in snapshots. */
    static constexpr std::size_t kSnapshotLoadsMemoEntries = 256;

    DigestCache() { snapshotLoads_.setCapacity(kSnapshotLoadsMemoEntries); }

    std::shared_ptr<const LoadDigest>
    loads(const graph::DynamicGraph &dg, int gcn_layers);

    std::shared_ptr<const PartitionDigest>
    partition(const graph::DynamicGraph &dg,
              const std::vector<int> &owners, int slots,
              SnapshotId covered = kAllSnapshots);

    /** Counters and entries summed over both digest kinds. */
    std::uint64_t hits() const { return loads_.hits() + partitions_.hits(); }
    std::uint64_t
    misses() const
    {
        return loads_.misses() + partitions_.misses();
    }
    std::size_t size() const { return loads_.size() + partitions_.size(); }

    /** Drop both digest maps and the per-snapshot memo. */
    void
    clear()
    {
        loads_.clear();
        partitions_.clear();
        snapshotLoads_.clear();
    }

    /** Process-wide instance shared by balancer, engine and tools. */
    static DigestCache &global();

  private:
    ContentCache<std::uint64_t, std::shared_ptr<const LoadDigest>>
        loads_{"digest-loads", "digest_loads"};
    ContentCache<std::uint64_t, std::shared_ptr<const PartitionDigest>>
        partitions_{"digest-partition", "digest_partition"};
    ContentCache<std::uint64_t, SnapshotLoads> snapshotLoads_;
};

} // namespace ditile::workload

#endif // DITILE_WORKLOAD_DIGEST_HH
