/**
 * @file
 * SlotArrays: flat structure-of-arrays backing store for the per-slot
 * workload summaries (ROADMAP item 5's SoA rework).
 *
 * The PartitionDigest used to hold vector<vector<...>> per-snapshot
 * rows; every consumer walked them through two indirections and every
 * patch step re-allocated rows. SlotArrays keeps the same counters as
 * two contiguous planes plus the static per-slot census:
 *
 *       slotVertexCount   [S]            (static across snapshots)
 *       degreeSum         [N * S]        row t = snapshot t
 *       cross             [N * S * S]    row-major (src, dst) per t
 *
 * where N is the number of covered snapshots, [0, N): a digest holds
 * only the rows its requester reads. A snapshot's row is one pointer
 * + length, patch steps are one memcpy + delta walk, and the row
 * accessors assert that t is covered. The scratch kernels below
 * iterate the CSR
 * arrays directly (unit-stride over adjacency, accumulate-then-merge)
 * instead of constructing per-vertex spans.
 *
 * The companion edge→owner index materializes owner(adj[e]) for every
 * adjacency entry once per (snapshot, assignment): the CSR-style
 * "edge→slot" array that turns the cross-owner counting loop into a
 * branch-free scatter-increment over a dense int32 array. All
 * counters are integers, so every kernel here is bit-identical to the
 * retired map-of-struct walks by construction.
 */

#ifndef DITILE_WORKLOAD_SLOT_ARRAYS_HH
#define DITILE_WORKLOAD_SLOT_ARRAYS_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "graph/csr.hh"

namespace ditile::workload {

/** Flat SoA planes for per-slot, per-snapshot workload counters. */
struct SlotArrays
{
    int slots = 0;
    SnapshotId snapshots = 0; ///< Covered snapshots: rows [0, N).

    std::vector<std::uint64_t> slotVertexCount; ///< [S]
    std::vector<std::uint64_t> degreeSum;       ///< [N*S]
    std::vector<std::uint64_t> cross;           ///< [N*S*S]

    /** Dimension and zero every plane for N snapshots x S slots. */
    void resize(SnapshotId snapshot_count, int slot_count);

    std::span<const std::uint64_t>
    degreeSumRow(SnapshotId t) const
    {
        const auto s = static_cast<std::size_t>(slots);
        return {degreeSum.data() + rowIndex(t) * s, s};
    }

    std::span<const std::uint64_t>
    crossRow(SnapshotId t) const
    {
        const auto ss = static_cast<std::size_t>(slots) *
            static_cast<std::size_t>(slots);
        return {cross.data() + rowIndex(t) * ss, ss};
    }

    std::uint64_t *
    degreeSumRowMut(SnapshotId t)
    {
        return degreeSum.data() +
            rowIndex(t) * static_cast<std::size_t>(slots);
    }

    std::uint64_t *
    crossRowMut(SnapshotId t)
    {
        return cross.data() + rowIndex(t) *
            static_cast<std::size_t>(slots) *
            static_cast<std::size_t>(slots);
    }

  private:
    std::size_t
    rowIndex(SnapshotId t) const
    {
        DITILE_ASSERT(t >= 0 && t < snapshots,
                      "snapshot row outside the digest's coverage");
        return static_cast<std::size_t>(t);
    }
};

/**
 * Materialize the edge→owner index: edge_owner[e] = owners[adj[e]]
 * for every stored adjacency entry e of g. One unit-stride gather
 * pass; the output array is indexed by the same CSR edge positions as
 * g.adjacency().
 */
void buildEdgeOwnerIndex(const graph::Csr &g,
                         const std::vector<int> &owners,
                         std::vector<std::int32_t> &edge_owner);

/**
 * Scratch slot-census kernel over one snapshot: per-slot degree sums
 * and the directed cross-owner adjacency counts (cross[src*S+dst] =
 * entries (center v, neighbor u) with owner(u)=src, owner(v)=dst,
 * src != dst). Counts every adjacency entry unconditionally into the
 * dense matrix, then zeroes the diagonal — same final state as the
 * retired branchy walk, with no branch in the inner loop.
 *
 * deg_sum must have S entries and cross S*S; both are overwritten.
 */
void countSlotEdges(const graph::Csr &g, const std::vector<int> &owners,
                    const std::int32_t *edge_owner, int slots,
                    std::uint64_t *deg_sum, std::uint64_t *cross);

} // namespace ditile::workload

#endif // DITILE_WORKLOAD_SLOT_ARRAYS_HH
