/**
 * @file
 * SlotArrays scratch kernels.
 *
 * The kernels iterate the CSR bulk arrays (rowPtr / adjacency)
 * directly: the only per-element work left in the inner loops is a
 * gather (owners[adj[e]]) or a scatter-increment (cross[idx]++), both
 * branch-free. The former vectorizes as a gather where the target
 * supports it; the latter is inherently serial per element but runs
 * on a dense array with no hash probe and no conditional, which is
 * what the flat layout buys.
 */

#include "workload/slot_arrays.hh"

#include <cstring>

namespace ditile::workload {

void
SlotArrays::resize(SnapshotId snapshot_count, int slot_count)
{
    slots = slot_count;
    snapshots = snapshot_count;
    const auto t = static_cast<std::size_t>(snapshot_count);
    const auto s = static_cast<std::size_t>(slot_count);
    slotVertexCount.assign(s, 0);
    degreeSum.assign(t * s, 0);
    cross.assign(t * s * s, 0);
}

void
buildEdgeOwnerIndex(const graph::Csr &g, const std::vector<int> &owners,
                    std::vector<std::int32_t> &edge_owner)
{
    const std::vector<VertexId> &adj = g.adjacency();
    const std::size_t m = adj.size();
    edge_owner.resize(m);
    const VertexId *__restrict a = adj.data();
    const int *__restrict own = owners.data();
    std::int32_t *__restrict out = edge_owner.data();
    for (std::size_t e = 0; e < m; ++e)
        out[e] = static_cast<std::int32_t>(
            own[static_cast<std::size_t>(a[e])]);
}

void
countSlotEdges(const graph::Csr &g, const std::vector<int> &owners,
               const std::int32_t *edge_owner, int slots,
               std::uint64_t *deg_sum, std::uint64_t *cross)
{
    const auto s_slots = static_cast<std::size_t>(slots);
    std::memset(deg_sum, 0, s_slots * sizeof(std::uint64_t));
    std::memset(cross, 0, s_slots * s_slots * sizeof(std::uint64_t));

    const std::vector<EdgeId> &row_ptr = g.rowPtr();
    const EdgeId *__restrict rp = row_ptr.data();
    const int *__restrict own = owners.data();
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        const auto ov = static_cast<std::size_t>(
            own[static_cast<std::size_t>(v)]);
        const EdgeId begin = rp[v];
        const EdgeId end = rp[v + 1];
        deg_sum[ov] += static_cast<std::uint64_t>(end - begin);
        // Accumulate every entry — diagonal included — so the loop
        // carries no compare; the diagonal is discarded below.
        for (EdgeId e = begin; e < end; ++e) {
            ++cross[static_cast<std::size_t>(
                        edge_owner[static_cast<std::size_t>(e)]) *
                        s_slots +
                    ov];
        }
    }
    for (std::size_t d = 0; d < s_slots; ++d)
        cross[d * s_slots + d] = 0;
}

} // namespace ditile::workload
