/**
 * @file
 * DGC-style snapshot×vertex chunk partitioner for multi-chip
 * scale-out.
 *
 * The vertex universe is cut into contiguous chunks (several per
 * chip), a PartitionDigest over the chunks counts per-chunk degree
 * mass and cross-chunk adjacency per snapshot (each snapshot after the
 * first patched from its delta, unless the delta is large), and a
 * deterministic greedy placement assigns chunks to chips:
 * longest-processing-time first for load balance, then a bounded
 * refinement sweep that moves chunks only when the move strictly
 * reduces modeled cross-chip adjacency without breaking the balance
 * slack. Chunks — not single vertices — are the
 * placement granularity, exactly DGC's argument: the spatio-temporal
 * load varies per (snapshot, region), so the census integrates degree
 * mass over every snapshot before placing anything.
 *
 * Everything here is integer counting plus a fixed-order greedy, so
 * the assignment is a pure function of the graph and the chip count —
 * bit-identical at any --threads width, safe to record in plan JSON.
 */

#ifndef DITILE_WORKLOAD_CHUNK_PARTITION_HH
#define DITILE_WORKLOAD_CHUNK_PARTITION_HH

#include <cstdint>
#include <vector>

#include "graph/dynamic_graph.hh"

namespace ditile::workload {

/**
 * Chunk→chip assignment plus the loads it was balanced on. The
 * cross-chip census under the assignment is the scale-out run's
 * `scaleout.cross_adjacencies` stat.
 */
struct ChunkPartition
{
    int chips = 1;
    int chunks = 0;

    /** Vertices per chunk (contiguous: chunk of v is v / chunkSpan). */
    VertexId chunkSpan = 1;

    /** Chunk -> owning chip, size `chunks`. */
    std::vector<int> chipOfChunk;

    /**
     * Per-chunk modeled load: degree mass summed over every snapshot
     * plus one RNN unit per vertex per snapshot.
     */
    std::vector<std::uint64_t> chunkLoad;

    /** Per-chip load under the final assignment, size `chips`. */
    std::vector<std::uint64_t> chipLoad;

    int
    chipOfVertex(VertexId v) const
    {
        return chipOfChunk[static_cast<std::size_t>(v / chunkSpan)];
    }

    /** Max chip load / mean chip load (1.0 = perfectly balanced). */
    double imbalance() const;
};

/**
 * Build the chunk census with workload::buildPartitionDigest and place
 * chunks on `chips` chips, eight chunks per chip where the vertex
 * count allows, with a 10% balance slack for refinement. Throws
 * InputError when chips < 1 or the graph has fewer vertices than
 * chips (a chip would be empty).
 */
ChunkPartition buildChunkPartition(const graph::DynamicGraph &dg,
                                   int chips);

} // namespace ditile::workload

#endif // DITILE_WORKLOAD_CHUNK_PARTITION_HH
