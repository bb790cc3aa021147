/**
 * @file
 * Chunk census (a PartitionDigest over the chunks) and deterministic
 * greedy chunk placement.
 */

#include "workload/chunk_partition.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "workload/digest.hh"

namespace ditile::workload {

namespace {

/** Vertex chunks per chip (the placement granularity). */
constexpr VertexId kChunksPerChip = 8;

/**
 * Refinement may not push a chip's load past (1 + kBalanceSlack) x
 * the mean chip load.
 */
constexpr double kBalanceSlack = 0.10;

} // namespace

double
ChunkPartition::imbalance() const
{
    if (chipLoad.empty())
        return 1.0;
    const std::uint64_t total =
        std::accumulate(chipLoad.begin(), chipLoad.end(),
                        std::uint64_t{0});
    if (total == 0)
        return 1.0;
    const std::uint64_t peak =
        *std::max_element(chipLoad.begin(), chipLoad.end());
    const double mean = static_cast<double>(total) /
        static_cast<double>(chipLoad.size());
    return static_cast<double>(peak) / mean;
}

ChunkPartition
buildChunkPartition(const graph::DynamicGraph &dg, int chips)
{
    const VertexId num_vertices = dg.numVertices();
    const SnapshotId num_snapshots = dg.numSnapshots();
    if (chips < 1)
        DITILE_THROW("chip count must be >= 1, got ", chips);
    if (num_vertices < static_cast<VertexId>(chips)) {
        DITILE_THROW("cannot shard ", num_vertices, " vertices over ",
                     chips, " chips: a chip would be empty");
    }

    ChunkPartition cp;
    cp.chips = chips;

    // Contiguous chunking: enough chunks for the placement
    // granularity, never more than one per vertex.
    const VertexId target_chunks = std::min<VertexId>(
        num_vertices, static_cast<VertexId>(chips) * kChunksPerChip);
    cp.chunkSpan = (num_vertices + target_chunks - 1) / target_chunks;
    cp.chunks = static_cast<int>(
        (num_vertices + cp.chunkSpan - 1) / cp.chunkSpan);
    const int slots = cp.chunks;
    const auto slots_sz = static_cast<std::size_t>(slots);

    // ---- Census: per-chunk degree mass and cross-chunk adjacency per
    // snapshot. The partition digest scans snapshot 0 and patches each
    // later snapshot +/-1 per delta edge (exact either way); built
    // directly, not through DigestCache, so no cache entry outlives
    // the placement.
    std::vector<int> owners(static_cast<std::size_t>(num_vertices));
    for (VertexId v = 0; v < num_vertices; ++v)
        owners[static_cast<std::size_t>(v)] =
            static_cast<int>(v / cp.chunkSpan);
    const PartitionDigest census =
        buildPartitionDigest(dg, owners, slots);

    // Per-chunk load: edge mass over every snapshot plus one RNN unit
    // per vertex per snapshot (the per-vertex temporal work).
    cp.chunkLoad.assign(slots_sz, 0);
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        const auto row = census.slotDegreeSum(t);
        for (int s = 0; s < slots; ++s)
            cp.chunkLoad[static_cast<std::size_t>(s)] +=
                row[static_cast<std::size_t>(s)];
    }
    for (int s = 0; s < slots; ++s) {
        cp.chunkLoad[static_cast<std::size_t>(s)] +=
            census.slotVertexCount()[static_cast<std::size_t>(s)] *
            static_cast<std::uint64_t>(num_snapshots);
    }

    // Cross-chunk adjacency aggregated over snapshots (the refinement
    // objective).
    std::vector<std::uint64_t> cross_total(slots_sz * slots_sz, 0);
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        const auto row = census.crossRow(t);
        for (std::size_t i = 0; i < row.size(); ++i)
            cross_total[i] += row[i];
    }

    // ---- Placement step 1: longest-processing-time greedy balance.
    std::vector<int> order(slots_sz);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        const auto la = cp.chunkLoad[static_cast<std::size_t>(a)];
        const auto lb = cp.chunkLoad[static_cast<std::size_t>(b)];
        return la != lb ? la > lb : a < b;
    });
    cp.chipOfChunk.assign(slots_sz, 0);
    cp.chipLoad.assign(static_cast<std::size_t>(cp.chips), 0);
    for (const int s : order) {
        int best = 0;
        for (int c = 1; c < cp.chips; ++c) {
            if (cp.chipLoad[static_cast<std::size_t>(c)] <
                cp.chipLoad[static_cast<std::size_t>(best)])
                best = c;
        }
        cp.chipOfChunk[static_cast<std::size_t>(s)] = best;
        cp.chipLoad[static_cast<std::size_t>(best)] +=
            cp.chunkLoad[static_cast<std::size_t>(s)];
    }

    // ---- Placement step 2: bounded refinement. Move a chunk to the
    // chip that most reduces its cross-chip adjacency, but only when
    // the reduction is strict and the target stays within the balance
    // slack, so refinement can only improve the cut and never wrecks
    // the balance the LPT pass bought.
    const std::uint64_t total_load =
        std::accumulate(cp.chunkLoad.begin(), cp.chunkLoad.end(),
                        std::uint64_t{0});
    const double allowed = (1.0 + kBalanceSlack) *
        static_cast<double>(total_load) /
        static_cast<double>(cp.chips);
    // Cross-chip adjacency touching chunk s if s lived on chip c.
    const auto cut_of = [&](int s, int c) {
        std::uint64_t cut = 0;
        const auto si = static_cast<std::size_t>(s);
        for (int j = 0; j < slots; ++j) {
            const auto ji = static_cast<std::size_t>(j);
            if (j == s ||
                cp.chipOfChunk[ji] == c)
                continue;
            cut += cross_total[si * slots_sz + ji] +
                cross_total[ji * slots_sz + si];
        }
        return cut;
    };
    for (int round = 0; round < 2; ++round) {
        bool moved = false;
        for (int s = 0; s < slots; ++s) {
            const auto si = static_cast<std::size_t>(s);
            const int from = cp.chipOfChunk[si];
            const std::uint64_t here = cut_of(s, from);
            int best_chip = from;
            std::uint64_t best_cut = here;
            for (int c = 0; c < cp.chips; ++c) {
                if (c == from)
                    continue;
                const double new_load = static_cast<double>(
                    cp.chipLoad[static_cast<std::size_t>(c)] +
                    cp.chunkLoad[si]);
                if (new_load > allowed)
                    continue;
                const std::uint64_t there = cut_of(s, c);
                if (there < best_cut) {
                    best_cut = there;
                    best_chip = c;
                }
            }
            if (best_chip != from) {
                cp.chipLoad[static_cast<std::size_t>(from)] -=
                    cp.chunkLoad[si];
                cp.chipLoad[static_cast<std::size_t>(best_chip)] +=
                    cp.chunkLoad[si];
                cp.chipOfChunk[si] = best_chip;
                moved = true;
            }
        }
        if (!moved)
            break;
    }

    return cp;
}

} // namespace ditile::workload
