/**
 * @file
 * SnapshotDigest construction and the content-addressed cache.
 *
 * ### Why the incremental paths are bit-identical
 *
 * LoadDigest: the Eq.-17 load of vertex v is a weighted sum of its
 * per-hop walk counts W_h(v), where W_h(v) = sum of W_{h-1}(u) over
 * v's neighbors in CSR order. A changed edge can only perturb W_h(v)
 * if v's adjacency changed (an affected vertex) or some neighbor's
 * W_{h-1} changed — i.e. exactly the vertices within h-1 hops of the
 * affected set on the *new* snapshot. The patch recomputes W_h for
 * those vertices with the same full neighbor-list sum the scratch
 * pass runs (same addends, same order), keeps every other entry
 * untouched, and then rebuilds the load of each reached vertex from
 * 0.0 in ascending hop order — the scratch accumulation order. Every
 * float operation either matches the scratch pass or is skipped
 * because its inputs are bitwise unchanged, so the results are
 * bitwise equal by induction over hops.
 *
 * PartitionDigest: per-slot degree sums and cross-owner adjacency
 * counts are integers; an added undirected edge {u,v} contributes
 * exactly one degree to each endpoint's slot and (when the owners
 * differ) one adjacency entry in each direction, so +/-1 patching
 * reproduces the scratch count exactly. Row t is the same whatever
 * the coverage: a build stops after the last covered row.
 */

#include "workload/digest.hh"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "workload/slot_arrays.hh"

namespace ditile::workload {

namespace {

std::atomic<bool> g_digest_enabled{true};

/**
 * Scratch walk pass retaining every hop: walks[h][v] is the number of
 * h-length walks ending at v. Mirrors computeSnapshotLoads exactly
 * (same neighbor-sum loop, same accumulation order into vload).
 */
void
scratchWalks(const graph::Csr &g, int gcn_layers,
             std::vector<std::vector<double>> &walks,
             std::vector<double> &vload)
{
    const auto n = static_cast<std::size_t>(g.numVertices());
    std::fill(walks[0].begin(), walks[0].end(), 1.0);
    for (int hop = 1; hop <= gcn_layers; ++hop) {
        const auto &prev = walks[static_cast<std::size_t>(hop) - 1];
        auto &cur = walks[static_cast<std::size_t>(hop)];
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            double acc = 0.0;
            for (VertexId u : g.neighbors(v))
                acc += prev[static_cast<std::size_t>(u)];
            cur[static_cast<std::size_t>(v)] = acc;
        }
    }
    std::fill(vload.begin(), vload.end(), 0.0);
    for (int hop = 1; hop <= gcn_layers; ++hop) {
        const double weight = gcn_layers - hop + 1;
        const auto &cur = walks[static_cast<std::size_t>(hop)];
        simd::f64Axpy(vload.data(), cur.data(), weight, n);
    }
}

} // namespace

bool
digestEnabled()
{
    return g_digest_enabled.load(std::memory_order_relaxed);
}

void
setDigestEnabled(bool enabled)
{
    g_digest_enabled.store(enabled, std::memory_order_relaxed);
}

namespace {

using SnapshotLoadsMemo = ContentCache<std::uint64_t, SnapshotLoads>;

/** Memo key of snapshot t's loads: the snapshot's content + layers. */
std::uint64_t
snapshotLoadsKey(const graph::DynamicGraph &dg, SnapshotId t,
                 int gcn_layers)
{
    WordHasher hasher;
    hasher.mix(0x534e41504c44ull); // "SNAPLD" tag.
    hasher.mix(static_cast<std::uint64_t>(gcn_layers));
    hasher.mix(dg.snapshotKey(t));
    return hasher.h;
}

/**
 * The one LoadDigest build. Without a memo every snapshot is computed
 * (buildLoadDigest, the oracle). With one, a snapshot the memo holds
 * is shared as is, and a computed snapshot is published to it; the
 * loads are a pure function of the snapshot, so both give the same
 * bits. Patching needs snapshot t-1's walk arrays, so a snapshot right
 * after a shared one is walked from scratch.
 */
LoadDigest
assembleLoadDigest(const graph::DynamicGraph &dg, int gcn_layers,
                   SnapshotLoadsMemo *memo)
{
    DITILE_ASSERT(gcn_layers >= 1);
    const auto n = static_cast<std::size_t>(dg.numVertices());
    const SnapshotId t_count = dg.numSnapshots();

    LoadDigest d;
    d.gcnLayers = gcn_layers;
    d.snapshotLoads.resize(static_cast<std::size_t>(t_count));

    // Rolling per-hop walk arrays for the previous snapshot; patched
    // in place so each step costs only the reached vertices.
    std::vector<std::vector<double>> walks(
        static_cast<std::size_t>(gcn_layers) + 1,
        std::vector<double>(n, 0.0));
    bool walks_current = false; // walks hold snapshot t-1's counts.

    auto compute = [&](SnapshotId t) {
        const graph::Csr &g = dg.snapshot(t);
        std::vector<double> vload;
        if (walks_current) {
            // Large deltas gain nothing from patching; fall back to
            // the scratch pass (the results are bitwise equal either
            // way, so the threshold is pure policy). The probe stops
            // as soon as the reach passes it.
            const graph::GraphDelta &delta = dg.delta(t);
            const auto levels = graph::expandFrontierLevels(
                g, delta.affectedVertices(), gcn_layers - 1, n / 2);
            std::size_t reached = 0;
            for (const auto &level : levels)
                reached += level.size();
            if (reached * 2 <= n) {
                for (int hop = 1; hop <= gcn_layers; ++hop) {
                    const auto &prev =
                        walks[static_cast<std::size_t>(hop) - 1];
                    auto &cur = walks[static_cast<std::size_t>(hop)];
                    for (int k = 0; k < hop; ++k) {
                        for (VertexId v :
                             levels[static_cast<std::size_t>(k)]) {
                            double acc = 0.0;
                            for (VertexId u : g.neighbors(v)) {
                                acc +=
                                    prev[static_cast<std::size_t>(u)];
                            }
                            cur[static_cast<std::size_t>(v)] = acc;
                        }
                    }
                }
                vload = *d.snapshotLoads[static_cast<std::size_t>(t) - 1];
                for (const auto &level : levels) {
                    for (VertexId v : level) {
                        double acc = 0.0;
                        for (int hop = 1; hop <= gcn_layers; ++hop) {
                            const double weight = gcn_layers - hop + 1;
                            acc += weight *
                                walks[static_cast<std::size_t>(hop)]
                                     [static_cast<std::size_t>(v)];
                        }
                        vload[static_cast<std::size_t>(v)] = acc;
                    }
                }
                ++d.incrementalSnapshots;
                return std::make_shared<const std::vector<double>>(
                    std::move(vload));
            }
        }
        vload.resize(n);
        scratchWalks(g, gcn_layers, walks, vload);
        ++d.scratchSnapshots;
        return std::make_shared<const std::vector<double>>(
            std::move(vload));
    };

    for (SnapshotId t = 0; t < t_count; ++t) {
        auto &slot = d.snapshotLoads[static_cast<std::size_t>(t)];
        if (memo == nullptr) {
            slot = compute(t);
            walks_current = true;
            continue;
        }
        const std::uint64_t key = snapshotLoadsKey(dg, t, gcn_layers);
        bool computed = false;
        slot = memo->obtain(key, [&] {
            computed = true;
            return compute(t);
        });
        memo->touch(key);
        // A racer may have published first; its bits are the same,
        // and the walks still hold this snapshot's counts.
        walks_current = computed;
    }
    if (memo != nullptr)
        memo->evictToCapacity();

    // Ascending-t accumulation, matching computeVertexLoads bitwise.
    d.totalLoads.assign(n, 0.0);
    for (SnapshotId t = 0; t < t_count; ++t) {
        const auto &snap = *d.snapshotLoads[static_cast<std::size_t>(t)];
        simd::f64Add(d.totalLoads.data(), snap.data(), n);
    }
    return d;
}

} // namespace

LoadDigest
buildLoadDigest(const graph::DynamicGraph &dg, int gcn_layers)
{
    return assembleLoadDigest(dg, gcn_layers, nullptr);
}

PartitionDigest
buildPartitionDigest(const graph::DynamicGraph &dg,
                     const std::vector<int> &owners, int slots,
                     SnapshotId covered)
{
    DITILE_ASSERT(slots >= 1);
    DITILE_ASSERT(covered >= 0);
    DITILE_ASSERT(owners.size() ==
                  static_cast<std::size_t>(dg.numVertices()));
    const SnapshotId t_count = std::min(covered, dg.numSnapshots());
    const auto s_slots = static_cast<std::size_t>(slots);

    PartitionDigest d;
    d.slots = slots;
    d.arrays.resize(t_count, slots);
    for (const int owner : owners) {
        DITILE_ASSERT(owner >= 0 && owner < slots,
                      "vertex owner outside the slot range");
        ++d.arrays.slotVertexCount[static_cast<std::size_t>(owner)];
    }

    // Edge→owner index of the current snapshot, rebuilt only on the
    // scratch path (the patch path touches just the delta's edges).
    std::vector<std::int32_t> edge_owner;

    for (SnapshotId t = 0; t < t_count; ++t) {
        const graph::Csr &g = dg.snapshot(t);
        std::uint64_t *deg_sum = d.arrays.degreeSumRowMut(t);
        std::uint64_t *cross = d.arrays.crossRowMut(t);

        const bool patch = t > 0 &&
            static_cast<EdgeId>(dg.delta(t).numChanges()) * 4 <=
                g.numAdjacencies();
        if (patch) {
            // Contiguous planes: the carry-forward is two memcpys
            // from snapshot t-1's rows.
            std::memcpy(deg_sum, d.arrays.degreeSumRowMut(t - 1),
                        s_slots * sizeof(std::uint64_t));
            std::memcpy(cross, d.arrays.crossRowMut(t - 1),
                        s_slots * s_slots * sizeof(std::uint64_t));
            const graph::GraphDelta &delta = dg.delta(t);
            auto apply = [&](const graph::Edge &e, std::uint64_t up,
                             std::uint64_t down) {
                const auto ou = static_cast<std::size_t>(
                    owners[static_cast<std::size_t>(e.first)]);
                const auto ov = static_cast<std::size_t>(
                    owners[static_cast<std::size_t>(e.second)]);
                deg_sum[ou] += up - down;
                deg_sum[ov] += up - down;
                if (ou == ov)
                    return;
                cross[ou * s_slots + ov] += up - down;
                cross[ov * s_slots + ou] += up - down;
            };
            for (const auto &e : delta.addedEdges())
                apply(e, 1, 0);
            for (const auto &e : delta.removedEdges())
                apply(e, 0, 1);
            ++d.incrementalSnapshots;
        } else {
            buildEdgeOwnerIndex(g, owners, edge_owner);
            countSlotEdges(g, owners, edge_owner.data(), slots,
                           deg_sum, cross);
            ++d.scratchSnapshots;
        }
    }
    return d;
}

std::uint64_t
loadDigestKey(const graph::DynamicGraph &dg, int gcn_layers)
{
    WordHasher hasher;
    hasher.mix(0x4c4f414453ull); // "LOADS" tag.
    hasher.mix(static_cast<std::uint64_t>(gcn_layers));
    hasher.mix(graph::structureHash(dg));
    return hasher.h;
}

std::uint64_t
partitionDigestKey(const graph::DynamicGraph &dg,
                   const std::vector<int> &owners, int slots)
{
    WordHasher hasher;
    hasher.mix(0x5041525453ull); // "PARTS" tag.
    hasher.mix(static_cast<std::uint64_t>(slots));
    for (const int owner : owners)
        hasher.mix(static_cast<std::uint64_t>(owner));
    hasher.mix(graph::structureHash(dg));
    return hasher.h;
}

std::shared_ptr<const LoadDigest>
DigestCache::loads(const graph::DynamicGraph &dg, int gcn_layers)
{
    return loads_.obtain(loadDigestKey(dg, gcn_layers), [&] {
        return std::make_shared<const LoadDigest>(
            assembleLoadDigest(dg, gcn_layers, &snapshotLoads_));
    });
}

std::shared_ptr<const PartitionDigest>
DigestCache::partition(const graph::DynamicGraph &dg,
                       const std::vector<int> &owners, int slots,
                       SnapshotId covered)
{
    const SnapshotId rows = std::min(covered, dg.numSnapshots());
    return partitions_.obtain(
        partitionDigestKey(dg, owners, slots),
        [&] {
            return std::make_shared<const PartitionDigest>(
                buildPartitionDigest(dg, owners, slots, rows));
        },
        [rows](const std::shared_ptr<const PartitionDigest> &d) {
            return d->covered() >= rows;
        });
}

DigestCache &
DigestCache::global()
{
    static DigestCache cache;
    return cache;
}

} // namespace ditile::workload
