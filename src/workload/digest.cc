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
 * reproduces the scratch count exactly.
 */

#include "workload/digest.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "common/trace.hh"
#include "workload/slot_arrays.hh"

namespace ditile::workload {

namespace {

std::atomic<int> g_digest_state{-1}; // -1 unset, 0 off, 1 on.

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
    int s = g_digest_state.load(std::memory_order_relaxed);
    if (s < 0) {
        const char *env = std::getenv("DITILE_NO_DIGEST");
        const bool disabled =
            env != nullptr && *env != '\0' &&
            !(env[0] == '0' && env[1] == '\0');
        s = disabled ? 0 : 1;
        g_digest_state.store(s, std::memory_order_relaxed);
    }
    return s == 1;
}

void
setDigestEnabled(bool enabled)
{
    g_digest_state.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

LoadDigest
buildLoadDigest(const graph::DynamicGraph &dg, int gcn_layers)
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

    for (SnapshotId t = 0; t < t_count; ++t) {
        const graph::Csr &g = dg.snapshot(t);
        auto &vload = d.snapshotLoads[static_cast<std::size_t>(t)];
        vload.resize(n);

        bool patched = false;
        if (t > 0) {
            const graph::GraphDelta &delta = dg.delta(t);
            const auto levels = graph::expandFrontierLevels(
                g, delta.affectedVertices(), gcn_layers - 1);
            std::size_t reached = 0;
            for (const auto &level : levels)
                reached += level.size();
            // Large deltas gain nothing from patching; fall back to
            // the scratch pass (the results are bitwise equal either
            // way, so the threshold is pure policy).
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
                vload = d.snapshotLoads[static_cast<std::size_t>(t) - 1];
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
                patched = true;
            }
        }
        if (patched) {
            ++d.incrementalSnapshots;
        } else {
            scratchWalks(g, gcn_layers, walks, vload);
            ++d.scratchSnapshots;
        }
    }

    // Ascending-t accumulation, matching computeVertexLoads bitwise.
    d.totalLoads.assign(n, 0.0);
    for (SnapshotId t = 0; t < t_count; ++t) {
        const auto &snap = d.snapshotLoads[static_cast<std::size_t>(t)];
        simd::f64Add(d.totalLoads.data(), snap.data(), n);
    }
    return d;
}

PartitionDigest
buildPartitionDigest(const graph::DynamicGraph &dg,
                     const std::vector<int> &owners, int slots)
{
    DITILE_ASSERT(slots >= 1);
    DITILE_ASSERT(owners.size() ==
                  static_cast<std::size_t>(dg.numVertices()));
    const SnapshotId t_count = dg.numSnapshots();
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
                if (ou != ov) {
                    cross[ou * s_slots + ov] += up - down;
                    cross[ov * s_slots + ou] += up - down;
                }
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

        distanceHistogram(cross, slots, d.arrays.distanceHistRowMut(t));
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
    const std::uint64_t key = loadDigestKey(dg, gcn_layers);
    std::shared_ptr<const LoadDigest> cached;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = loads_.find(key);
        if (it != loads_.end()) {
            ++hits_;
            cached = it->second;
        }
    }
    if (cached) {
        Tracer::global().cacheInstant("digest-loads hit", key);
        Tracer::global().addMetric("cache.digest_loads.hits", 1);
        return cached;
    }
    Tracer::global().cacheInstant("digest-loads miss", key);
    Tracer::global().addMetric("cache.digest_loads.misses", 1);
    // Build outside the lock; the first finished writer wins.
    auto digest = std::make_shared<const LoadDigest>(
        buildLoadDigest(dg, gcn_layers));
    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    const auto [it, inserted] = loads_.emplace(key, std::move(digest));
    return it->second;
}

std::shared_ptr<const PartitionDigest>
DigestCache::partition(const graph::DynamicGraph &dg,
                       const std::vector<int> &owners, int slots)
{
    const std::uint64_t key = partitionDigestKey(dg, owners, slots);
    std::shared_ptr<const PartitionDigest> cached;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = partitions_.find(key);
        if (it != partitions_.end()) {
            ++hits_;
            cached = it->second;
        }
    }
    if (cached) {
        Tracer::global().cacheInstant("digest-partition hit", key);
        Tracer::global().addMetric("cache.digest_partition.hits", 1);
        return cached;
    }
    Tracer::global().cacheInstant("digest-partition miss", key);
    Tracer::global().addMetric("cache.digest_partition.misses", 1);
    auto digest = std::make_shared<const PartitionDigest>(
        buildPartitionDigest(dg, owners, slots));
    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    const auto [it, inserted] =
        partitions_.emplace(key, std::move(digest));
    return it->second;
}

std::uint64_t
DigestCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
DigestCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::size_t
DigestCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return loads_.size() + partitions_.size();
}

void
DigestCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    loads_.clear();
    partitions_.clear();
    hits_ = 0;
    misses_ = 0;
}

DigestCache &
DigestCache::global()
{
    static DigestCache cache;
    return cache;
}

} // namespace ditile::workload
