/**
 * @file
 * R-MAT and temporal-evolution generator implementations.
 */

#include "graph/generator.hh"

#include <algorithm>
#include <bit>
#include <memory>
#include <unordered_set>

#include "common/content_cache.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/math_util.hh"

namespace ditile::graph {

namespace {

/**
 * Insert-only open-addressing set of edge keys (linear probing),
 * sized up front for a known number of keys at load <= 0.75. Key 0 is
 * the empty marker: edgeKey(u, v) with u < v is never 0.
 */
class EdgeKeySet
{
  public:
    explicit EdgeKeySet(std::size_t max_keys)
    {
        std::size_t cap = 16;
        while (cap * 3 < max_keys * 4)
            cap <<= 1;
        slots_.assign(cap, 0);
        mask_ = cap - 1;
        shift_ = 64 - log2Floor(cap);
    }

    /** Insert key; false if it was already present. */
    bool
    insert(std::uint64_t key)
    {
        std::size_t i = (key * 0x9e3779b97f4a7c15ULL) >> shift_;
        while (slots_[i] != 0) {
            if (slots_[i] == key)
                return false;
            i = (i + 1) & mask_;
        }
        slots_[i] = key;
        return true;
    }

  private:
    std::vector<std::uint64_t> slots_;
    std::size_t mask_ = 0;
    int shift_ = 0;
};

/**
 * Distinct in-range, non-self-loop R-MAT edges (canonical u < v), in
 * draw order. A separate step so the key set is freed before the CSR
 * build.
 */
std::vector<Edge>
drawRmatEdges(VertexId num_vertices, EdgeId num_edges,
              const RmatParams &params, Rng &rng)
{
    const int levels = rmatLevels(num_vertices);

    // Draw until we have the requested count of distinct in-range,
    // non-self-loop edges. The retry bound protects dense corner cases
    // where distinct edges run out (caller asked for near-clique).
    const EdgeId max_possible =
        static_cast<EdgeId>(num_vertices) * (num_vertices - 1) / 2;
    const EdgeId target = std::min(num_edges, max_possible);
    std::vector<Edge> edges;
    edges.reserve(static_cast<std::size_t>(target));
    EdgeKeySet seen(static_cast<std::size_t>(target));
    std::uint64_t attempts = 0;
    const std::uint64_t attempt_cap =
        static_cast<std::uint64_t>(target) * 64 + 1024;
    while (static_cast<EdgeId>(edges.size()) < target &&
           attempts < attempt_cap) {
        ++attempts;
        auto [u, v] = rmatDraw(levels, params, rng);
        if (u >= num_vertices || v >= num_vertices || u == v)
            continue;
        if (!seen.insert(edgeKey(u, v)))
            continue;
        if (u > v)
            std::swap(u, v);
        edges.emplace_back(u, v);
    }
    // Fallback fill with uniform pairs if R-MAT saturated its hot
    // quadrants before reaching the target (only hit for tiny graphs).
    while (static_cast<EdgeId>(edges.size()) < target) {
        auto u = static_cast<VertexId>(rng.uniformInt(0, num_vertices - 1));
        auto v = static_cast<VertexId>(rng.uniformInt(0, num_vertices - 1));
        if (u == v || !seen.insert(edgeKey(u, v)))
            continue;
        if (u > v)
            std::swap(u, v);
        edges.emplace_back(u, v);
    }
    return edges;
}

/**
 * Everything the seed draw depends on. Exact, so a memo hit never
 * rests on a hash alone; the R-MAT probabilities compare by bit
 * pattern.
 */
struct SeedKey
{
    VertexId numVertices = 0;
    EdgeId numEdges = 0;
    std::uint64_t a = 0, b = 0, c = 0;
    std::uint64_t seed = 0;

    auto operator<=>(const SeedKey &) const = default;
};

struct SeedKeyHash
{
    std::size_t
    operator()(const SeedKey &key) const
    {
        WordHasher hasher;
        hasher.mix(static_cast<std::uint64_t>(key.numVertices));
        hasher.mix(static_cast<std::uint64_t>(key.numEdges));
        hasher.mix(key.a);
        hasher.mix(key.b);
        hasher.mix(key.c);
        hasher.mix(key.seed);
        return static_cast<std::size_t>(hasher.h);
    }
};

SeedKey
seedKey(const EvolutionConfig &config)
{
    return {config.numVertices, config.numEdges,
            std::bit_cast<std::uint64_t>(config.rmat.a),
            std::bit_cast<std::uint64_t>(config.rmat.b),
            std::bit_cast<std::uint64_t>(config.rmat.c), config.seed};
}

/** Snapshot 0 and the generator state right after drawing it. */
struct SeedDraw
{
    std::shared_ptr<const Csr> snapshot;
    Rng rng;
};

/**
 * The generation memo: every graph with the same SeedKey (all points
 * of a dis x T sweep grid) starts from one seed draw, held once and
 * shared with each graph built from it. One entry: a sweep walks one
 * dataset at a time, and the bound keeps the memo from pinning more
 * than one snapshot no graph still holds. Silent (no counters reach
 * the metrics plane): a hit changes no output, only the time taken.
 */
struct SeedMemo : ContentCache<SeedKey, SeedDraw, SeedKeyHash>
{
    SeedMemo() { setCapacity(1); }
};

SeedMemo &
seedMemo()
{
    static SeedMemo memo;
    return memo;
}

} // namespace

Edge
rmatDraw(int levels, const RmatParams &p, Rng &rng)
{
    const double ab = p.a + p.b;
    const double abc = p.a + p.b + p.c;
    std::int64_t u = 0;
    std::int64_t v = 0;
    for (int i = 0; i < levels; ++i) {
        const double r = rng.uniformReal();
        const bool ge_a = r >= p.a;
        const bool ge_ab = r >= ab;
        const bool ge_abc = r >= abc;
        u = (u << 1) | static_cast<std::int64_t>(ge_ab);
        v = (v << 1) | static_cast<std::int64_t>((ge_a != ge_ab) | ge_abc);
    }
    return {static_cast<VertexId>(u), static_cast<VertexId>(v)};
}

int
rmatLevels(VertexId num_vertices)
{
    int levels = log2Floor(static_cast<std::uint64_t>(num_vertices));
    if ((VertexId(1) << levels) < num_vertices)
        ++levels;
    return levels;
}

Csr
generateRmat(VertexId num_vertices, EdgeId num_edges,
             const RmatParams &params, Rng &rng)
{
    DITILE_ASSERT(num_vertices > 1, "R-MAT needs >= 2 vertices");
    return Csr::fromEdges(num_vertices,
                          drawRmatEdges(num_vertices, num_edges, params,
                                        rng));
}

DynamicGraph
generateDynamicGraph(const EvolutionConfig &config)
{
    DITILE_ASSERT(config.numSnapshots >= 1);
    DITILE_ASSERT(config.dissimilarity >= 0.0 &&
                  config.dissimilarity <= 1.0,
                  "dissimilarity must be a fraction");
    const SeedKey key = seedKey(config);
    auto &memo = seedMemo();
    SeedDraw seed = memo.obtain(key, [&] {
        Rng rng(config.seed);
        auto snapshot = std::make_shared<const Csr>(generateRmat(
            config.numVertices, config.numEdges, config.rmat, rng));
        return SeedDraw{std::move(snapshot), rng};
    });
    memo.touch(key);
    memo.evictToCapacity();
    Rng &rng = seed.rng;

    std::vector<std::shared_ptr<const Csr>> snapshots;
    std::vector<GraphDelta> deltas;
    snapshots.reserve(static_cast<std::size_t>(config.numSnapshots));
    snapshots.push_back(std::move(seed.snapshot));

    // Live edges for uniform removal draws (swap-erase). Membership is
    // answered by the previous snapshot plus this step's added keys.
    std::vector<Edge> working = snapshots.front()->edgeList();
    const int levels = rmatLevels(config.numVertices);

    const auto affected_target = static_cast<std::size_t>(
        config.dissimilarity * static_cast<double>(config.numVertices));

    for (SnapshotId t = 1; t < config.numSnapshots; ++t) {
        const Csr &prev = *snapshots.back();
        std::vector<Edge> added;
        std::vector<Edge> removed;
        std::unordered_set<std::uint64_t> added_keys;
        std::unordered_set<VertexId> affected;
        affected.reserve(affected_target * 2);

        // Alternate removal/addition so |E| stays ~constant. R-MAT draws
        // keep the skewed degree profile for additions. The iteration cap
        // bounds pathological small/dense graphs. An edge of prev is
        // never re-added in the step that removed it (the draw is
        // skipped), so the recorded delta is exactly the snapshot diff.
        std::size_t iters = 0;
        const std::size_t iter_cap = affected_target * 16 + 256;
        bool remove_next = true;
        while (affected.size() < affected_target && iters < iter_cap) {
            ++iters;
            if (remove_next && !working.empty()) {
                const auto idx = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(working.size()) - 1));
                const Edge e = working[idx];
                working[idx] = working.back();
                working.pop_back();
                if (added_keys.erase(edgeKey(e.first, e.second))) {
                    // The edge was added earlier this step: removing it
                    // cancels the addition rather than logging a removal.
                    std::erase(added, e);
                } else {
                    removed.push_back(e);
                }
                affected.insert(e.first);
                affected.insert(e.second);
            } else {
                auto [u, v] = rmatDraw(levels, config.rmat, rng);
                if (u >= config.numVertices || v >= config.numVertices)
                    continue;
                const std::uint64_t key = edgeKey(u, v);
                if (u == v || prev.hasEdge(u, v) || added_keys.count(key))
                    continue;
                if (u > v)
                    std::swap(u, v);
                working.emplace_back(u, v);
                added.emplace_back(u, v);
                added_keys.insert(key);
                affected.insert(u);
                affected.insert(v);
            }
            remove_next = !remove_next;
        }

        deltas.push_back(GraphDelta::fromChanges(std::move(added),
                                                 std::move(removed)));
        const GraphDelta &delta = deltas.back();
        snapshots.push_back(std::make_shared<const Csr>(Csr::patched(
            prev, delta.addedEdges(), delta.removedEdges())));
    }

    return DynamicGraph(config.name, std::move(snapshots),
                        std::move(deltas), config.featureDim);
}

std::shared_ptr<const Csr>
memoizedSeedSnapshot(const EvolutionConfig &config)
{
    const auto seed = seedMemo().peek(seedKey(config));
    return seed ? seed->snapshot : nullptr;
}

void
clearGenerationMemo()
{
    seedMemo().clear();
}

} // namespace ditile::graph
