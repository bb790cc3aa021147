/**
 * @file
 * The planning front end's snapshot-sharing memos — the seed draw
 * memo, the per-snapshot load memo and the PlanCache prefix
 * extension — must never change what they serve. A WD dis x T grid is
 * generated, digested and planned in grid order and reversed, with the
 * memos cleared and warm, at one and four threads (grid points
 * concurrent), and every point is compared with a cache-free oracle
 * built with the memos cleared.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "graph/datasets.hh"
#include "model/incremental.hh"
#include "sim/plan_cache.hh"
#include "workload/digest.hh"

namespace ditile {
namespace {

struct GridPoint
{
    double dis;
    SnapshotId snapshots;
};

const std::vector<GridPoint> kGrid = {
    {0.02, 8}, {0.02, 16}, {0.10, 8}, {0.10, 16}};

constexpr int kGcnLayers = 2;

graph::EvolutionConfig
pointConfig(const GridPoint &point)
{
    graph::DatasetOptions options;
    options.scale = 0.25;
    options.numSnapshots = point.snapshots;
    options.dissimilarity = point.dis;
    options.seed = 42;
    return graph::datasetConfig(graph::findDataset("WD"), options);
}

/** What one grid point produced. */
struct PointResult
{
    std::uint64_t structureHash = 0;
    workload::LoadDigest loads;
    std::vector<std::vector<model::SnapshotPlan>> plans; ///< [algo]
};

void
clearMemos()
{
    graph::clearGenerationMemo();
    workload::DigestCache::global().clear();
}

/** Each point from a cold generation and the cache-free builders. */
std::vector<PointResult>
oracle()
{
    const model::DgnnConfig config;
    std::vector<PointResult> results;
    for (const GridPoint &point : kGrid) {
        clearMemos();
        const auto dg = graph::generateDynamicGraph(pointConfig(point));
        PointResult r;
        r.structureHash = dg.structureHashValue();
        r.loads = workload::buildLoadDigest(dg, kGcnLayers);
        for (model::AlgoKind algo : model::allAlgorithms())
            r.plans.push_back(
                *sim::PlanCache::buildSnapshotPlans(dg, config, algo));
        results.push_back(std::move(r));
    }
    clearMemos();
    return results;
}

void
expectSameLoads(const workload::LoadDigest &got,
                const workload::LoadDigest &want)
{
    ASSERT_EQ(got.snapshotLoads.size(), want.snapshotLoads.size());
    for (std::size_t t = 0; t < got.snapshotLoads.size(); ++t)
        ASSERT_EQ(*got.snapshotLoads[t], *want.snapshotLoads[t]) << t;
    EXPECT_EQ(got.totalLoads, want.totalLoads);
}

void
expectSamePlans(const std::vector<model::SnapshotPlan> &got,
                const std::vector<model::SnapshotPlan> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t t = 0; t < got.size(); ++t) {
        SCOPED_TRACE(t);
        ASSERT_EQ(got[t].gcn.size(), want[t].gcn.size());
        for (std::size_t l = 0; l < got[t].gcn.size(); ++l) {
            EXPECT_EQ(got[t].gcn[l].vertices, want[t].gcn[l].vertices);
            EXPECT_EQ(got[t].gcn[l].gatherEdges,
                      want[t].gcn[l].gatherEdges);
            EXPECT_EQ(got[t].gcn[l].uniqueInputs,
                      want[t].gcn[l].uniqueInputs);
        }
        EXPECT_EQ(got[t].rnnVertices, want[t].rnnVertices);
        EXPECT_EQ(got[t].adjacencyUpdates, want[t].adjacencyUpdates);
        EXPECT_EQ(got[t].fullRecompute, want[t].fullRecompute);
    }
}

TEST(SnapshotSharing, MemosDoNotDependOnOrderOrThreads)
{
    const auto want = oracle();
    const model::DgnnConfig config;
    sim::PlanCache plan_cache;
    for (const int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        for (const bool reversed : {false, true}) {
            for (const bool warm : {false, true}) {
                SCOPED_TRACE("threads=" + std::to_string(threads) +
                             (reversed ? " reversed" : " forward") +
                             (warm ? " warm" : " cold"));
                // A warm pass replays the grid over the memos and the
                // plan cache the previous (cold) pass left behind.
                if (!warm) {
                    clearMemos();
                    plan_cache.clear();
                }
                std::vector<PointResult> got(kGrid.size());
                std::vector<std::shared_ptr<const workload::LoadDigest>>
                    digests(kGrid.size());
                std::vector<char> seed_shared(kGrid.size(), 0);
                parallelFor(kGrid.size(), [&](std::size_t k) {
                    const std::size_t i =
                        reversed ? kGrid.size() - 1 - k : k;
                    const auto point_config = pointConfig(kGrid[i]);
                    const auto dg =
                        graph::generateDynamicGraph(point_config);
                    seed_shared[i] = dg.sharedSnapshot(0) ==
                        graph::memoizedSeedSnapshot(point_config);
                    got[i].structureHash = dg.structureHashValue();
                    digests[i] = workload::DigestCache::global().loads(
                        dg, kGcnLayers);
                    for (model::AlgoKind algo : model::allAlgorithms())
                        got[i].plans.push_back(
                            *plan_cache.obtain(dg, config, algo));
                });
                for (std::size_t i = 0; i < kGrid.size(); ++i) {
                    SCOPED_TRACE(i);
                    EXPECT_TRUE(seed_shared[i]);
                    EXPECT_EQ(got[i].structureHash, want[i].structureHash);
                    expectSameLoads(*digests[i], want[i].loads);
                    for (std::size_t a = 0; a < got[i].plans.size(); ++a)
                        expectSamePlans(got[i].plans[a], want[i].plans[a]);
                }
                // Each T=8 point's snapshots are its T=16 point's first
                // eight, and every point starts from one seed: the
                // load arrays are shared, not recomputed.
                for (std::size_t i = 0; i < kGrid.size(); i += 2) {
                    for (std::size_t t = 0; t < 8; ++t) {
                        EXPECT_EQ(digests[i]->snapshotLoads[t],
                                  digests[i + 1]->snapshotLoads[t]);
                    }
                    EXPECT_EQ(digests[i]->snapshotLoads[0],
                              digests[0]->snapshotLoads[0]);
                }
            }
        }
    }
    ThreadPool::setGlobalThreads(1);
    clearMemos();
}

// Plan vertex sets hold only what they must, counted rather than
// measured as RSS: a full-recompute or all-vertex set is a bound with
// no ids, a MEGA snapshot's layers share one list, DiTile's GCN lists
// are its resident RACE sibling's, and a T=16 plan set's first 8 plans
// share the T=8 set's lists. Grid points are planned one at a time
// (each planner still fans out over the pool), so which set is
// resident first does not depend on the schedule.
TEST(SnapshotSharing, PlanSetsShareTheirVertexLists)
{
    using model::AlgoKind;
    using Plans = std::shared_ptr<const sim::PlanCache::SnapshotPlans>;
    const model::DgnnConfig config;
    const auto &algos = model::allAlgorithms();
    const auto slot = [&](AlgoKind kind) {
        return static_cast<std::size_t>(
            std::find(algos.begin(), algos.end(), kind) - algos.begin());
    };
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadPool::setGlobalThreads(threads);
        clearMemos();
        sim::PlanCache plan_cache;
        std::vector<std::vector<Plans>> plans; ///< [point][algo]
        for (const GridPoint &point : kGrid) {
            const auto dg = graph::generateDynamicGraph(pointConfig(point));
            auto &row = plans.emplace_back();
            for (AlgoKind algo : algos)
                row.push_back(plan_cache.obtain(dg, config, algo));
        }

        std::set<const std::vector<VertexId> *> lists;
        std::size_t sets = 0, bounds = 0, expanded = 0, held = 0;
        for (std::size_t i = 0; i < kGrid.size(); ++i) {
            SCOPED_TRACE(i);
            for (AlgoKind algo : algos) {
                SCOPED_TRACE(model::algoName(algo));
                const auto &got = *plans[i][slot(algo)];
                for (std::size_t t = 0; t < got.size(); ++t) {
                    const model::SnapshotPlan &p = got[t];
                    std::vector<const model::VertexSet *> all_sets = {
                        &p.rnnVertices};
                    for (const auto &lw : p.gcn) {
                        all_sets.push_back(&lw.vertices);
                        if (p.fullRecompute) {
                            EXPECT_TRUE(lw.vertices.isAll()) << t;
                            EXPECT_EQ(lw.vertices.ids(), nullptr) << t;
                        }
                        if (algo == AlgoKind::MegaAlg) {
                            EXPECT_EQ(lw.vertices.ids(),
                                      p.gcn.front().vertices.ids()) << t;
                        }
                    }
                    if (p.fullRecompute || algo != AlgoKind::DiTileAlg) {
                        EXPECT_TRUE(p.rnnVertices.isAll()) << t;
                        EXPECT_EQ(p.rnnVertices.ids(), nullptr) << t;
                    }
                    for (const model::VertexSet *set : all_sets) {
                        ++sets;
                        expanded += set->size();
                        if (set->isAll())
                            ++bounds;
                        else if (lists.insert(set->ids()).second)
                            held += set->size();
                    }
                }
            }
            // DiTile's GCN lists are the resident RACE set's.
            const auto &race = *plans[i][slot(AlgoKind::RaceAlg)];
            const auto &ditile = *plans[i][slot(AlgoKind::DiTileAlg)];
            for (std::size_t t = 0; t < race.size(); ++t) {
                for (std::size_t l = 0; l < race[t].gcn.size(); ++l) {
                    EXPECT_EQ(ditile[t].gcn[l].vertices.ids(),
                              race[t].gcn[l].vertices.ids())
                        << t << " " << l;
                }
            }
        }
        // Each T=16 set's first 8 plans share the T=8 set's lists.
        for (std::size_t i = 0; i < kGrid.size(); i += 2) {
            ASSERT_EQ(kGrid[i].snapshots, 8);
            ASSERT_EQ(kGrid[i + 1].snapshots, 16);
            for (std::size_t a = 0; a < algos.size(); ++a) {
                SCOPED_TRACE(model::algoName(algos[a]));
                const auto &short_set = *plans[i][a];
                const auto &long_set = *plans[i + 1][a];
                for (std::size_t t = 0; t < short_set.size(); ++t) {
                    EXPECT_EQ(long_set[t].rnnVertices.ids(),
                              short_set[t].rnnVertices.ids()) << t;
                    for (std::size_t l = 0; l < short_set[t].gcn.size();
                         ++l) {
                        EXPECT_EQ(long_set[t].gcn[l].vertices.ids(),
                                  short_set[t].gcn[l].vertices.ids())
                            << t << " " << l;
                    }
                }
            }
        }
        // 4 points x 4 algorithms x (8 or 16 plans) x (2 GCN + 1 RNN)
        // sets: 268 are bounds and the rest share 120 lists, which
        // hold 47,898 of the 709,997 ids the sets expand to.
        EXPECT_EQ(sets, 4u * 48u * 3u);
        EXPECT_EQ(bounds, 268u);
        EXPECT_EQ(lists.size(), 120u);
        EXPECT_LT(held * 10, expanded);
    }
    ThreadPool::setGlobalThreads(1);
    clearMemos();
}

// Sharing a snapshot or a seed draw must not move the whole-graph
// hash: cache keys, checkpointed plan keys and GenerationGolden.* all
// rest on it. A graph built from shared snapshots hashes as one built
// from copies, and a memo-served graph as a cold one.
TEST(SnapshotSharing, KeysDoNotDependOnSharing)
{
    const auto config = pointConfig({0.10, 8});
    clearMemos();
    const auto cold = graph::generateDynamicGraph(config);
    const auto warm = graph::generateDynamicGraph(config);
    EXPECT_EQ(cold.sharedSnapshot(0), warm.sharedSnapshot(0));
    EXPECT_NE(cold.sharedSnapshot(1), warm.sharedSnapshot(1));

    std::vector<graph::Csr> copies;
    std::vector<graph::GraphDelta> deltas;
    for (SnapshotId t = 0; t < cold.numSnapshots(); ++t) {
        copies.push_back(cold.snapshot(t));
        if (t > 0)
            deltas.push_back(cold.delta(t));
    }
    const graph::DynamicGraph copied(cold.name(), std::move(copies),
                                     std::move(deltas),
                                     cold.featureDim());
    for (const auto *dg : {&warm, &copied}) {
        EXPECT_EQ(dg->structureHashValue(), cold.structureHashValue());
        for (SnapshotId t = 0; t < cold.numSnapshots(); ++t) {
            EXPECT_EQ(dg->snapshotKey(t), cold.snapshotKey(t));
            EXPECT_EQ(dg->prefixKey(t), cold.prefixKey(t));
        }
    }
    // Snapshot keys name content, not position; prefix keys chain.
    for (SnapshotId t = 1; t < cold.numSnapshots(); ++t) {
        EXPECT_NE(cold.snapshotKey(t), cold.snapshotKey(t - 1));
        EXPECT_NE(cold.prefixKey(t), cold.prefixKey(t - 1));
    }
    clearMemos();
}

// The seed memo serves only a draw of the same (numVertices,
// numEdges, R-MAT a/b/c, seed): changing any one input right after
// the base draw must give the cold draw of the changed config.
TEST(SnapshotSharing, SeedMemoKeysEveryDrawInput)
{
    const auto base = pointConfig({0.10, 4});
    std::vector<graph::EvolutionConfig> variants(6, base);
    variants[1].numVertices += 1;
    variants[2].numEdges += 1;
    variants[3].rmat.a -= 0.01;
    variants[4].rmat.b += 0.01;
    variants[5].seed += 1;
    auto c_variant = base;
    c_variant.rmat.c += 0.01;
    variants.push_back(c_variant);
    for (std::size_t i = 0; i < variants.size(); ++i) {
        SCOPED_TRACE(i);
        clearMemos();
        const auto cold = graph::generateDynamicGraph(variants[i]);
        clearMemos();
        graph::generateDynamicGraph(base);
        const auto warm = graph::generateDynamicGraph(variants[i]);
        EXPECT_EQ(warm.structureHashValue(), cold.structureHashValue());
        EXPECT_EQ(i == 0, warm.sharedSnapshot(0) ==
                              graph::memoizedSeedSnapshot(base));
    }
    clearMemos();
}

// One graph's load digests at two layer counts share no arrays: the
// per-snapshot memo keys on the layer count as well as the snapshot.
TEST(SnapshotSharing, LoadMemoKeysTheLayerCount)
{
    clearMemos();
    const auto dg = graph::generateDynamicGraph(pointConfig({0.02, 4}));
    auto &cache = workload::DigestCache::global();
    for (const int layers : {2, 3, 2}) {
        SCOPED_TRACE(layers);
        expectSameLoads(*cache.loads(dg, layers),
                        workload::buildLoadDigest(dg, layers));
    }
    clearMemos();
}

} // namespace
} // namespace ditile
