/**
 * @file
 * Tests for the incremental execution planner, including a functional
 * incremental executor that proves plan correctness: Race-Alg with
 * exact expansion reproduces full recomputation bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "graph/datasets.hh"
#include "graph/generator.hh"
#include "model/functional.hh"
#include "model/incremental.hh"
#include "sim/plan_cache.hh"

namespace ditile::model {
namespace {

graph::DynamicGraph
smallDynamicGraph(std::uint64_t seed = 3, double dissimilarity = 0.10,
                  SnapshotId snapshots = 4)
{
    graph::EvolutionConfig config;
    config.numVertices = 200;
    config.numEdges = 800;
    config.numSnapshots = snapshots;
    config.dissimilarity = dissimilarity;
    config.featureDim = 8;
    config.seed = seed;
    return graph::generateDynamicGraph(config);
}

DgnnConfig
smallModel()
{
    DgnnConfig config;
    config.gcnDims = {12, 6};
    config.lstmHidden = 6;
    return config;
}

EdgeId
sumDegrees(const graph::Csr &g, const VertexSet &vs)
{
    EdgeId total = 0;
    vs.forEach([&](VertexId v) { total += g.degree(v); });
    return total;
}

/** The set's ids, in order. */
std::vector<VertexId>
idsOf(const VertexSet &vs)
{
    std::vector<VertexId> ids;
    vs.forEach([&](VertexId v) { ids.push_back(v); });
    return ids;
}

/** Whether `outer` holds every id of `inner`. */
bool
includes(const VertexSet &outer, const VertexSet &inner)
{
    const auto a = idsOf(outer);
    const auto b = idsOf(inner);
    return std::includes(a.begin(), a.end(), b.begin(), b.end());
}

TEST(AlgoKind, NamesAndOrder)
{
    EXPECT_STREQ(algoName(AlgoKind::ReAlg), "Re-Alg");
    EXPECT_STREQ(algoName(AlgoKind::RaceAlg), "Race-Alg");
    EXPECT_STREQ(algoName(AlgoKind::MegaAlg), "Mega-Alg");
    EXPECT_STREQ(algoName(AlgoKind::DiTileAlg), "DiTile-Alg");
    ASSERT_EQ(allAlgorithms().size(), 4u);
    EXPECT_EQ(allAlgorithms().front(), AlgoKind::ReAlg);
    EXPECT_EQ(allAlgorithms().back(), AlgoKind::DiTileAlg);
}

// VertexSet: all(n) holds only its bound, a list that covers [0, n)
// is made all(n), and copies share one list.
TEST(VertexSet, FullListCanonicalizesToAll)
{
    const VertexSet full({0, 1, 2, 3}, 4);
    EXPECT_TRUE(full.isAll());
    EXPECT_EQ(full.ids(), nullptr);
    EXPECT_EQ(full.size(), 4u);
    EXPECT_EQ(full, VertexSet::all(4));

    const VertexSet part({0, 2, 3}, 4);
    EXPECT_FALSE(part.isAll());
    ASSERT_NE(part.ids(), nullptr);
    EXPECT_EQ(part.size(), 3u);
    const VertexSet copy = part;
    EXPECT_EQ(copy.ids(), part.ids());

    // Empty is a list over n > 0 vertices and all(0) over none.
    EXPECT_FALSE(VertexSet().isAll());
    EXPECT_FALSE(VertexSet({}, 4).isAll());
    EXPECT_TRUE(VertexSet({}, 0).isAll());
    EXPECT_TRUE(VertexSet().empty());
}

TEST(VertexSet, IteratesAscendingInEitherForm)
{
    const std::vector<VertexId> ids = {1, 4, 5, 9};
    const std::vector<VertexId> iota = {0, 1, 2, 3, 4};
    const std::pair<VertexSet, std::vector<VertexId>> cases[] = {
        {VertexSet(ids, 10), ids},
        {VertexSet::all(5), iota},
        {VertexSet(), {}},
    };
    for (const auto &[set, want] : cases) {
        EXPECT_EQ(idsOf(set), want);
        std::vector<VertexId> visited;
        set.forEach([&](VertexId v) { visited.push_back(v); });
        EXPECT_EQ(visited, want);
    }
}

TEST(VertexSet, EqualityComparesContentAcrossForms)
{
    const auto all = VertexSet::all(3);
    // A list holding 0..n-1 exists only under a larger bound.
    EXPECT_EQ(all, VertexSet({0, 1, 2}, 8));
    EXPECT_EQ(VertexSet({0, 1, 2}, 8), all);
    EXPECT_NE(all, VertexSet({1, 2, 3}, 8));
    EXPECT_NE(all, VertexSet({0, 2}, 3));
    EXPECT_NE(all, VertexSet::all(4));
    EXPECT_EQ(VertexSet({2, 5}, 8), VertexSet({2, 5}, 9));
    EXPECT_NE(VertexSet({2, 5}, 8), VertexSet({2, 6}, 8));
    EXPECT_EQ(VertexSet(), VertexSet::all(0));
    EXPECT_EQ(VertexSet(), VertexSet({}, 8));
    EXPECT_NE(VertexSet(), VertexSet::all(1));
}

TEST(Planner, ReAlgIsAlwaysFull)
{
    const auto dg = smallDynamicGraph();
    IncrementalPlanner planner(dg, smallModel(), AlgoKind::ReAlg);
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        const auto &p = planner.plan(t);
        EXPECT_TRUE(p.fullRecompute);
        ASSERT_EQ(p.gcn.size(), 2u);
        for (const auto &lw : p.gcn) {
            EXPECT_TRUE(lw.vertices.isAll());
            EXPECT_EQ(static_cast<VertexId>(lw.vertices.size()),
                      dg.numVertices());
            EXPECT_EQ(lw.gatherEdges,
                      dg.snapshot(t).numAdjacencies());
            EXPECT_EQ(lw.uniqueInputs, dg.numVertices());
        }
        EXPECT_EQ(static_cast<VertexId>(p.rnnVertices.size()),
                  dg.numVertices());
    }
}

TEST(Planner, SnapshotZeroIsFullForEveryAlgorithm)
{
    const auto dg = smallDynamicGraph();
    for (AlgoKind kind : allAlgorithms()) {
        IncrementalPlanner planner(dg, smallModel(), kind);
        EXPECT_TRUE(planner.plan(0).fullRecompute) << algoName(kind);
    }
}

TEST(Planner, IncrementalPlansAreSortedUniqueAndSeeded)
{
    const auto dg = smallDynamicGraph();
    for (AlgoKind kind : {AlgoKind::RaceAlg, AlgoKind::MegaAlg,
                          AlgoKind::DiTileAlg}) {
        IncrementalPlanner planner(dg, smallModel(), kind);
        for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
            const auto &p = planner.plan(t);
            EXPECT_FALSE(p.fullRecompute);
            for (const auto &lw : p.gcn) {
                const auto ids = idsOf(lw.vertices);
                EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
                EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) ==
                            ids.end());
                EXPECT_EQ(lw.gatherEdges,
                          sumDegrees(dg.snapshot(t), lw.vertices));
                EXPECT_GE(lw.uniqueInputs,
                          static_cast<VertexId>(lw.vertices.size()));
            }
            EXPECT_EQ(p.adjacencyUpdates, dg.delta(t).numChanges());
        }
    }
}

TEST(Planner, LayerSetsGrowForGradedAlgorithms)
{
    const auto dg = smallDynamicGraph();
    for (AlgoKind kind : {AlgoKind::RaceAlg, AlgoKind::DiTileAlg}) {
        IncrementalPlanner planner(dg, smallModel(), kind);
        for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
            const auto &p = planner.plan(t);
            EXPECT_TRUE(includes(p.gcn[1].vertices, p.gcn[0].vertices))
                << algoName(kind) << " t=" << t;
        }
    }
}

TEST(Planner, MegaUsesCoarseEqualLayers)
{
    const auto dg = smallDynamicGraph();
    IncrementalPlanner planner(dg, smallModel(), AlgoKind::MegaAlg);
    for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
        const auto &p = planner.plan(t);
        EXPECT_EQ(p.gcn[0].vertices, p.gcn[1].vertices);
    }
}

TEST(Planner, OnlyDiTileRunsSelectiveRnn)
{
    const auto dg = smallDynamicGraph();
    for (AlgoKind kind : {AlgoKind::RaceAlg, AlgoKind::MegaAlg}) {
        IncrementalPlanner planner(dg, smallModel(), kind);
        for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
            EXPECT_EQ(static_cast<VertexId>(
                          planner.plan(t).rnnVertices.size()),
                      dg.numVertices())
                << algoName(kind);
        }
    }
    IncrementalPlanner ditile(dg, smallModel(), AlgoKind::DiTileAlg);
    bool some_selective = false;
    for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
        const auto &p = ditile.plan(t);
        EXPECT_LE(static_cast<VertexId>(p.rnnVertices.size()),
                  dg.numVertices());
        some_selective |= static_cast<VertexId>(p.rnnVertices.size()) <
            dg.numVertices();
    }
    EXPECT_TRUE(some_selective);
}

TEST(Planner, DiTileDirtyHiddenSetIsCumulative)
{
    const auto dg = smallDynamicGraph(9, 0.08, 6);
    IncrementalPlanner planner(dg, smallModel(), AlgoKind::DiTileAlg);
    for (SnapshotId t = 2; t < dg.numSnapshots(); ++t) {
        const auto &prev = planner.plan(t - 1).rnnVertices;
        const auto &cur = planner.plan(t).rnnVertices;
        EXPECT_TRUE(includes(cur, prev))
            << "dirty set shrank at t=" << t;
        // The current changed-z set is also always included.
        const auto &changed = planner.plan(t).gcn.back().vertices;
        EXPECT_TRUE(includes(cur, changed));
    }
}

TEST(Planner, ExactExpansionMatchesStructuralFrontier)
{
    const auto dg = smallDynamicGraph();
    IncrementalPlanner planner(dg, smallModel(), AlgoKind::RaceAlg,
                               /*exact_expansion=*/true);
    for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
        const auto &p = planner.plan(t);
        const auto seeds = dg.delta(t).affectedVertices();
        for (int l = 0; l < 2; ++l) {
            const auto expected =
                graph::expandFrontier(dg.snapshot(t), seeds, l);
            EXPECT_EQ(idsOf(p.gcn[static_cast<std::size_t>(l)].vertices),
                      expected)
                << "t=" << t << " layer=" << l;
        }
    }
}

TEST(Planner, DampedPlansAreSubsetsOfExactPlans)
{
    const auto dg = smallDynamicGraph();
    for (AlgoKind kind : {AlgoKind::RaceAlg, AlgoKind::DiTileAlg,
                          AlgoKind::MegaAlg}) {
        IncrementalPlanner damped(dg, smallModel(), kind);
        IncrementalPlanner exact(dg, smallModel(), kind, true);
        for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
            for (std::size_t l = 0; l < 2; ++l) {
                const auto &d = damped.plan(t).gcn[l].vertices;
                const auto &e = exact.plan(t).gcn[l].vertices;
                EXPECT_TRUE(includes(e, d))
                    << algoName(kind);
            }
        }
    }
}

TEST(Planner, LargerKappaExpandsMore)
{
    const auto dg = smallDynamicGraph();
    IncrementalPlanner narrow(dg, smallModel(), AlgoKind::RaceAlg,
                              false, 0.4);
    IncrementalPlanner wide(dg, smallModel(), AlgoKind::RaceAlg, false,
                            8.0);
    std::size_t narrow_total = 0;
    std::size_t wide_total = 0;
    for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
        narrow_total += narrow.plan(t).gcn[1].vertices.size();
        wide_total += wide.plan(t).gcn[1].vertices.size();
    }
    EXPECT_LT(narrow_total, wide_total);
}

TEST(Planner, ThreeLayerModelsPlanEveryLayer)
{
    const auto dg = smallDynamicGraph();
    DgnnConfig config;
    config.gcnDims = {16, 8, 4};
    config.lstmHidden = 4;
    for (AlgoKind kind : allAlgorithms()) {
        IncrementalPlanner planner(dg, config, kind);
        for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
            const auto &p = planner.plan(t);
            ASSERT_EQ(p.gcn.size(), 3u) << algoName(kind);
            if (t == 0 || kind == AlgoKind::ReAlg)
                continue;
            if (kind == AlgoKind::MegaAlg) {
                EXPECT_EQ(p.gcn[0].vertices, p.gcn[2].vertices);
            } else {
                // Graded growth across all three layers.
                EXPECT_TRUE(includes(p.gcn[2].vertices, p.gcn[1].vertices));
                EXPECT_TRUE(includes(p.gcn[1].vertices, p.gcn[0].vertices));
            }
        }
    }
}

TEST(Planner, SingleLayerModelWorks)
{
    const auto dg = smallDynamicGraph();
    DgnnConfig config;
    config.gcnDims = {8};
    config.lstmHidden = 8;
    IncrementalPlanner planner(dg, config, AlgoKind::DiTileAlg);
    for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
        const auto &p = planner.plan(t);
        ASSERT_EQ(p.gcn.size(), 1u);
        EXPECT_FALSE(p.gcn[0].vertices.empty());
    }
}

TEST(Planner, Deterministic)
{
    const auto dg = smallDynamicGraph();
    IncrementalPlanner a(dg, smallModel(), AlgoKind::DiTileAlg);
    IncrementalPlanner b(dg, smallModel(), AlgoKind::DiTileAlg);
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        EXPECT_EQ(a.plan(t).gcn[0].vertices, b.plan(t).gcn[0].vertices);
        EXPECT_EQ(a.plan(t).rnnVertices, b.plan(t).rnnVertices);
    }
}

// uniqueInputs is counted by the expansion walk (and a bitmap walk
// for the last layer); graph::expandFrontier is its oracle.
TEST(Planner, UniqueInputsMatchOneHopFrontier)
{
    DgnnConfig three;
    three.gcnDims = {16, 8, 4};
    three.lstmHidden = 4;
    for (const std::uint64_t seed : {3u, 11u}) {
        const auto dg = smallDynamicGraph(seed, 0.10, 5);
        for (const DgnnConfig &config : {smallModel(), three}) {
            for (AlgoKind kind : allAlgorithms()) {
                for (const bool exact : {false, true}) {
                    IncrementalPlanner planner(dg, config, kind, exact);
                    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
                        const auto &g = dg.snapshot(t);
                        const auto &p = planner.plan(t);
                        for (std::size_t l = 0; l < p.gcn.size(); ++l) {
                            const auto &lw = p.gcn[l];
                            EXPECT_EQ(
                                graph::expandFrontier(g, idsOf(lw.vertices),
                                                      1)
                                    .size(),
                                static_cast<std::size_t>(lw.uniqueInputs))
                                << algoName(kind) << " exact=" << exact
                                << " t=" << t << " layer=" << l;
                        }
                    }
                }
            }
        }
    }
}

void
expectSamePlans(const sim::PlanCache::SnapshotPlans &got,
                const sim::PlanCache::SnapshotPlans &want)
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

// PlanCache derives a Race or DiTile plan set from its resident
// sibling; the result and the cache counters must be those of a
// direct build.
TEST(PlanCacheSibling, DerivedPlansMatchDirectBuild)
{
    const auto dg = smallDynamicGraph(5, 0.12, 6);
    const DgnnConfig config = smallModel();
    const std::pair<AlgoKind, AlgoKind> orders[] = {
        {AlgoKind::RaceAlg, AlgoKind::DiTileAlg},
        {AlgoKind::DiTileAlg, AlgoKind::RaceAlg},
    };
    for (const auto &[first, second] : orders) {
        SCOPED_TRACE(algoName(second));
        ASSERT_EQ(layerSetSibling(second), first);
        sim::PlanCache cache;
        const auto built_first = cache.obtain(dg, config, first);
        const auto derived = cache.obtain(dg, config, second);
        expectSamePlans(*derived,
                        *sim::PlanCache::buildSnapshotPlans(dg, config,
                                                            second));
        expectSamePlans(*built_first,
                        *sim::PlanCache::buildSnapshotPlans(dg, config,
                                                            first));
        cache.obtain(dg, config, second);

        // The same sequence with a first entry that is not a sibling.
        sim::PlanCache plain;
        plain.obtain(dg, config, AlgoKind::MegaAlg);
        plain.obtain(dg, config, second);
        plain.obtain(dg, config, second);
        EXPECT_EQ(cache.hits(), plain.hits());
        EXPECT_EQ(cache.misses(), plain.misses());
        EXPECT_EQ(cache.size(), plain.size());
        EXPECT_EQ(1u, cache.hits());
        EXPECT_EQ(2u, cache.misses());
    }
    EXPECT_FALSE(layerSetSibling(AlgoKind::ReAlg).has_value());
    EXPECT_FALSE(layerSetSibling(AlgoKind::MegaAlg).has_value());
}

// The damping salt is t*16 + l, so plans are prefix-closed: a sweep's
// T=8 graph is the first 8 snapshots of its T=16 graph, and its plans
// must be the first 8 plans of the T=16 graph, for every algorithm
// (GCN sets, gather and unique counts, and the cumulative RNN sets).
TEST(PrefixClosure, ShorterGraphPlansArePrefixOfLonger)
{
    const DgnnConfig config;
    for (const double dis : {0.02, 0.10}) {
        SCOPED_TRACE(dis);
        graph::DatasetOptions options;
        options.scale = 0.5;
        options.dissimilarity = dis;
        options.seed = 42;
        options.numSnapshots = 8;
        const auto short_dg = graph::makeDataset("WD", options);
        options.numSnapshots = 16;
        const auto long_dg = graph::makeDataset("WD", options);
        EXPECT_EQ(short_dg.prefixKey(7), long_dg.prefixKey(7));
        for (AlgoKind kind : allAlgorithms()) {
            SCOPED_TRACE(algoName(kind));
            IncrementalPlanner short_plans(short_dg, config, kind);
            IncrementalPlanner long_plans(long_dg, config, kind);
            auto want = long_plans.releasePlans();
            want.resize(8);
            expectSamePlans(short_plans.releasePlans(), want);
        }
    }
}

// PlanCache extends a resident prefix: the T=6 plan set built from the
// resident T=3 set must be a direct build's, and the counters those of
// two plain misses. The reverse order (longer graph first) has no
// prefix to extend and must agree too.
TEST(PlanCachePrefix, ExtendedPlansMatchDirectBuild)
{
    const auto short_dg = smallDynamicGraph(5, 0.12, 3);
    const auto long_dg = smallDynamicGraph(5, 0.12, 6);
    ASSERT_EQ(short_dg.prefixKey(2), long_dg.prefixKey(2));
    const DgnnConfig config = smallModel();
    for (AlgoKind kind : allAlgorithms()) {
        SCOPED_TRACE(algoName(kind));
        for (const bool short_first : {true, false}) {
            sim::PlanCache cache;
            const auto &first = short_first ? short_dg : long_dg;
            const auto &second = short_first ? long_dg : short_dg;
            cache.obtain(first, config, kind);
            const auto got = cache.obtain(second, config, kind);
            expectSamePlans(*got, *sim::PlanCache::buildSnapshotPlans(
                                      second, config, kind));
            EXPECT_EQ(0u, cache.hits());
            EXPECT_EQ(2u, cache.misses());
        }
    }
}

// The prefix index holds plan keys, not plan sets: once the LRU evicts
// a plan set it is freed, and a later extension plans from scratch.
TEST(PlanCachePrefix, IndexPinsNoEvictedPlanSet)
{
    const auto short_dg = smallDynamicGraph(5, 0.12, 3);
    const auto long_dg = smallDynamicGraph(5, 0.12, 6);
    const auto other_dg = smallDynamicGraph(9, 0.12, 3);
    const DgnnConfig config = smallModel();
    sim::PlanCache cache;
    cache.setCapacity(1);
    std::weak_ptr<const sim::PlanCache::SnapshotPlans> evicted =
        cache.obtain(short_dg, config, AlgoKind::RaceAlg);
    cache.obtain(other_dg, config, AlgoKind::RaceAlg);
    cache.touch(sim::PlanCache::planKey(other_dg, config,
                                        AlgoKind::RaceAlg));
    const auto gone = cache.evictToCapacity();
    ASSERT_EQ(gone.size(), 1u);
    EXPECT_EQ(gone.front(), sim::PlanCache::planKey(short_dg, config,
                                                    AlgoKind::RaceAlg));
    EXPECT_TRUE(evicted.expired());
    const auto got = cache.obtain(long_dg, config, AlgoKind::RaceAlg);
    expectSamePlans(*got, *sim::PlanCache::buildSnapshotPlans(
                              long_dg, config, AlgoKind::RaceAlg));
}

/**
 * Functional incremental executor: replays a planner's plans on real
 * FP32 features, reusing cached per-layer outputs for unplanned
 * vertices. Row-wise arithmetic matches the full engine's operation
 * order exactly, so exact-expansion plans must be bit-identical.
 */
class IncrementalExecutor
{
  public:
    IncrementalExecutor(const graph::DynamicGraph &dg,
                        const DgnnConfig &config,
                        const DgnnWeights &weights,
                        const Matrix &features)
        : dg_(dg), config_(config), weights_(weights),
          features_(features)
    {
    }

    /** Execute snapshot t under the given plan; returns z. */
    void
    step(SnapshotId t, const SnapshotPlan &plan)
    {
        const auto &g = dg_.snapshot(t);
        const VertexId n = g.numVertices();
        std::vector<float> inv_sqrt(static_cast<std::size_t>(n));
        for (VertexId v = 0; v < n; ++v)
            inv_sqrt[static_cast<std::size_t>(v)] =
                1.0f / std::sqrt(static_cast<float>(g.degree(v) + 1));

        if (layers_.empty()) {
            for (int l = 0; l < config_.numGcnLayers(); ++l)
                layers_.emplace_back(n, config_.gcnOutputDim(l));
            h_ = Matrix(n, config_.lstmHidden);
            c_ = Matrix(n, config_.lstmHidden);
        }

        for (int l = 0; l < config_.numGcnLayers(); ++l) {
            const Matrix &input = l == 0
                ? features_
                : layers_[static_cast<std::size_t>(l - 1)];
            Matrix &output = layers_[static_cast<std::size_t>(l)];
            const Matrix &w = weights_.gcn[static_cast<std::size_t>(l)];
            plan.gcn[static_cast<std::size_t>(l)].vertices.forEach(
                [&](VertexId v) {
                    recomputeVertex(g, inv_sqrt, input, w, v, output);
                });
        }
        plan.rnnVertices.forEach([&](VertexId v) { lstmRow(v); });
    }

    const Matrix &z() const { return layers_.back(); }
    const Matrix &h() const { return h_; }
    const Matrix &c() const { return c_; }

  private:
    void
    recomputeVertex(const graph::Csr &g,
                    const std::vector<float> &inv_sqrt,
                    const Matrix &input, const Matrix &w, VertexId v,
                    Matrix &output)
    {
        const int in_dim = input.cols();
        std::vector<float> agg(static_cast<std::size_t>(in_dim), 0.0f);
        const float dv = inv_sqrt[static_cast<std::size_t>(v)];
        {
            const float coef = dv * dv;
            const float *in = input.row(v);
            for (int c = 0; c < in_dim; ++c)
                agg[static_cast<std::size_t>(c)] += coef * in[c];
        }
        for (VertexId u : g.neighbors(v)) {
            const float coef =
                dv * inv_sqrt[static_cast<std::size_t>(u)];
            const float *in = input.row(u);
            for (int c = 0; c < in_dim; ++c)
                agg[static_cast<std::size_t>(c)] += coef * in[c];
        }
        float *out = output.row(v);
        for (int c = 0; c < output.cols(); ++c)
            out[c] = 0.0f;
        for (int k = 0; k < in_dim; ++k) {
            const float a = agg[static_cast<std::size_t>(k)];
            if (a == 0.0f)
                continue;
            const float *wrow = w.row(k);
            for (int c = 0; c < output.cols(); ++c)
                out[c] += a * wrow[c];
        }
        for (int c = 0; c < output.cols(); ++c)
            out[c] = out[c] > 0.0f ? out[c] : 0.0f;
    }

    void
    lstmRow(VertexId v)
    {
        const int hidden = config_.lstmHidden;
        const Matrix &z = layers_.back();
        auto gate = [&](const Matrix &wz, const Matrix &uh) {
            std::vector<float> out(static_cast<std::size_t>(hidden),
                                   0.0f);
            for (int k = 0; k < z.cols(); ++k) {
                const float a = z.at(v, k);
                if (a == 0.0f)
                    continue;
                const float *wrow = wz.row(k);
                for (int c = 0; c < hidden; ++c)
                    out[static_cast<std::size_t>(c)] += a * wrow[c];
            }
            std::vector<float> hpart(static_cast<std::size_t>(hidden),
                                     0.0f);
            for (int k = 0; k < hidden; ++k) {
                const float a = h_.at(v, k);
                if (a == 0.0f)
                    continue;
                const float *urow = uh.row(k);
                for (int c = 0; c < hidden; ++c)
                    hpart[static_cast<std::size_t>(c)] += a * urow[c];
            }
            for (int c = 0; c < hidden; ++c)
                out[static_cast<std::size_t>(c)] +=
                    hpart[static_cast<std::size_t>(c)];
            return out;
        };
        auto gi = gate(weights_.wi, weights_.ui);
        auto gf = gate(weights_.wf, weights_.uf);
        auto go = gate(weights_.wo, weights_.uo);
        auto gc = gate(weights_.wc, weights_.uc);
        for (int c = 0; c < hidden; ++c) {
            const float i = sigmoid(gi[static_cast<std::size_t>(c)]);
            const float f = sigmoid(gf[static_cast<std::size_t>(c)]);
            const float o = sigmoid(go[static_cast<std::size_t>(c)]);
            const float gg =
                std::tanh(gc[static_cast<std::size_t>(c)]);
            const float cc = f * c_.at(v, c) + i * gg;
            c_.at(v, c) = cc;
            h_.at(v, c) = o * std::tanh(cc);
        }
    }

    const graph::DynamicGraph &dg_;
    DgnnConfig config_;
    const DgnnWeights &weights_;
    Matrix features_;
    std::vector<Matrix> layers_;
    Matrix h_;
    Matrix c_;
};

/**
 * Build a normalization-exact plan for snapshot t: with symmetric
 * GCN normalization, a degree change at a seed also changes the
 * aggregation *coefficients* of the seed's neighbors, so the truly
 * exact layer-l set is the (l+1)-hop structural frontier (one hop
 * beyond the value-propagation frontier the planner uses, which
 * matches the sum-aggregation semantics of prior work).
 */
SnapshotPlan
normalizationExactPlan(const graph::DynamicGraph &dg, SnapshotId t,
                       int layers)
{
    const auto &g = dg.snapshot(t);
    SnapshotPlan p;
    p.gcn.resize(static_cast<std::size_t>(layers));
    const auto seeds = dg.delta(t).affectedVertices();
    for (int l = 0; l < layers; ++l) {
        p.gcn[static_cast<std::size_t>(l)].vertices = VertexSet(
            graph::expandFrontier(g, seeds, l + 1), g.numVertices());
    }
    p.rnnVertices = VertexSet::all(g.numVertices());
    return p;
}

/**
 * The headline correctness theorem of the incremental machinery:
 * recomputing only the normalization-exact affected sets reproduces
 * full recomputation bit for bit; the planner's structural frontier
 * (which ignores the coefficient leak, like sum-aggregation prior
 * work) stays within float-epsilon distance.
 */
class ExactEquivalence : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ExactEquivalence, RaceExactMatchesFullRecompute)
{
    const auto dg = smallDynamicGraph(GetParam(), 0.10, 4);
    const auto config = smallModel();
    const auto weights = DgnnWeights::random(config, dg.featureDim(),
                                             GetParam() + 100);
    Rng rng(GetParam() + 200);
    const auto features =
        Matrix::random(dg.numVertices(), dg.featureDim(), rng, 0.5f);

    const auto full = dgnnForward(dg, features, config, weights);

    IncrementalPlanner planner(dg, config, AlgoKind::RaceAlg, true);
    IncrementalExecutor exact(dg, config, weights, features);
    IncrementalExecutor planned(dg, config, weights, features);
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        if (t == 0) {
            exact.step(t, planner.plan(t)); // full plan at t = 0.
        } else {
            exact.step(t, normalizationExactPlan(
                              dg, t, config.numGcnLayers()));
        }
        planned.step(t, planner.plan(t));
        const auto &expect = full[static_cast<std::size_t>(t)];
        EXPECT_FLOAT_EQ(exact.z().maxAbsDiff(expect.z), 0.0f)
            << "z mismatch at t=" << t;
        EXPECT_FLOAT_EQ(exact.h().maxAbsDiff(expect.h), 0.0f)
            << "h mismatch at t=" << t;
        EXPECT_FLOAT_EQ(exact.c().maxAbsDiff(expect.c), 0.0f)
            << "c mismatch at t=" << t;
        // The value-frontier plan misses only coefficient-scale
        // perturbations (1/sqrt(deg) shifts on unchanged neighbors).
        EXPECT_LT(planned.z().maxAbsDiff(expect.z), 5e-3f)
            << "planner drift at t=" << t;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactEquivalence,
                         ::testing::Values(1u, 5u, 23u));

/**
 * Value-level damping is an approximation; its error must be bounded
 * by the error of reusing everything (no recomputation at all), and
 * the exact-expansion error is zero by the theorem above.
 */
TEST(DampedApproximation, BetterThanFullReuse)
{
    const auto dg = smallDynamicGraph(7, 0.10, 4);
    const auto config = smallModel();
    const auto weights = DgnnWeights::random(config, dg.featureDim(),
                                             42);
    Rng rng(43);
    const auto features =
        Matrix::random(dg.numVertices(), dg.featureDim(), rng, 0.5f);
    const auto full = dgnnForward(dg, features, config, weights);

    // Damped incremental execution.
    IncrementalPlanner planner(dg, config, AlgoKind::RaceAlg);
    IncrementalExecutor damped(dg, config, weights, features);
    // Full-reuse strawman: only ever computes snapshot 0.
    IncrementalExecutor frozen(dg, config, weights, features);

    float damped_err = 0.0f;
    float frozen_err = 0.0f;
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        damped.step(t, planner.plan(t));
        if (t == 0)
            frozen.step(t, planner.plan(t));
        const auto &expect = full[static_cast<std::size_t>(t)].z;
        damped_err =
            std::max(damped_err, damped.z().maxAbsDiff(expect));
        frozen_err =
            std::max(frozen_err, frozen.z().maxAbsDiff(expect));
    }
    EXPECT_GT(frozen_err, 0.0f);
    EXPECT_LE(damped_err, frozen_err);
}

} // namespace
} // namespace ditile::model
