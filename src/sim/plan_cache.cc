/**
 * @file
 * PlanCache implementation.
 */

#include "sim/plan_cache.hh"

#include <cstdio>

#include "common/hash.hh"
#include "tiling/comm_model.hh"
#include "workload/digest.hh"

namespace ditile::sim {

std::shared_ptr<const PlanCache::SnapshotPlans>
PlanCache::buildSnapshotPlans(const graph::DynamicGraph &dg,
                              const model::DgnnConfig &config,
                              model::AlgoKind algo)
{
    model::IncrementalPlanner planner(dg, config, algo);
    auto plans = std::make_shared<SnapshotPlans>();
    plans->reserve(static_cast<std::size_t>(dg.numSnapshots()));
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t)
        plans->push_back(planner.plan(t));
    return plans;
}

std::uint64_t
PlanCache::planKey(const graph::DynamicGraph &dg,
                   const model::DgnnConfig &config, model::AlgoKind algo)
{
    WordHasher hasher;
    hasher.mix(static_cast<std::uint64_t>(algo));
    hasher.mix(static_cast<std::uint64_t>(config.lstmHidden));
    hasher.mix(static_cast<std::uint64_t>(config.bytesPerValue));
    hasher.mix(static_cast<std::uint64_t>(config.aggregator));
    hasher.mix(static_cast<std::uint64_t>(config.rnn));
    hasher.mix(static_cast<std::uint64_t>(config.precision));
    for (int d : config.gcnDims)
        hasher.mix(static_cast<std::uint64_t>(d));
    // Structure walk shared with the workload-digest keys so both
    // caches agree on what "the same graph" means.
    hasher.mix(graph::structureHash(dg));
    return hasher.h;
}

std::shared_ptr<const PlanCache::SnapshotPlans>
PlanCache::obtain(const graph::DynamicGraph &dg,
                  const model::DgnnConfig &config, model::AlgoKind algo)
{
    return entries_.obtain(planKey(dg, config, algo), [&] {
        // A resident sibling already holds this algorithm's GCN layer
        // sets; only the RNN sets are redone.
        const auto sibling_algo = model::layerSetSibling(algo);
        const auto sibling = sibling_algo
            ? entries_.peek(planKey(dg, config, *sibling_algo))
            : std::nullopt;
        if (!sibling)
            return buildSnapshotPlans(dg, config, algo);
        auto derived = std::make_shared<SnapshotPlans>(**sibling);
        model::assignRnnVertices(dg, algo, *derived);
        return std::shared_ptr<const SnapshotPlans>(std::move(derived));
    });
}

void
printCacheStats(std::FILE *out, const PlanCache &plan_cache)
{
    const auto &digests = workload::DigestCache::global();
    const auto &comm = tiling::CommModelCache::global();
    std::fprintf(out, "cache stats (consolidated):\n");
    std::fprintf(
        out, "  plan cache: %llu hits, %llu misses, %zu entries\n",
        static_cast<unsigned long long>(plan_cache.hits()),
        static_cast<unsigned long long>(plan_cache.misses()),
        plan_cache.size());
    std::fprintf(
        out,
        "  workload digest cache: %llu hits, %llu misses, "
        "%zu entries (digests %s)\n",
        static_cast<unsigned long long>(digests.hits()),
        static_cast<unsigned long long>(digests.misses()),
        digests.size(),
        workload::digestEnabled() ? "enabled" : "disabled");
    std::fprintf(
        out, "  comm model memo: %llu hits, %llu misses, %zu points\n",
        static_cast<unsigned long long>(comm.hits()),
        static_cast<unsigned long long>(comm.misses()), comm.size());
}

} // namespace ditile::sim
