/**
 * @file
 * PlanCache implementation.
 */

#include "sim/plan_cache.hh"

#include <algorithm>
#include <cstdio>

#include "common/hash.hh"
#include "sim/execution_plan.hh"
#include "tiling/comm_model.hh"
#include "workload/digest.hh"

namespace ditile::sim {

namespace {

/** Mix the model shape and the algorithm: every non-graph planning
 *  input. */
void
mixPlanInputs(WordHasher &hasher, const model::DgnnConfig &config,
              model::AlgoKind algo)
{
    hasher.mix(static_cast<std::uint64_t>(algo));
    hasher.mix(static_cast<std::uint64_t>(config.lstmHidden));
    hasher.mix(static_cast<std::uint64_t>(config.bytesPerValue));
    hasher.mix(static_cast<std::uint64_t>(config.aggregator));
    hasher.mix(static_cast<std::uint64_t>(config.rnn));
    hasher.mix(static_cast<std::uint64_t>(config.precision));
    for (int d : config.gcnDims)
        hasher.mix(static_cast<std::uint64_t>(d));
}

} // namespace

PlanCache::PlanCache()
{
    // One evaluation: the callers that repeat one (a harness's overlap
    // run then its staged twin, bench_scaleout's link sweep over one
    // 4-chip plan) repeat the one just made, and a sweep's distinct
    // grid points never repeat one. A second entry would only keep a
    // dead evaluation, and the snapshot-plan set its key holds, alive.
    evaluations_.setCapacity(1);
    placements_.setCapacity(kPlacementCapacity);
}

std::shared_ptr<const PlanCache::SnapshotPlans>
PlanCache::buildSnapshotPlans(const graph::DynamicGraph &dg,
                              const model::DgnnConfig &config,
                              model::AlgoKind algo)
{
    model::IncrementalPlanner planner(dg, config, algo);
    return std::make_shared<const SnapshotPlans>(planner.releasePlans());
}

std::uint64_t
PlanCache::planKey(const graph::DynamicGraph &dg,
                   const model::DgnnConfig &config, model::AlgoKind algo)
{
    WordHasher hasher;
    mixPlanInputs(hasher, config, algo);
    // Structure walk shared with the workload-digest keys so both
    // caches agree on what "the same graph" means.
    hasher.mix(graph::structureHash(dg));
    return hasher.h;
}

std::uint64_t
PlanCache::prefixIndexKey(const graph::DynamicGraph &dg, SnapshotId t,
                          const model::DgnnConfig &config,
                          model::AlgoKind algo)
{
    WordHasher hasher;
    hasher.mix(0x505245464958ull); // "PREFIX" tag.
    mixPlanInputs(hasher, config, algo);
    hasher.mix(dg.prefixKey(t));
    return hasher.h;
}

PlanCache::SnapshotPlans
PlanCache::residentPrefix(const graph::DynamicGraph &dg,
                          const model::DgnnConfig &config,
                          model::AlgoKind algo) const
{
    for (SnapshotId t = dg.numSnapshots() - 1; t >= 0; --t) {
        const std::uint64_t index_key =
            prefixIndexKey(dg, t, config, algo);
        std::uint64_t plan_key = 0;
        {
            std::lock_guard<std::mutex> lock(indexMutex_);
            const auto it = prefixIndex_.find(index_key);
            if (it == prefixIndex_.end())
                continue;
            plan_key = it->second;
        }
        const auto plans = entries_.peek(plan_key);
        const auto length = static_cast<std::size_t>(t) + 1;
        if (plans && (*plans)->size() >= length)
            return SnapshotPlans((*plans)->begin(),
                                 (*plans)->begin() +
                                     static_cast<std::ptrdiff_t>(length));
    }
    return {};
}

std::shared_ptr<const PlanCache::SnapshotPlans>
PlanCache::obtain(const graph::DynamicGraph &dg,
                  const model::DgnnConfig &config, model::AlgoKind algo)
{
    const std::uint64_t key = planKey(dg, config, algo);
    return entries_.obtain(key, [&] {
        std::shared_ptr<const SnapshotPlans> plans;
        // A resident sibling already holds this algorithm's GCN layer
        // sets; only the RNN sets are redone.
        const auto sibling_algo = model::layerSetSibling(algo);
        const auto sibling = sibling_algo
            ? entries_.peek(planKey(dg, config, *sibling_algo))
            : std::nullopt;
        if (sibling) {
            auto derived = std::make_shared<SnapshotPlans>(**sibling);
            // A resident prefix of this algorithm already holds the
            // first RNN sets, which assignRnnVertices then keeps.
            const SnapshotPlans prefix = residentPrefix(dg, config, algo);
            std::copy(prefix.begin(), prefix.end(), derived->begin());
            model::assignRnnVertices(dg, algo, *derived);
            plans = std::move(derived);
        } else if (auto prefix = residentPrefix(dg, config, algo);
                   !prefix.empty()) {
            model::IncrementalPlanner planner(dg, config, algo,
                                              std::move(prefix));
            plans = std::make_shared<const SnapshotPlans>(
                planner.releasePlans());
        } else {
            plans = buildSnapshotPlans(dg, config, algo);
        }
        std::lock_guard<std::mutex> lock(indexMutex_);
        for (SnapshotId t = 0; t < dg.numSnapshots(); ++t)
            prefixIndex_[prefixIndexKey(dg, t, config, algo)] = key;
        return plans;
    });
}

std::shared_ptr<const Evaluation>
PlanCache::evaluation(const graph::DynamicGraph &dg,
                      const ExecutionPlan &plan)
{
    WordHasher hasher;
    hasher.mix(graph::structureHash(dg));
    hasher.mix(fnv1a(dg.name()));
    // The digest fast paths change only the evaluation's counters.
    hasher.mix(workload::digestEnabled() ? 1 : 0);
    hasher.mix(evaluationFieldsHash(plan));
    const EvaluationKey key(hasher.h, plan.snapshots);
    auto eval = evaluations_.obtain(key, [&] {
        return std::make_shared<const Evaluation>(evaluate(dg, plan, this));
    });
    // Touched once published, so the bound evicts the older entry.
    evaluations_.touch(key);
    evaluations_.evictToCapacity();
    return eval;
}

void
PlanCache::retainPlacements(const std::vector<std::uint64_t> &keys)
{
    for (const std::uint64_t key : keys)
        placements_.touch(key);
    placements_.evictToCapacity();
}

std::vector<std::uint64_t>
PlanCache::evictToCapacity()
{
    std::vector<std::uint64_t> evicted = entries_.evictToCapacity();
    if (!evicted.empty()) {
        std::lock_guard<std::mutex> lock(indexMutex_);
        std::erase_if(prefixIndex_, [&](const auto &entry) {
            return std::find(evicted.begin(), evicted.end(),
                             entry.second) != evicted.end();
        });
    }
    return evicted;
}

void
PlanCache::clear()
{
    entries_.clear();
    evaluations_.clear();
    placements_.clear();
    std::lock_guard<std::mutex> lock(indexMutex_);
    prefixIndex_.clear();
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
