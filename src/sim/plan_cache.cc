/**
 * @file
 * PlanCache implementation.
 */

#include "sim/plan_cache.hh"

#include <cstdio>

#include "common/hash.hh"
#include "common/trace.hh"
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
    const std::uint64_t key = planKey(dg, config, algo);
    const auto sibling_algo = model::layerSetSibling(algo);
    const std::uint64_t sibling_key =
        sibling_algo ? planKey(dg, config, *sibling_algo) : key;
    std::shared_ptr<const SnapshotPlans> cached;
    std::shared_ptr<const SnapshotPlans> sibling;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++hits_;
            cached = it->second;
        } else if (sibling_algo) {
            // Read without counting a lookup or touching recency: the
            // counters and eviction order stay those of a plain miss.
            const auto sib = entries_.find(sibling_key);
            if (sib != entries_.end())
                sibling = sib->second;
        }
    }
    // Observability events fire outside the critical section; lookups
    // happen at serial points of a run, so traces stay deterministic.
    if (cached) {
        Tracer::global().cacheInstant("plan-cache hit", key);
        Tracer::global().addMetric("cache.plan.hits", 1);
        return cached;
    }
    Tracer::global().cacheInstant("plan-cache miss", key);
    Tracer::global().addMetric("cache.plan.misses", 1);
    // Plan outside the lock so concurrent misses on different keys
    // proceed in parallel. A resident sibling already holds this
    // algorithm's GCN layer sets; only the RNN sets are redone.
    std::shared_ptr<const SnapshotPlans> plans;
    if (sibling) {
        auto derived = std::make_shared<SnapshotPlans>(*sibling);
        model::assignRnnVertices(dg, algo, *derived);
        plans = std::move(derived);
    } else {
        plans = buildSnapshotPlans(dg, config, algo);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    const auto [it, inserted] = entries_.emplace(key, std::move(plans));
    return it->second;
}

bool
PlanCache::contains(std::uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.find(key) != entries_.end();
}

void
PlanCache::setCapacity(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity;
}

std::size_t
PlanCache::capacity() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
}

void
PlanCache::touch(std::uint64_t key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    recency_[key] = ++touchSeq_;
}

std::vector<std::uint64_t>
PlanCache::evictToCapacity()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint64_t> evicted;
    if (capacity_ == 0)
        return evicted;
    while (entries_.size() > capacity_) {
        // Least-recently-touched; untouched entries carry recency 0
        // and go first, with ascending key as the deterministic
        // tie-break (hash-map order never leaks into the choice).
        std::uint64_t victim = 0;
        std::uint64_t victim_recency = ~0ull;
        bool have = false;
        for (const auto &[key, plans] : entries_) {
            const auto it = recency_.find(key);
            const std::uint64_t r =
                it == recency_.end() ? 0 : it->second;
            if (!have || r < victim_recency ||
                (r == victim_recency && key < victim)) {
                victim = key;
                victim_recency = r;
                have = true;
            }
        }
        entries_.erase(victim);
        recency_.erase(victim);
        evicted.push_back(victim);
        ++evictions_;
        Tracer::global().addMetric("cache.plan.evictions", 1);
    }
    return evicted;
}

std::uint64_t
PlanCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
PlanCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::uint64_t
PlanCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

std::size_t
PlanCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
PlanCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    recency_.clear();
    touchSeq_ = 0;
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
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
