/**
 * @file
 * ConcurrentRunner implementation.
 */

#include "sim/serving.hh"

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/trace.hh"

namespace ditile::sim {

PinnedFaults::PinnedFaults(FaultSpec spec)
    : spec_(std::move(spec)), fingerprint_(fnv1a(spec_.toString()))
{
}

ConcurrentRunner::ConcurrentRunner(AcceleratorFactory factory,
                                   std::size_t plan_capacity)
{
    DITILE_ASSERT(factory, "ConcurrentRunner needs a factory");
    accel_ = factory();
    DITILE_ASSERT(accel_, "accelerator factory returned null");
    cache_.setCapacity(plan_capacity);
}

QueryOutcome
ConcurrentRunner::infer(const graph::DynamicGraph &dg,
                        const model::DgnnConfig &config,
                        const PinnedFaults &faults)
{
    QueryOutcome outcome;
    bool hit = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Until the algorithm is latched nothing can be memoized, so
        // the very first query misses without a key.
        const QueryOutcome *memo = algo_ < 0
            ? nullptr
            : memoized(PlanCache::planKey(
                           dg, config,
                           static_cast<model::AlgoKind>(algo_)),
                       faults.fingerprint());
        if (memo) {
            outcome = *memo;
            hit = true;
        }
    }
    Tracer::global().addMetric(hit ? "cache.result.hits"
                                   : "cache.result.misses",
                               1);
    if (hit)
        return outcome;

    auto plan = accel_->plan(dg, config, &cache_);
    plan.options.overlap = true;
    if (!faults.spec().empty())
        plan.faults = faults.spec();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (algo_ < 0)
            algo_ = static_cast<int>(plan.options.algo);
    }
    // An InputError thrown here leaves nothing memoized.
    const RunResult result = executePlan(dg, plan);
    outcome = {result.totalCycles, result.ops.totalArithmetic(),
               result.dramTraffic.total(), result.nocBytes};

    const std::uint64_t key =
        PlanCache::planKey(dg, config, plan.options.algo);
    // Publish only under a key the plan cache holds, so the memo never
    // outlives the LRU that bounds it. Eviction runs at serial points,
    // never concurrently with infer().
    if (cache_.contains(key)) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!memoized(key, faults.fingerprint()))
            memo_[key].push_back({faults.fingerprint(), outcome});
    }
    return outcome;
}

const QueryOutcome *
ConcurrentRunner::memoized(std::uint64_t key,
                           std::uint64_t faults) const
{
    const auto it = memo_.find(key);
    if (it == memo_.end())
        return nullptr;
    for (const MemoEntry &entry : it->second)
        if (entry.faults == faults)
            return &entry.outcome;
    return nullptr;
}

std::uint64_t
ConcurrentRunner::planKeyFor(const graph::DynamicGraph &dg,
                             const model::DgnnConfig &config) const
{
    const int algo = algoIfKnown();
    if (algo < 0)
        return 0;
    return PlanCache::planKey(dg, config,
                              static_cast<model::AlgoKind>(algo));
}

int
ConcurrentRunner::algoIfKnown() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return algo_;
}

void
ConcurrentRunner::latchAlgo(int algo)
{
    if (algo < 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    algo_ = algo;
}

std::vector<std::uint64_t>
ConcurrentRunner::evictToCapacity()
{
    std::vector<std::uint64_t> evicted = cache_.evictToCapacity();
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::uint64_t key : evicted)
        memo_.erase(key);
    return evicted;
}

std::size_t
ConcurrentRunner::memoizedKeys() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return memo_.size();
}

} // namespace ditile::sim
