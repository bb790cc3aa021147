/**
 * @file
 * Re-entrant, memoizing plan+execute entry for concurrent tenants.
 *
 * The batch CLIs call Accelerator::plan()/execute() from one thread
 * per accelerator object, which lets the concrete accelerators keep
 * convenience state from the last run (DiTileAccelerator::lastPlan()
 * et al.). The serving tier breaks that assumption: one logical
 * accelerator answers queries for many tenants concurrently inside a
 * parallelFor batch.
 *
 * ConcurrentRunner restores re-entrancy by construction instead of by
 * locking: every executed infer() builds a *fresh* accelerator
 * instance from the injected factory, so all mutable planner state is
 * confined to the call. The per-snapshot SnapshotPlans are shared
 * through the internally synchronized PlanCache, and executePlan() is
 * a pure replay over const inputs whose internal parallelFor nests
 * safely in the global pool.
 *
 * Because the runner's factory fixes the hardware and always runs the
 * overlap task graph, an inference is a pure function of (plan key,
 * fault spec). The runner therefore memoizes the compact outcome of
 * every successful run under that pair: a repeat query on a quiet
 * tenant costs one key lookup and never builds an accelerator, plans
 * or executes. The memo lives here rather than in the PlanCache
 * because a PlanCache may be shared by accelerator families (ReaDy
 * and DGNN-Booster share Re-Alg) or chips, where a plan key alone
 * does not identify the executor. It is
 * bounded by the plan cache's LRU: evictToCapacity() drops a plan
 * key's outcomes together with its plan set.
 */

#ifndef DITILE_SIM_SERVING_HH
#define DITILE_SIM_SERVING_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sim/accelerator.hh"
#include "sim/fault_model.hh"
#include "sim/plan_cache.hh"

namespace ditile::sim {

/** Builds a fresh accelerator instance per call. */
using AcceleratorFactory =
    std::function<std::unique_ptr<Accelerator>()>;

/**
 * The modeled costs a serve response reports — all the memo keeps of
 * a RunResult.
 */
struct QueryOutcome
{
    Cycle totalCycles = 0;
    OpCount ops = 0;         ///< RunResult::ops.totalArithmetic().
    ByteCount dramBytes = 0; ///< RunResult::dramTraffic.total().
    ByteCount nocBytes = 0;
};

/**
 * A fault spec with its memo fingerprint (FNV-1a of the canonical
 * toString()), hashed once where a batch pins its spec rather than
 * once per query.
 */
class PinnedFaults
{
  public:
    PinnedFaults() : PinnedFaults(FaultSpec{}) {}
    explicit PinnedFaults(FaultSpec spec);

    const FaultSpec &spec() const { return spec_; }
    std::uint64_t fingerprint() const { return fingerprint_; }

  private:
    FaultSpec spec_;
    std::uint64_t fingerprint_;
};

/**
 * Thread-safe, memoizing inference front end over one accelerator
 * family and its own PlanCache.
 */
class ConcurrentRunner
{
  public:
    /** `plan_capacity` bounds the plan cache (0 = unbounded). */
    explicit ConcurrentRunner(AcceleratorFactory factory,
                              std::size_t plan_capacity = 0);

    /**
     * The outcome of one inference: memoized, or planned (through the
     * cache) and executed. Safe to call concurrently from pool
     * workers; outcomes are a pure function of (dg, config, faults),
     * independent of interleaving. Execution always uses the overlap
     * task graph: the serving tier reports pipelined latency. A
     * non-empty fault spec is spliced into the execution plan; a spec
     * that does not resolve against the hardware throws InputError
     * from inside execution — typed and recoverable, which the serving
     * tier turns into `err exec` plus breaker feedback. Failed runs are
     * never memoized. Emits cache.result.hits / cache.result.misses.
     */
    QueryOutcome infer(const graph::DynamicGraph &dg,
                       const model::DgnnConfig &config,
                       const PinnedFaults &faults = PinnedFaults{});

    /**
     * The cache key infer() will use for these inputs, or 0 while the
     * algorithm is still unlatched (empty cache, nothing predicted).
     * Only meaningful from serial program points.
     */
    std::uint64_t planKeyFor(const graph::DynamicGraph &dg,
                             const model::DgnnConfig &config) const;

    /**
     * The update algorithm latched from the first built plan, as an
     * int for checkpointing; -1 while unknown. latchAlgo() restores a
     * checkpointed value so hit predictions survive a restart with a
     * cold cache (pass -1 to leave unlatched).
     */
    int algoIfKnown() const;
    void latchAlgo(int algo);

    const PlanCache &planCache() const { return cache_; }

    /** Mark a plan key most recently used (see PlanCache::touch). */
    void touch(std::uint64_t key) { cache_.touch(key); }

    /**
     * Enforce the plan-cache bound, dropping each evicted key's
     * memoized outcomes with it. Serial points only; returns the
     * evicted keys.
     */
    std::vector<std::uint64_t> evictToCapacity();

    /** Plan keys that currently hold memoized outcomes. */
    std::size_t memoizedKeys() const;

  private:
    /** One memoized outcome under a plan key. */
    struct MemoEntry
    {
        std::uint64_t faults; ///< PinnedFaults::fingerprint().
        QueryOutcome outcome;
    };

    /** The outcome memoized under (key, faults), or null. Caller
     *  holds mutex_. */
    const QueryOutcome *memoized(std::uint64_t key,
                                 std::uint64_t faults) const;

    AcceleratorFactory factory_;
    PlanCache cache_;

    mutable std::mutex mutex_; ///< Guards algo_ and memo_.
    /** Update algorithm as an int, latched from the first built plan
     *  (the plan key depends on it); -1 until then. */
    int algo_ = -1;
    /** Outcomes per plan key; a key holds one entry per fault spec
     *  it has been executed under. */
    std::unordered_map<std::uint64_t, std::vector<MemoEntry>> memo_;
};

} // namespace ditile::sim

#endif // DITILE_SIM_SERVING_HH
