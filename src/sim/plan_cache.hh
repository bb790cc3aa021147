/**
 * @file
 * Content-hash-keyed cache of IncrementalPlanner outputs.
 *
 * The per-snapshot SnapshotPlans are the expensive part of planning
 * (damped multi-layer frontier expansion over every snapshot), and
 * they depend only on (graph content, model shape, update algorithm).
 * Accelerators and ablation variants that share those inputs — the
 * seven Fig-11b DiTile variants, or ReaDy and DGNN-Booster's common
 * Re-Alg — can therefore share one plan set. The cache keys on a
 * content hash of the planning inputs, so it works across separately
 * constructed but identical workloads (e.g. sweep grid points that
 * regenerate the same dataset). Race-Alg and DiTile-Alg plan identical
 * GCN layer sets (model::layerSetSibling), so a miss on one whose
 * sibling is resident copies the sibling's plans and recomputes only
 * the RNN sets (model::assignRnnVertices) instead of re-expanding.
 *
 * Thread-safe: lookups lock, misses plan outside the lock (the first
 * finished writer wins; losers reuse the published set).
 */

#ifndef DITILE_SIM_PLAN_CACHE_HH
#define DITILE_SIM_PLAN_CACHE_HH

#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/dynamic_graph.hh"
#include "model/incremental.hh"

namespace ditile::sim {

class PlanCache
{
  public:
    using SnapshotPlans = std::vector<model::SnapshotPlan>;

    /** Build a plan set directly, bypassing any cache. */
    static std::shared_ptr<const SnapshotPlans>
    buildSnapshotPlans(const graph::DynamicGraph &dg,
                       const model::DgnnConfig &config,
                       model::AlgoKind algo);

    /**
     * Content hash of one planning input set: graph structure (every
     * adjacency list of every snapshot), model shape, and algorithm.
     */
    static std::uint64_t planKey(const graph::DynamicGraph &dg,
                                 const model::DgnnConfig &config,
                                 model::AlgoKind algo);

    /**
     * Return the cached plan set for the inputs, planning on miss
     * (from a resident layer-set sibling when there is one; reading
     * the sibling counts no lookup and touches no recency).
     */
    std::shared_ptr<const SnapshotPlans>
    obtain(const graph::DynamicGraph &dg,
           const model::DgnnConfig &config, model::AlgoKind algo);

    /**
     * Whether a plan set for `key` is published. A hit predicts that
     * obtain() with the same inputs will be served from cache; only
     * meaningful from serial points (the serving tier's admission
     * step), since concurrent writers may publish in between.
     */
    bool contains(std::uint64_t key) const;

    /**
     * Bound the number of published plan sets; 0 (the default) means
     * unbounded. The bound is enforced only by evictToCapacity() —
     * obtain() never evicts, so a plan set pinned by an in-flight
     * batch is never yanked mid-execution.
     */
    void setCapacity(std::size_t capacity);
    std::size_t capacity() const;

    /**
     * Mark `key` as most recently used. Recency advances *only* here —
     * never inside obtain() — so eviction order is a pure function of
     * the serial touch sequence (the serving admission step), not of
     * which pool worker finished planning first.
     */
    void touch(std::uint64_t key);

    /**
     * Evict least-recently-touched entries until size() <= capacity
     * (no-op when unbounded). Ties — entries never touched — break on
     * ascending key, so eviction is deterministic regardless of hash-
     * map iteration order. Call from serial points only; returns the
     * evicted keys so callers can invalidate hit predictions.
     */
    std::vector<std::uint64_t> evictToCapacity();

    std::uint64_t hits() const;
    std::uint64_t misses() const;
    std::uint64_t evictions() const;
    std::size_t size() const;
    void clear();

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const SnapshotPlans>> entries_;
    std::unordered_map<std::uint64_t, std::uint64_t> recency_;
    std::uint64_t touchSeq_ = 0;
    std::size_t capacity_ = 0; ///< 0 = unbounded.
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

/**
 * Print one consolidated cache-stats block to `out` covering every
 * caching layer a run exercises: the given PlanCache, the global
 * workload DigestCache, and the global CommModelCache memo. Shared
 * by ditile_sweep --digest-stats and the benches so the stderr
 * format stays in one place (CI parses it).
 */
void printCacheStats(std::FILE *out, const PlanCache &plan_cache);

} // namespace ditile::sim

#endif // DITILE_SIM_PLAN_CACHE_HH
