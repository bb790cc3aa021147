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
 * Plans are prefix-closed (model/incremental.hh), so a miss whose
 * graph shares its first snapshots with a resident plan set of the
 * same algorithm and model (a sweep's T=16 graph after its T=8 graph,
 * or the T=8 graph after the T=16 one) copies those plans and plans
 * only the later snapshots. A copied plan shares its vertex lists
 * (model::VertexSet), so a derived or extended plan set adds lists
 * only for the sets it plans anew.
 *
 * The cache also memoizes run evaluations (sim::evaluate), keyed on
 * the graph and the plan with its overlap option and scale-out link
 * cleared, so a run that differs from the one before it only in those
 * re-schedules that evaluation instead of making its own. Below that,
 * it memoizes each snapshot's Stage-1 placement (the compute
 * distribution and NoC replays, see detail::SnapshotPlacement), so
 * runs that differ in their graph or plan but share a snapshot with
 * its predecessor, its plan, its columns and the placement fields (a
 * sweep's T=16 point after its T=8 point; MEGA's snapshot 0 at every
 * dissimilarity) place it once.
 *
 * Lookup, build, publish, counting and the LRU bound follow the shared
 * policy in common/content_cache.hh.
 */

#ifndef DITILE_SIM_PLAN_CACHE_HH
#define DITILE_SIM_PLAN_CACHE_HH

#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/content_cache.hh"
#include "graph/dynamic_graph.hh"
#include "model/incremental.hh"

namespace ditile::sim {

struct Evaluation;
struct ExecutionPlan;
namespace detail {
struct SnapshotPlacement;
}

class PlanCache
{
  public:
    using SnapshotPlans = std::vector<model::SnapshotPlan>;

    PlanCache();

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
     * from a resident layer-set sibling, else from the longest prefix
     * a resident plan set of the same algorithm and model shares,
     * else from scratch (reading a sibling or prefix counts no lookup
     * and touches no recency).
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
    bool contains(std::uint64_t key) const { return entries_.contains(key); }

    /** Bound the published plan sets (0 = unbounded); see the LRU in
     *  common/content_cache.hh. */
    void setCapacity(std::size_t capacity) { entries_.setCapacity(capacity); }

    /** Mark `key` most recently used; the serving admission step
     *  touches, so eviction follows its serial order. */
    void touch(std::uint64_t key) { entries_.touch(key); }

    /** Enforce the bound; returns the evicted keys so callers can
     *  invalidate hit predictions. Serial points only. */
    std::vector<std::uint64_t> evictToCapacity();

    /**
     * The evaluation of `plan` over `dg`, from evaluate(dg, plan, this)
     * unless the last one evaluated was of the same graph and of a plan
     * equal to this one up to its overlap option and scale-out link.
     * The memo is silent: it emits no instant and no metric, and a hit
     * plans no shard and makes none of the evaluation's cache lookups.
     */
    std::shared_ptr<const Evaluation>
    evaluation(const graph::DynamicGraph &dg, const ExecutionPlan &plan);

    std::uint64_t evaluationHits() const { return evaluations_.hits(); }
    std::uint64_t evaluationMisses() const
    {
        return evaluations_.misses();
    }

    /** Forget the memoized evaluations (and their counts), so the next
     *  run evaluates again; the plan sets and placements stay. */
    void clearEvaluations() { evaluations_.clear(); }

    /**
     * Bound of the placement memo, in snapshots. A sweep point runs
     * the five-accelerator fleet over at most 16 snapshots (80
     * placements), and what a point reuses was placed at most one
     * point earlier (its T=8 or T=16 sibling's snapshots, the previous
     * dissimilarity's snapshot 0), so the memo holds a T=16 point and
     * a T=8 point (120) with room to spare.
     */
    static constexpr std::size_t kPlacementCapacity = 128;

    /**
     * The placement of one snapshot under `key` (detail::placementKey),
     * from build() on a miss. The memo is silent: it emits no instant
     * and no metric, and a hit changes no counter a run reports, since
     * the engine derives those from the plan, not from the work done.
     */
    template <typename Build>
    std::shared_ptr<const detail::SnapshotPlacement>
    placement(std::uint64_t key, Build &&build)
    {
        return placements_.obtain(key, std::forward<Build>(build));
    }

    /** Mark one evaluation's placement keys used, in snapshot order,
     *  and evict the least recently used beyond kPlacementCapacity. */
    void retainPlacements(const std::vector<std::uint64_t> &keys);

    std::uint64_t placementHits() const { return placements_.hits(); }
    std::uint64_t placementMisses() const
    {
        return placements_.misses();
    }
    std::size_t placementCount() const { return placements_.size(); }

    std::uint64_t hits() const { return entries_.hits(); }
    std::uint64_t misses() const { return entries_.misses(); }
    std::uint64_t evictions() const { return entries_.evictions(); }
    std::size_t size() const { return entries_.size(); }
    void clear();

  private:
    /** Prefix-index key of dg's snapshots 0..t under (config, algo). */
    static std::uint64_t prefixIndexKey(const graph::DynamicGraph &dg,
                                        SnapshotId t,
                                        const model::DgnnConfig &config,
                                        model::AlgoKind algo);

    /** A copy of the longest run of dg's first plans (up to all of
     *  them) that a resident plan set of (config, algo) holds: the
     *  set's graph shares those snapshots. Empty if none does. */
    SnapshotPlans residentPrefix(const graph::DynamicGraph &dg,
                                 const model::DgnnConfig &config,
                                 model::AlgoKind algo) const;

    ContentCache<std::uint64_t, std::shared_ptr<const SnapshotPlans>>
        entries_{"plan-cache", "plan"};

    /** An evaluation's key: the hash of its graph and of its plan's
     *  fields (evaluationFieldsHash), and the plan's snapshot-plan set
     *  by identity. Holding the set keeps its address from being
     *  reused by another set while the key lives. */
    using EvaluationKey =
        std::pair<std::uint64_t, std::shared_ptr<const SnapshotPlans>>;

    struct EvaluationKeyHash
    {
        std::size_t
        operator()(const EvaluationKey &key) const
        {
            return static_cast<std::size_t>(key.first);
        }
    };

    ContentCache<EvaluationKey, std::shared_ptr<const Evaluation>,
                 EvaluationKeyHash>
        evaluations_;

    ContentCache<std::uint64_t,
                 std::shared_ptr<const detail::SnapshotPlacement>>
        placements_;

    /** prefixIndexKey of every prefix of each built plan set's graph
     *  -> its plan key (a later set sharing the prefix overwrites).
     *  Keys only: a plan set the LRU evicts is freed, and its index
     *  entries go with it. */
    mutable std::mutex indexMutex_;
    std::unordered_map<std::uint64_t, std::uint64_t> prefixIndex_;
};

/**
 * Print one consolidated cache-stats block to `out` covering every
 * caching layer a run exercises: the given PlanCache, the global
 * workload DigestCache, and the global CommModelCache memo. Shared
 * by ditile_sweep and the benches so the stderr format stays in one
 * place (CI parses it).
 */
void printCacheStats(std::FILE *out, const PlanCache &plan_cache);

} // namespace ditile::sim

#endif // DITILE_SIM_PLAN_CACHE_HH
