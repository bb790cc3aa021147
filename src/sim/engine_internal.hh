/**
 * @file
 * Engine internals shared by the evaluation, timing and observability
 * translation units (not part of the public sim API).
 *
 * The 1439-line engine.cc monolith is split along its stage seams:
 * snapshot_eval.cc owns the parallel per-snapshot evaluation (stage
 * 1), engine.cc owns the serial device replays and the task-graph
 * timeline, and everything they exchange lives here as plain data.
 */

#ifndef DITILE_SIM_ENGINE_INTERNAL_HH
#define DITILE_SIM_ENGINE_INTERNAL_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "dram/dram_model.hh"
#include "noc/network.hh"
#include "sim/engine.hh"
#include "sim/tile_model.hh"

namespace ditile {
class ThreadPool;
namespace workload {
struct PartitionDigest;
}
} // namespace ditile

namespace ditile::sim {

struct Evaluation;
struct ExecutionPlan;
class FaultModel;
class PlanCache;

namespace detail {

/**
 * Dense slot x slot -> bytes accumulator for message aggregation.
 *
 * Replaces the previous hash-map accumulator: the hot loops touch the
 * same few slot pairs millions of times, so a flat array add is one
 * indexed load/store instead of a hash probe. The drain order is a
 * deterministic hash scatter of the (src, dst) tile pair: the greedy
 * link scheduler in noc::simulateTraffic models simultaneous
 * injection from all tiles, which an interleaved message sequence
 * represents and a per-source burst (plain ascending order) does not.
 * Unlike the old unordered_map drain, the permutation is pinned by
 * mix64 rather than inherited from stdlib hash internals, so the
 * sequence is reproducible across platforms and accumulation orders.
 * Callers guard the diagonal where it is meaningless (same-slot
 * gathers stay on-tile) and map slots to tile ids at emit time.
 *
 * The touched-cell list makes every post-accumulation pass
 * O(nonzero) instead of O(slots^2): add() records the first write to
 * each cell, emit() drains only that list (the sort order pins the
 * output regardless of list order), and reset() zeroes only what was
 * written, so draining a sparse snapshot no longer rescans the full
 * matrix.
 */
class DenseTraffic
{
  public:
    explicit DenseTraffic(int slots) { reset(slots); }

    /** Re-dimension and zero, reusing retained storage (arena use). */
    void
    reset(int slots)
    {
        if (slots == slots_) {
            // Arena path: only the touched cells are dirty.
            for (const std::size_t idx : touched_)
                bytes_[idx] = 0;
        } else {
            slots_ = slots;
            bytes_.assign(static_cast<std::size_t>(slots) *
                              static_cast<std::size_t>(slots),
                          0);
        }
        touched_.clear();
    }

    void
    add(int src, int dst, ByteCount bytes)
    {
        if (bytes == 0)
            return;
        const std::size_t idx =
            static_cast<std::size_t>(src) *
                static_cast<std::size_t>(slots_) +
            static_cast<std::size_t>(dst);
        ByteCount &cell = bytes_[idx];
        if (cell == 0)
            touched_.push_back(idx);
        cell += bytes;
    }

    /** Nonzero cells, i.e. messages emit() will produce. */
    std::size_t
    nonzero() const
    {
        std::size_t count = 0;
        for (const std::size_t idx : touched_)
            count += bytes_[idx] != 0 ? 1 : 0;
        return count;
    }

    /**
     * Zero the diagonal cells, dropping them from the touched list.
     * Lets hot loops accumulate every (src, dst) pair branch-free and
     * discard the meaningless same-slot cells once, after the loop.
     * Must run after accumulation finishes (a later add() to a
     * cleared cell would re-enter the touched list).
     */
    void
    clearDiagonal()
    {
        std::size_t kept = 0;
        for (const std::size_t idx : touched_) {
            const auto s = static_cast<std::size_t>(slots_);
            if (idx / s == idx % s)
                bytes_[idx] = 0;
            else
                touched_[kept++] = idx;
        }
        touched_.resize(kept);
    }

    /**
     * Flush nonzero cells in mix64(src tile, dst tile) order, mapping
     * each endpoint through its own slot->tile function (the temporal
     * boundary places src and dst in different tile columns). The
     * mix64 order makes the touched-list accumulation order
     * invisible: the drain order is a deterministic hash scatter of
     * the (src, dst) tile pair, which models simultaneous injection
     * for the greedy link scheduler and is reproducible across
     * platforms and thread widths.
     *
     * The sort is O(n) expected: mix64 keys are uniform, so one
     * counting pass on their top ceil(log2 n) bits leaves about one
     * cell per bucket, and an insertion sort over the bucketed array
     * only reorders within a bucket. mix64 is a bijection, so keys
     * are unique and the order needs no tie-break. Only (key, cell)
     * pairs are sorted; each message is built from its cell index
     * as it is appended to `out`.
     */
    template <typename SrcTile, typename DstTile>
    void
    emit(std::vector<noc::Message> &out, noc::TrafficClass cls,
         Cycle inject, SrcTile &&src_tile, DstTile &&dst_tile) const
    {
        const auto s = static_cast<std::size_t>(slots_);
        auto key_of = [&](std::size_t idx) {
            return mix64(
                (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                     src_tile(static_cast<int>(idx / s))))
                 << 32) |
                static_cast<std::uint32_t>(
                    dst_tile(static_cast<int>(idx % s))));
        };
        const int bits = std::bit_width(
            std::max<std::size_t>(touched_.size(), 1) - 1);
        auto bucket_of = [bits](std::uint64_t key) {
            return bits == 0 ? std::size_t{0}
                             : static_cast<std::size_t>(key >> (64 - bits));
        };

        // Counting pass: bucket starts over the nonzero cells.
        std::vector<std::uint32_t> start((std::size_t{1} << bits) + 1, 0);
        std::uint32_t n = 0;
        for (const std::size_t idx : touched_) {
            if (bytes_[idx] == 0)
                continue;
            ++start[bucket_of(key_of(idx)) + 1];
            ++n;
        }
        for (std::size_t b = 1; b < start.size(); ++b)
            start[b] += start[b - 1];

        // Scatter by bucket (keys recomputed: cheaper than a second
        // buffer), then insertion-sort the nearly sorted result.
        std::vector<std::pair<std::uint64_t, std::size_t>> cells(n);
        for (const std::size_t idx : touched_) {
            if (bytes_[idx] == 0)
                continue;
            const std::uint64_t key = key_of(idx);
            cells[start[bucket_of(key)]++] = {key, idx};
        }
        for (std::size_t i = 1; i < cells.size(); ++i) {
            const auto cell = cells[i];
            std::size_t j = i;
            for (; j > 0 && cells[j - 1].first > cell.first; --j)
                cells[j] = cells[j - 1];
            cells[j] = cell;
        }

        out.reserve(out.size() + cells.size());
        for (const auto &[key, idx] : cells) {
            noc::Message m;
            m.src = src_tile(static_cast<int>(idx / s));
            m.dst = dst_tile(static_cast<int>(idx % s));
            m.bytes = bytes_[idx];
            m.injectCycle = inject;
            m.cls = cls;
            out.push_back(m);
        }
    }

  private:
    int slots_ = 0;
    std::vector<ByteCount> bytes_;
    std::vector<std::size_t> touched_; ///< First-write cell indices.
};

/** Cycles to execute `macs` MACs on `units` MAC units. */
inline Cycle
computeCycles(OpCount macs, double units)
{
    if (macs == 0)
        return 0;
    DITILE_ASSERT(units >= 1.0, "compute phase has no MAC units");
    return static_cast<Cycle>(
        static_cast<double>(macs) / units + 0.999999);
}

/**
 * The placement part of one snapshot's Stage-1 evaluation: the compute
 * distribution over slots, the critical-slot cycles, and the spatial,
 * temporal and reuse NoC replays (or, under adaptive Re-Link, the
 * spatial messages and distances stage 3 replays once the span is
 * known). It reads the snapshot, the previous one, the snapshot's plan,
 * the column pair and the plan fields placementFieldsHash covers, and
 * nothing of the run's accounting or DRAM requests, so a PlanCache
 * shares it between runs under placementKey.
 */
struct SnapshotPlacement
{
    Cycle gnnCompute = 0;
    Cycle rnnCompute = 0;
    ByteCount localBufferBytes = 0; ///< Detailed-tile staging traffic.

    /** Spatial messages whose replay adaptive Re-Link defers. */
    std::vector<noc::Message> spatialMsgs;
    std::vector<int> spatialDistances; ///< Vertical hops per message.
    bool spatialPending = false;
    noc::NocResult spatial; ///< Unless pending.

    bool hasTemporal = false;
    noc::NocResult temporal;
    ByteCount reuseTotal = 0;
};

/**
 * Everything one snapshot contributes to the run, produced by the
 * parallel evaluation stage and merged in canonical order afterwards.
 */
struct SnapshotWork
{
    model::OpsBreakdown ops;
    model::DramBreakdown dramTraffic;

    /** Off-chip requests; issue cycles patched in the serial stage. */
    std::vector<dram::DramRequest> requests;

    /** Shared with a PlanCache's placement memo; never written. */
    std::shared_ptr<const SnapshotPlacement> placement;
    std::uint64_t placementKey = 0;

    /** Stage 3's replay of a pending placement's spatial messages. */
    noc::NocResult relinkedSpatial;

    const noc::NocResult &
    spatial() const
    {
        return placement->spatialPending ? relinkedSpatial
                                         : placement->spatial;
    }
};

/**
 * Read-only inputs the per-snapshot evaluation needs, resolved once
 * per run by evaluate(). All referenced objects outlive the stage-1
 * parallelFor.
 */
struct EvalContext
{
    const graph::DynamicGraph &dg;
    const ExecutionPlan &plan;
    const std::vector<model::SnapshotPlan> &snapshotPlans;

    ByteCount bpv = 0;
    ByteCount zBytes = 0;
    ByteCount hBytes = 0;
    ByteCount featureBytesTotal = 0;
    std::uint64_t weightBase = 0;
    std::uint64_t adjacencyBase = 0;
    std::uint64_t featureBase = 0;
    std::uint64_t intermediateBase = 0;
    std::uint64_t outputBase = 0;

    int computeSlots = 0;
    double tileMacs = 0.0;
    OpCount rnnVertexMacs = 0;
    bool adaptiveRelink = false;
    OpCount sumInDims = 0;
    OpCount sumInOutDims = 0;

    const std::vector<int> &baseOwner;
    const std::vector<std::vector<int>> &ownerRemap;
    const FaultModel *faultModel = nullptr;
    const workload::PartitionDigest *pdigest = nullptr;
    ThreadPool &pool;

    /** Memoizes placements (null: every snapshot places anew). */
    PlanCache *cache = nullptr;
    /** placementFieldsHash of the plan (only read with a cache). */
    std::uint64_t placementFields = 0;
};

/**
 * Stage-1 GCN work of one snapshot walked over its adjacency (every
 * case the digest closed form does not cover): per-slot MACs into
 * `slot_gnn`, detailed-tile vertex tasks into `slot_tasks` (when
 * non-null) and the spatial gather bytes into `traffic`, diagonal
 * cleared, for the per-layer vertex sets `layers` of snapshot `g`
 * under the vertex -> slot map `owner`.
 *
 * The layer loop visits each vertex occurrence without an edge walk
 * (O(sum |S_l|)) and adds the layer's gather bytes to the vertex's
 * total in `gather`; a second pass then walks each distinct vertex's
 * adjacency once with that total, O(E(union S_l)) instead of
 * O(sum E(S_l)). Integer sums are associative and
 * DenseTraffic::emit drains in mix64 order, so every drained message
 * equals a per-layer walk's. `gather` is scratch: all zero on entry
 * and on exit, grown to g.numVertices() on first use.
 */
void walkGcnLayers(const graph::Csr &g,
                   const std::vector<model::LayerWork> &layers,
                   const model::DgnnConfig &model_config,
                   int feature_dim, ByteCount bpv, const int *owner,
                   std::vector<OpCount> &slot_gnn,
                   std::vector<std::vector<VertexTask>> *slot_tasks,
                   std::vector<ByteCount> &gather,
                   DenseTraffic &traffic);

/**
 * Content key of snapshot i's placement: the plan's placement fields,
 * the graph's prefix key through snapshot i (the temporal boundary and
 * a fault re-deal read the previous snapshot) with i and the feature
 * width, the column pair (column of i - 1, column of i), and the
 * snapshot plan's flags, counts and every layer and RNN set.
 */
std::uint64_t placementKey(const EvalContext &ctx, std::size_t i);

/**
 * Stage 1 for one snapshot: accounting and off-chip request synthesis
 * (per run: they read the accounting options, the DRAM traffic scale
 * and the run's region bases), then the placement, from ctx.cache's
 * memo when it holds placementKey. Pure per-snapshot function of the
 * context; runs under parallelFor. A thread-local scratch arena (slot
 * accumulators, traffic matrices, changed bitmaps, per-vertex gather
 * totals) is reused across snapshots instead of reallocating per
 * iteration.
 */
void evaluateSnapshot(const EvalContext &ctx, std::size_t i,
                      SnapshotWork &w);

/**
 * schedule() of a single-chip evaluation under `plan`'s timeline. A
 * scale-out plan's chips each run it with the cluster's plan: the
 * chip task graph reads only fields every chip plan shares with it.
 */
RunResult scheduleChip(const Evaluation &eval, const ExecutionPlan &plan);

} // namespace detail

} // namespace ditile::sim

#endif // DITILE_SIM_ENGINE_INTERNAL_HH
