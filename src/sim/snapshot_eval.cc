/**
 * @file
 * Stage-1 per-snapshot evaluation (extracted from engine.cc).
 *
 * Pure function of the EvalContext and the snapshot index, in two
 * parts. The per-run part does the accounting and the off-chip request
 * synthesis. The placement part (placeSnapshot) distributes the
 * compute over tiles and replays the NoC; it reads nothing the
 * accounting options, the DRAM traffic scale or the run's region bases
 * set, so a PlanCache memoizes it per snapshot under placementKey.
 * Runs under parallelFor; everything it writes lands in the snapshot's
 * own SnapshotWork slot, so the schedule is invisible and results are
 * bit-identical at any thread width.
 *
 * Hot-loop temporaries (per-slot MAC accumulators, the dense traffic
 * matrices, the changed-vertex bitmap, the per-vertex gather totals of
 * walkGcnLayers) live in a leased thread-local
 * arena reused across snapshots and runs: the previous per-iteration
 * allocate/zero churn was the dominant stage-1 overhead on small
 * snapshots (ROADMAP item 5).
 */

#include "sim/engine_internal.hh"

#include <memory>
#include <utility>

#include "common/hash.hh"
#include "common/scratch_lease.hh"
#include "common/thread_pool.hh"
#include "sim/execution_plan.hh"
#include "sim/fault_model.hh"
#include "sim/plan_cache.hh"
#include "sim/tile_model.hh"
#include "workload/digest.hh"

namespace ditile::sim::detail {

namespace {

/**
 * Per-worker scratch reused across snapshots (and across runs). Taken
 * through a ScratchLease: with detailed tile timing this function
 * blocks in a nested parallelFor while holding the arena, and the
 * blocked thread may run another snapshot's evaluation meanwhile.
 */
struct EvalScratch
{
    std::vector<OpCount> slotGnn;
    std::vector<OpCount> slotRnn;
    DenseTraffic spatial{0};
    DenseTraffic boundary{0};
    DenseTraffic reuse{0};
    std::vector<bool> changed;
    std::vector<std::uint64_t> changedCnt;
    std::vector<ByteCount> gather; ///< Per-vertex gather-byte totals.
};

/** The placement part of snapshot i (see SnapshotPlacement). */
SnapshotPlacement placeSnapshot(const EvalContext &ctx, std::size_t i);

} // namespace

void
walkGcnLayers(const graph::Csr &g,
              const std::vector<model::LayerWork> &layers,
              const model::DgnnConfig &model_config, int feature_dim,
              ByteCount bpv, const int *owner,
              std::vector<OpCount> &slot_gnn,
              std::vector<std::vector<VertexTask>> *slot_tasks,
              std::vector<ByteCount> &gather, DenseTraffic &traffic)
{
    DITILE_ASSERT(static_cast<int>(layers.size()) ==
                  model_config.numGcnLayers());
    const EdgeId *row_ptr = g.rowPtr().data();
    const VertexId *adj = g.adjacency().data();
    if (gather.size() < static_cast<std::size_t>(g.numVertices()))
        gather.resize(static_cast<std::size_t>(g.numVertices()), 0);
    for (std::size_t l = 0; l < layers.size(); ++l) {
        const int layer = static_cast<int>(l);
        const auto in_dim = static_cast<OpCount>(
            model_config.gcnInputDim(layer, feature_dim));
        const auto out_dim =
            static_cast<OpCount>(model_config.gcnOutputDim(layer));
        const ByteCount gather_bytes =
            static_cast<ByteCount>(in_dim) * bpv;
        layers[l].vertices.forEach([&](VertexId v) {
            const int ov = owner[static_cast<std::size_t>(v)];
            const auto degree =
                static_cast<OpCount>(row_ptr[v + 1] - row_ptr[v]);
            const OpCount vertex_macs =
                (degree + 1) * in_dim + in_dim * out_dim;
            slot_gnn[static_cast<std::size_t>(ov)] += vertex_macs;
            if (slot_tasks) {
                VertexTask task;
                task.vertex = v;
                task.macs = vertex_macs;
                task.postOps = out_dim;
                task.inputBytes = (static_cast<ByteCount>(degree) + 1) *
                    static_cast<ByteCount>(in_dim) * bpv;
                (*slot_tasks)[static_cast<std::size_t>(ov)].push_back(
                    task);
            }
            gather[static_cast<std::size_t>(v)] += gather_bytes;
        });
    }
    // One adjacency walk per distinct vertex: its first occurrence
    // takes the total and zeroes it, so later occurrences skip (the
    // total and the row end are locals: a cell store could otherwise
    // alias them and force a reload per edge). Every
    // (ou, ov) pair accumulates branch-free, diagonal included, and
    // the meaningless same-slot cells are dropped once afterwards.
    for (const model::LayerWork &lw : layers) {
        lw.vertices.forEach([&](VertexId v) {
            const ByteCount total =
                std::exchange(gather[static_cast<std::size_t>(v)], 0);
            if (total == 0)
                return;
            const int ov = owner[static_cast<std::size_t>(v)];
            const EdgeId row_end = row_ptr[v + 1];
            for (EdgeId e = row_ptr[v]; e < row_end; ++e)
                traffic.add(owner[static_cast<std::size_t>(adj[e])], ov,
                            total);
        });
    }
    traffic.clearDiagonal();
}

std::uint64_t
placementKey(const EvalContext &ctx, std::size_t i)
{
    const MappingSpec &mapping = ctx.plan.mapping;
    const model::SnapshotPlan &splan = ctx.snapshotPlans[i];
    const auto column = [&](std::size_t k) {
        return static_cast<std::uint64_t>(
            mapping.spatialOnly ? 0 : mapping.snapshotColumn[k]);
    };
    WordHasher hasher;
    hasher.mix(ctx.placementFields);
    hasher.mix(ctx.dg.prefixKey(static_cast<SnapshotId>(i)));
    hasher.mix(i);
    hasher.mix(static_cast<std::uint64_t>(ctx.dg.featureDim()));
    hasher.mix(i > 0 ? column(i - 1) : ~std::uint64_t{0});
    hasher.mix(column(i));
    // A list covering every vertex is always built as all(n), so the
    // form and the ids pin the set.
    const auto mix_set = [&](const model::VertexSet &set) {
        hasher.mix(set.size());
        hasher.mix(set.isAll() ? 1 : 0);
        if (const std::vector<VertexId> *ids = set.ids()) {
            for (const VertexId v : *ids)
                hasher.mix(static_cast<std::uint64_t>(v));
        }
    };
    hasher.mix(splan.fullRecompute ? 1 : 0);
    hasher.mix(splan.adjacencyUpdates);
    mix_set(splan.rnnVertices);
    hasher.mix(splan.gcn.size());
    for (const model::LayerWork &layer : splan.gcn) {
        hasher.mix(static_cast<std::uint64_t>(layer.gatherEdges));
        hasher.mix(static_cast<std::uint64_t>(layer.uniqueInputs));
        mix_set(layer.vertices);
    }
    return hasher.h;
}

void
evaluateSnapshot(const EvalContext &ctx, std::size_t i, SnapshotWork &w)
{
    const graph::DynamicGraph &dg = ctx.dg;
    const model::DgnnConfig &model_config = ctx.plan.modelConfig;
    const EngineOptions &options = ctx.plan.options;
    const VertexId num_vertices = dg.numVertices();
    const ByteCount z_bytes = ctx.zBytes;
    const auto t = static_cast<SnapshotId>(i);
    const model::SnapshotPlan &splan = ctx.snapshotPlans[i];

    // ---- Accounting (ops + off-chip bytes). ----
    w.ops = model::countSnapshotOps(dg, t, model_config, splan);
    w.dramTraffic = model::countSnapshotDram(
        dg, t, model_config, options.algo, splan, options.accounting);

    // ---- Off-chip request synthesis. ----
    // Full recomputation streams regions sequentially (row-buffer
    // friendly); incremental snapshots gather scattered subsets,
    // so their reads are split into pseudo-randomly placed chunks
    // that exercise row misses and bank conflicts. Issue cycles
    // stay 0 here; the serial replay stage stamps the cursor.
    auto scaled = [&](ByteCount bytes) {
        return static_cast<ByteCount>(
            static_cast<double>(bytes) * options.dramTrafficScale);
    };
    auto push_read = [&](std::uint64_t base, ByteCount region_bytes,
                         ByteCount bytes) {
        bytes = scaled(bytes);
        if (bytes == 0)
            return;
        if (splan.fullRecompute || bytes >= region_bytes) {
            w.requests.push_back({base, bytes, false, 0});
            return;
        }
        const auto chunks = static_cast<ByteCount>(clamp<ByteCount>(
            bytes / 1024, 1, 4096));
        const ByteCount chunk = bytes / chunks;
        w.requests.reserve(w.requests.size() +
                           static_cast<std::size_t>(chunks));
        for (ByteCount k = 0; k < chunks; ++k) {
            const std::uint64_t span =
                region_bytes > chunk ? region_bytes - chunk : 1;
            const std::uint64_t offset = mix64(
                (static_cast<std::uint64_t>(t) << 32) ^ k ^ base)
                % span;
            const ByteCount size = k + 1 == chunks
                ? bytes - chunk * (chunks - 1) : chunk;
            w.requests.push_back({base + offset, size, false, 0});
        }
    };
    const ByteCount intermediate_region =
        static_cast<ByteCount>(num_vertices) * z_bytes * 4;
    w.requests.reserve(8);
    w.requests.push_back({ctx.weightBase,
                          scaled(w.dramTraffic.weightBytes), false,
                          0});
    w.requests.push_back({ctx.adjacencyBase,
                          scaled(w.dramTraffic.adjacencyBytes),
                          false, 0});
    push_read(ctx.featureBase, ctx.featureBytesTotal,
              w.dramTraffic.inputFeatureBytes);
    if (w.dramTraffic.intermediateBytes > 0) {
        w.requests.push_back({ctx.intermediateBase,
                              scaled(w.dramTraffic.intermediateBytes
                                     / 2), true, 0});
        push_read(ctx.intermediateBase, intermediate_region,
                  w.dramTraffic.intermediateBytes -
                      w.dramTraffic.intermediateBytes / 2);
    }
    if (w.dramTraffic.outputBytes > 0) {
        const ByteCount writes =
            w.dramTraffic.outputBytes * 3 / 5; // z + new h/c.
        w.requests.push_back({ctx.outputBase, scaled(writes), true,
                              0});
        w.requests.push_back({ctx.outputBase,
                              scaled(w.dramTraffic.outputBytes -
                                     writes), false, 0});
    }

    // ---- Placement, shared through the cache's memo. ----
    const auto place = [&] {
        return std::make_shared<const SnapshotPlacement>(
            placeSnapshot(ctx, i));
    };
    if (ctx.cache == nullptr) {
        w.placement = place();
        return;
    }
    w.placementKey = placementKey(ctx, i);
    w.placement = ctx.cache->placement(w.placementKey, place);
}

namespace {

SnapshotPlacement
placeSnapshot(const EvalContext &ctx, std::size_t i)
{
    const graph::DynamicGraph &dg = ctx.dg;
    const model::DgnnConfig &model_config = ctx.plan.modelConfig;
    const MappingSpec &mapping = ctx.plan.mapping;
    const EngineOptions &options = ctx.plan.options;
    const AcceleratorConfig &hw = ctx.plan.hw;
    const FaultModel *fm = ctx.faultModel;
    const workload::PartitionDigest *pdigest = ctx.pdigest;
    const int compute_slots = ctx.computeSlots;
    const VertexId num_vertices = dg.numVertices();
    const int feature_dim = dg.featureDim();
    const ByteCount bpv = ctx.bpv;
    const ByteCount z_bytes = ctx.zBytes;
    const ByteCount h_bytes = ctx.hBytes;

    const auto t = static_cast<SnapshotId>(i);
    const graph::Csr &g = dg.snapshot(t);
    const model::SnapshotPlan &splan = ctx.snapshotPlans[i];
    const ScratchLease<EvalScratch> lease;
    EvalScratch &s = *lease;
    SnapshotPlacement p;

    // ---- Compute distribution over tiles. ----
    // Under tile faults the pre-computed degraded-mode re-deal
    // replaces the planned assignment for this snapshot.
    const int *ovec = ctx.ownerRemap[i].empty()
        ? ctx.baseOwner.data()
        : ctx.ownerRemap[i].data();
    const noc::NocFaults *noc_faults =
        fm && fm->at(t).anyNoc() ? &fm->at(t).noc : nullptr;
    s.slotGnn.assign(static_cast<std::size_t>(compute_slots), 0);
    s.slotRnn.assign(static_cast<std::size_t>(compute_slots), 0);
    std::vector<OpCount> &slot_gnn = s.slotGnn;
    std::vector<OpCount> &slot_rnn = s.slotRnn;
    // Detailed timing collects explicit per-slot vertex tasks (moved
    // into the tile model, so they stay per-call allocations).
    std::vector<std::vector<VertexTask>> slot_tasks;
    if (options.detailedTileTiming)
        slot_tasks.resize(static_cast<std::size_t>(compute_slots));

    s.spatial.reset(compute_slots);
    DenseTraffic &spatial_traffic = s.spatial;
    const int col = mapping.spatialOnly
        ? 0 : mapping.snapshotColumn[i];
    auto tile_of_slot = [&](int slot) {
        return mapping.spatialOnly
            ? static_cast<TileId>(slot)
            : static_cast<TileId>(slot * hw.tileCols + col);
    };

    // Digest fast paths cover snapshots that run on the planned
    // assignment; a degraded re-deal falls back to the loops.
    const bool digest_snapshot = pdigest && ctx.ownerRemap[i].empty();
    const bool rnn_all = splan.rnnVertices.isAll();

    if (digest_snapshot && splan.fullRecompute &&
        !options.detailedTileTiming) {
        // Full recomputation touches every vertex in every layer,
        // so the per-slot MAC totals and the cross-owner gather
        // bytes collapse to closed forms over the digest counters.
        // All integer arithmetic: bit-identical to the loops. The
        // digest rows are contiguous SoA planes, so both passes are
        // unit-stride.
        const auto deg_sum = pdigest->slotDegreeSum(t);
        const auto cnt = pdigest->slotVertexCount();
        const auto cross = pdigest->crossRow(t);
        const ByteCount gather_sum =
            static_cast<ByteCount>(ctx.sumInDims) * bpv;
        for (int sl = 0; sl < compute_slots; ++sl) {
            const auto si = static_cast<std::size_t>(sl);
            slot_gnn[si] = ctx.sumInDims * (deg_sum[si] + cnt[si]) +
                ctx.sumInOutDims * cnt[si];
        }
        for (int sl = 0; sl < compute_slots; ++sl) {
            const std::uint64_t *row = cross.data() +
                static_cast<std::size_t>(sl) *
                    static_cast<std::size_t>(compute_slots);
            for (int d = 0; d < compute_slots; ++d) {
                if (row[d] != 0) {
                    spatial_traffic.add(
                        sl, d, static_cast<ByteCount>(row[d]) *
                            gather_sum);
                }
            }
        }
    } else {
        walkGcnLayers(g, splan.gcn, model_config, feature_dim, bpv, ovec,
                      slot_gnn,
                      options.detailedTileTiming ? &slot_tasks : nullptr,
                      s.gather, spatial_traffic);
    }
    if (digest_snapshot && rnn_all) {
        const auto cnt = pdigest->slotVertexCount();
        for (int sl = 0; sl < compute_slots; ++sl) {
            const auto si = static_cast<std::size_t>(sl);
            slot_rnn[si] = ctx.rnnVertexMacs * cnt[si];
        }
    } else {
        splan.rnnVertices.forEach([&](VertexId v) {
            slot_rnn[static_cast<std::size_t>(
                ovec[static_cast<std::size_t>(v)])] +=
                ctx.rnnVertexMacs;
        });
    }

    OpCount gnn_crit_macs = 0;
    OpCount rnn_crit_macs = 0;
    for (int sl = 0; sl < compute_slots; ++sl) {
        gnn_crit_macs = std::max(gnn_crit_macs,
            slot_gnn[static_cast<std::size_t>(sl)]);
        rnn_crit_macs = std::max(rnn_crit_macs,
            slot_rnn[static_cast<std::size_t>(sl)]);
    }
    if (options.detailedTileTiming) {
        // Critical slot via explicit PE-array scheduling. The
        // static MAC fraction scales the per-PE array width.
        // Independent per-tile sub-models: fan out over slots and
        // reduce into per-slot result vectors.
        TileConfig tconfig;
        tconfig.pes = hw.pesPerTile;
        tconfig.macsPerPe = std::max(1, static_cast<int>(
            hw.macsPerPe * options.gnnMacFraction));
        tconfig.localBufferBytes = hw.localBufferBytes;
        tconfig.reuseFifoBytes = hw.reuseFifoBytes;
        const TileModel tile(tconfig);
        const std::size_t slots = slot_tasks.size();
        std::vector<Cycle> slot_cycles(slots, 0);
        std::vector<ByteCount> slot_traffic(slots, 0);
        parallelFor(slots, [&](std::size_t sl) {
            if (slot_tasks[sl].empty())
                return;
            const auto phase =
                tile.executePhase(std::move(slot_tasks[sl]));
            slot_cycles[sl] = phase.cycles;
            slot_traffic[sl] = phase.localBufferTraffic;
        }, &ctx.pool);
        Cycle worst = 0;
        for (std::size_t sl = 0; sl < slots; ++sl) {
            worst = std::max(worst, slot_cycles[sl]);
            p.localBufferBytes += slot_traffic[sl];
        }
        p.gnnCompute = worst;
    } else {
        p.gnnCompute = computeCycles(
            gnn_crit_macs, ctx.tileMacs * options.gnnMacFraction);
    }
    p.rnnCompute = computeCycles(
        rnn_crit_macs, ctx.tileMacs * options.rnnMacFraction);

    // ---- NoC replay: GNN-phase spatial traffic. ----
    spatial_traffic.emit(p.spatialMsgs, noc::TrafficClass::Spatial,
                         0, tile_of_slot, tile_of_slot);
    if (ctx.adaptiveRelink) {
        // The Re-Link span depends on the controller's engaged
        // state, which chains across snapshots: record this
        // phase's vertical-distance profile and defer the replay
        // until the serial stage has decided the span.
        p.spatialDistances.reserve(p.spatialMsgs.size());
        for (const auto &m : p.spatialMsgs) {
            const int rs = m.src / hw.tileCols;
            const int rd = m.dst / hw.tileCols;
            const int fwd = (rd - rs + hw.tileRows) % hw.tileRows;
            p.spatialDistances.push_back(
                std::min(fwd, hw.tileRows - fwd));
        }
        p.spatialPending = true;
    } else {
        p.spatial = noc::simulateTraffic(hw.noc,
                                         std::move(p.spatialMsgs),
                                         noc_faults);
        p.spatialMsgs.clear();
    }

    // ---- RNN-boundary temporal + reuse traffic. ----
    if (!mapping.spatialOnly && t > 0) {
        const int prev_col = mapping.snapshotColumn[i - 1];
        if (prev_col != col) {
            // Boundary endpoints honor the degraded-mode re-deal
            // on *both* sides: the previous column's survivors may
            // differ from this column's.
            const int *prev_ovec = ctx.ownerRemap[i - 1].empty()
                ? ctx.baseOwner.data()
                : ctx.ownerRemap[i - 1].data();
            const bool boundary_digest =
                digest_snapshot && ctx.ownerRemap[i - 1].empty();
            auto src_tile = [&](int sl) {
                return static_cast<TileId>(sl * hw.tileCols +
                                           prev_col);
            };
            auto dst_tile = [&](int d) {
                return static_cast<TileId>(d * hw.tileCols + col);
            };
            s.boundary.reset(compute_slots);
            DenseTraffic &boundary = s.boundary;
            // Temporal: every RNN-active vertex needs its previous
            // hidden/cell state from the previous snapshot's column.
            if (boundary_digest && rnn_all) {
                // Both columns run the planned assignment, so every
                // vertex stays in its own row: the boundary is
                // purely diagonal with per-slot vertex counts.
                const auto cnt = pdigest->slotVertexCount();
                for (int sl = 0; sl < compute_slots; ++sl) {
                    boundary.add(
                        sl, sl,
                        2 * h_bytes *
                            static_cast<ByteCount>(
                                cnt[static_cast<std::size_t>(sl)]));
                }
            } else {
                splan.rnnVertices.forEach([&](VertexId v) {
                    boundary.add(
                        prev_ovec[static_cast<std::size_t>(v)],
                        ovec[static_cast<std::size_t>(v)],
                        2 * h_bytes);
                });
            }
            // Reuse: incremental algorithms forward the unchanged
            // vertices' outputs instead of recomputing them.
            std::vector<noc::Message> msgs;
            boundary.emit(msgs, noc::TrafficClass::Temporal, 0,
                          src_tile, dst_tile);
            if (!splan.fullRecompute) {
                s.reuse.reset(compute_slots);
                DenseTraffic &reuse = s.reuse;
                if (boundary_digest) {
                    // Same diagonal argument; the unchanged count
                    // per slot is the slot population minus its
                    // changed (last-layer) vertices.
                    s.changedCnt.assign(
                        static_cast<std::size_t>(compute_slots), 0);
                    std::vector<std::uint64_t> &changed_cnt =
                        s.changedCnt;
                    splan.gcn.back().vertices.forEach([&](VertexId v) {
                        ++changed_cnt[static_cast<std::size_t>(
                            ovec[static_cast<std::size_t>(v)])];
                    });
                    for (int sl = 0; sl < compute_slots; ++sl) {
                        const auto si =
                            static_cast<std::size_t>(sl);
                        const std::uint64_t unchanged =
                            pdigest->slotVertexCount()[si] -
                            changed_cnt[si];
                        if (unchanged == 0)
                            continue;
                        reuse.add(sl, sl,
                                  (z_bytes + h_bytes) *
                                      static_cast<ByteCount>(
                                          unchanged));
                        p.reuseTotal += (z_bytes + h_bytes) *
                            static_cast<ByteCount>(unchanged);
                    }
                } else {
                    s.changed.assign(
                        static_cast<std::size_t>(num_vertices),
                        false);
                    std::vector<bool> &changed = s.changed;
                    splan.gcn.back().vertices.forEach([&](VertexId v) {
                        changed[static_cast<std::size_t>(v)] = true;
                    });
                    for (VertexId v = 0; v < num_vertices; ++v) {
                        if (changed[static_cast<std::size_t>(v)])
                            continue;
                        reuse.add(
                            prev_ovec[static_cast<std::size_t>(v)],
                            ovec[static_cast<std::size_t>(v)],
                            z_bytes + h_bytes);
                        p.reuseTotal += z_bytes + h_bytes;
                    }
                }
                reuse.emit(msgs, noc::TrafficClass::Reuse, 0,
                           src_tile, dst_tile);
            }
            p.temporal = noc::simulateTraffic(hw.noc,
                                              std::move(msgs),
                                              noc_faults);
            p.hasTemporal = true;
        }
    }
    return p;
}

} // namespace

} // namespace ditile::sim::detail
