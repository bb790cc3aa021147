/**
 * @file
 * Analytical traffic estimator implementation.
 *
 * Mirrors the accounting rules of model/accounting.cc and the message
 * construction of sim/engine.cc, but with every exact per-vertex
 * quantity replaced by its statistical expectation: affected sets grow
 * by the mean influence factor (1 + kappa) per layer, neighborhoods by
 * the mean degree, and every subgraph shares the average sparsity.
 * Keeping the two in deliberate correspondence is what makes the
 * Figure-10 comparison meaningful: the gap between this estimate and
 * the simulation is exactly the degree/sparsity variance the model
 * ignores.
 */

#include "core/analytical_estimator.hh"

#include <algorithm>
#include <cmath>

#include "model/incremental.hh"

namespace ditile::core {

namespace {

/** Mean influence-propagation count per changed vertex per layer. */
constexpr double kKappa = model::kDefaultKappa;

} // namespace

AnalyticalEstimate
estimateTraffic(const graph::DynamicGraph &dg,
                const model::DgnnConfig &model_config,
                const tiling::ParallelPlan &plan, int column_boundaries)
{
    const double v = dg.numVertices();
    const double adj = dg.avgEdges() * 2.0; // adjacency entries.
    const double degree = v > 0.0 ? adj / v : 0.0;

    // Changed vertices are endpoints of changed edges, so their
    // degrees follow the edge-biased distribution: E[d^2] / E[d].
    // Using the plain mean here is what made early estimates low by
    // 2x on skewed graphs.
    double deg_sq_sum = 0.0;
    double deg_sum = 0.0;
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        const auto &g = dg.snapshot(t);
        for (VertexId u = 0; u < g.numVertices(); ++u) {
            const double d = g.degree(u);
            deg_sq_sum += d * d;
            deg_sum += d;
        }
    }
    const double fully_biased =
        deg_sum > 0.0 ? deg_sq_sum / deg_sum : degree;
    // Only the first hop is fully edge-biased; each further hop mixes
    // back toward the plain mean. A fixed hop-weighted blend (0.6
    // toward the biased value, in log space) captures the average mix
    // across the L layers.
    const double biased_degree = degree > 0.0
        ? degree * std::pow(fully_biased / degree, 0.6) : fully_biased;
    const double dis = dg.avgDissimilarity();
    const int layers = model_config.numGcnLayers();
    const double bpv = model_config.bytesPerValue;
    const double t_count = dg.numSnapshots();
    const double feature_dim = dg.featureDim();
    const double z_dim = model_config.gnnOutputDim();
    const double hidden = model_config.lstmHidden;
    const double cross = plan.tiling.crossFetchFraction(
        tiling::kOptimizedTilingLocality);

    // Damped affected sets: seeds recruit ~kappa downstream changes
    // per layer; neighborhoods grow by the mean degree but saturate.
    const double seeds = dis * v;
    auto set_at = [&](int l) {
        return std::min(v, seeds * std::pow(1.0 + kKappa, l));
    };
    auto gathers_at = [&](int l) {
        return std::min(adj, set_at(l) * biased_degree);
    };
    auto inputs_at = [&](int l) {
        return std::min(v, set_at(l) * (1.0 + biased_degree));
    };
    const double changed = set_at(layers - 1);

    AnalyticalEstimate est;

    // ---- Off-chip (mirrors countSnapshotDram). ----
    double weight_values = 0.0;
    double in_dim = feature_dim;
    for (int l = 0; l < layers; ++l) {
        weight_values += in_dim * model_config.gcnDims[
            static_cast<std::size_t>(l)];
        in_dim = model_config.gcnDims[static_cast<std::size_t>(l)];
    }
    weight_values += 4.0 * z_dim * hidden + 4.0 * hidden * hidden;
    est.dramBytes += t_count * weight_values * bpv; // weights/snapshot.

    // Snapshot 0: full recompute. Inputs follow Eq. 6: every feature
    // once plus one refetch per cross-subgraph gather.
    est.dramBytes += adj * 4.0 + v * 4.0;              // adjacency.
    est.dramBytes += (v + adj * cross) * feature_dim * bpv;
    est.dramBytes += v * z_dim * bpv + 4.0 * v * hidden * bpv; // out.
    for (int l = 1; l < layers; ++l) {
        const double dim_prev = model_config.gcnDims[
            static_cast<std::size_t>(l - 1)];
        est.dramBytes += 0.15 * (v + v + adj * cross) * dim_prev * bpv;
    }

    // Snapshots 1..T-1: incremental.
    for (int t = 1; t < static_cast<int>(t_count); ++t) {
        est.dramBytes += dis * adj * 0.5 * 8.0; // delta records.
        est.dramBytes += (inputs_at(0) + gathers_at(0) * cross) *
            feature_dim * bpv;
        for (int l = 1; l < layers; ++l) {
            const double dim_prev = model_config.gcnDims[
                static_cast<std::size_t>(l - 1)];
            est.dramBytes += 0.15 *
                (set_at(l - 1) + inputs_at(l) +
                 gathers_at(l) * cross) * dim_prev * bpv;
        }
        est.dramBytes += changed * z_dim * bpv +
            4.0 * changed * hidden * bpv;
    }

    // ---- On-chip (mirrors the engine's message construction). ----
    const int parts = std::max(1, plan.parallelism.vertexParts);
    const double row_cross = 1.0 - 1.0 / static_cast<double>(parts);

    // Spatial gathers, snapshot 0 (full) then incremental.
    double dim_l = feature_dim;
    for (int l = 0; l < layers; ++l) {
        est.onChipBytes += adj * row_cross * dim_l * bpv;
        dim_l = model_config.gcnDims[static_cast<std::size_t>(l)];
    }
    for (int t = 1; t < static_cast<int>(t_count); ++t) {
        dim_l = feature_dim;
        for (int l = 0; l < layers; ++l) {
            est.onChipBytes += gathers_at(l) * row_cross * dim_l * bpv;
            dim_l = model_config.gcnDims[static_cast<std::size_t>(l)];
        }
    }

    // Temporal + reuse transfers at the column boundaries. The dirty
    // hidden-state set accumulates across snapshots (selective RNN).
    if (column_boundaries > 0 && t_count > 1) {
        const double f = std::min(1.0, changed / v);
        double dirty_sum = 0.0;
        for (int t = 1; t < static_cast<int>(t_count); ++t)
            dirty_sum += v * (1.0 - std::pow(1.0 - f, t));
        const double avg_dirty = dirty_sum / (t_count - 1.0);
        est.onChipBytes += static_cast<double>(column_boundaries) *
            (avg_dirty * 2.0 * hidden * bpv +
             (v - changed) * (z_dim + hidden) * bpv);
    }
    return est;
}

} // namespace ditile::core
