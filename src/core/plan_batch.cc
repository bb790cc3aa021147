/**
 * @file
 * SharedFrontEnd implementation.
 */

#include "core/plan_batch.hh"

#include "common/logging.hh"

namespace ditile::core {

void
SharedFrontEnd::bindGraph(const graph::DynamicGraph &dg)
{
    const std::uint64_t h = graph::structureHash(dg);
    if (!bound_) {
        bound_ = true;
        graphHash_ = h;
        return;
    }
    DITILE_ASSERT(graphHash_ == h,
                  "SharedFrontEnd reused across different graphs");
}

const std::vector<double> &
SharedFrontEnd::loads(const graph::DynamicGraph &dg,
                      const model::DgnnConfig &model_config)
{
    bindGraph(dg);
    const int layers = model_config.numGcnLayers();
    if (loadLayers_ != layers) {
        DITILE_ASSERT(loadLayers_ < 0,
                      "SharedFrontEnd reused across model configs");
        loads_ = workloadUnit_.computeLoads(dg, model_config);
        loadLayers_ = layers;
    }
    return loads_;
}

const tiling::ParallelPlan &
SharedFrontEnd::strategy(const graph::DynamicGraph &dg,
                         const model::DgnnConfig &model_config,
                         const sim::AcceleratorConfig &hw,
                         bool optimize)
{
    bindGraph(dg);
    const int tiles = hw.totalTiles();
    for (const StrategyEntry &e : strategies_) {
        if (e.optimize == optimize && e.totalTiles == tiles &&
            e.distBufferBytes == hw.distBufferBytes) {
            return e.plan;
        }
    }
    StrategyEntry entry;
    entry.optimize = optimize;
    entry.totalTiles = tiles;
    entry.distBufferBytes = hw.distBufferBytes;
    entry.plan =
        strategyAdjuster_.adjust(dg, model_config, hw, optimize);
    strategies_.push_back(std::move(entry));
    return strategies_.back().plan;
}

} // namespace ditile::core
