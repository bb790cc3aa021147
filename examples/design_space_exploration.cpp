/**
 * @file
 * Hardware design-space exploration with the DiTile-DGNN model.
 *
 * Sweeps the three sizing decisions DESIGN.md calls out — tile-array
 * size, distributed-buffer capacity, and Re-Link bypass span — on one
 * workload, reporting execution time, energy, and area so the
 * trade-off frontier is visible.
 *
 * Usage: design_space_exploration [--dataset=WD] [--scale=F]
 */

#include "common/cli.hh"
#include "common/table.hh"
#include "core/ditile_accelerator.hh"
#include "energy/area_model.hh"
#include "graph/datasets.hh"

using namespace ditile;

namespace {

sim::RunResult
runWith(const graph::DynamicGraph &dg, const model::DgnnConfig &config,
        sim::AcceleratorConfig hw)
{
    return core::DiTileAccelerator(hw).run(dg, config);
}

energy::AreaConfig
areaOf(const sim::AcceleratorConfig &hw)
{
    energy::AreaConfig area;
    area.tiles = hw.totalTiles();
    area.pesPerTile = hw.pesPerTile;
    area.macsPerPe = hw.macsPerPe;
    area.localBufferBytes = hw.localBufferBytes;
    area.distBufferBytes = hw.distBufferBytes;
    area.reuseFifoBytes = hw.reuseFifoBytes;
    return area;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliFlags flags = CliFlags::parse(argc, argv);
    graph::DatasetOptions options;
    options.scale = flags.getDouble("scale", 0.0);
    const auto dg = graph::makeDataset(
        flags.getString("dataset", "WD"), options);
    const model::DgnnConfig config;
    std::printf("workload: %s V=%d avgE=%.0f T=%d\n",
                dg.name().c_str(), dg.numVertices(), dg.avgEdges(),
                dg.numSnapshots());

    {
        Table table("Sweep 1: tile-array size (iso per-tile resources)");
        table.setHeader({"Array", "MACs", "Cycles", "Energy (uJ)",
                         "Chip area (mm^2)"});
        for (int dim : {4, 8, 16}) {
            auto hw = sim::AcceleratorConfig::defaults();
            hw.tileRows = dim;
            hw.tileCols = dim;
            hw.noc.rows = dim;
            hw.noc.cols = dim;
            const auto r = runWith(dg, config, hw);
            const auto area = energy::computeArea(areaOf(hw));
            table.addRow({Table::integer(dim) + "x" +
                              Table::integer(dim),
                          Table::integer(hw.totalMacs()),
                          Table::integer(static_cast<long long>(
                              r.totalCycles)),
                          Table::num(r.energy.totalPj() / 1e6, 1),
                          Table::num(area.total() / 1e6, 0)});
        }
        table.print();
    }
    {
        Table table("Sweep 2: distributed-buffer capacity per tile");
        table.setHeader({"Buffer", "Tiling factor", "Cycles",
                         "Energy (uJ)", "Tile area (mm^2)"});
        for (ByteCount kb : {512u, 1024u, 4096u, 16384u}) {
            auto hw = sim::AcceleratorConfig::defaults();
            hw.distBufferBytes = kb << 10;
            const core::DiTileAccelerator accel(hw);
            const auto plan = accel.plan(dg, config);
            const auto r = accel.execute(dg, plan);
            const auto area = energy::computeArea(areaOf(hw));
            table.addRow({Table::integer(static_cast<long long>(kb)) +
                              " KB",
                          Table::integer(
                              plan.parallel.tiling.tilingFactor),
                          Table::integer(static_cast<long long>(
                              r.totalCycles)),
                          Table::num(r.energy.totalPj() / 1e6, 1),
                          Table::num(area.tile.total() / 1e6, 2)});
        }
        table.print();
    }
    {
        Table table("Sweep 3: Re-Link bypass span");
        table.setHeader({"Span", "Cycles", "On-chip comm cycles"});
        for (int span : {1, 2, 4, 8}) {
            auto hw = sim::AcceleratorConfig::defaults();
            hw.noc.reLinkSpan = span;
            const auto r = runWith(dg, config, hw);
            table.addRow({Table::integer(span),
                          Table::integer(static_cast<long long>(
                              r.totalCycles)),
                          Table::integer(static_cast<long long>(
                              r.onChipCommCycles))});
        }
        table.print();
    }
    return 0;
}
