/**
 * @file
 * Extension bench: scaling with the tile-array size.
 *
 * The paper's contribution list claims the workload optimization
 * "enhances scalability"; this bench sweeps the array from 4x4 to
 * 32x32 on one dataset and reports DiTile's execution time against
 * the strongest baseline (RACE) at each size.
 */

#include <memory>

#include "bench/bench_util.hh"
#include "core/catalog.hh"

using namespace ditile;

int
main(int argc, char **argv)
{
    auto options = bench::BenchOptions::parse(argc, argv);
    if (options.datasets.size() > 1)
        options.datasets = {"RD"};
    const auto mconfig = bench::paperModel();
    const auto dg = graph::makeDataset(options.datasets.front(),
                                       options.datasetOptions());

    Table table("Scalability: tile-array sweep on " + dg.name());
    table.setHeader({"Array", "Tiles", "DiTile cycles",
                     "RACE cycles", "DiTile vs RACE",
                     "DiTile speedup vs 4x4"});
    double base_cycles = 0.0;
    for (int dim : {4, 8, 16, 32}) {
        auto hw = sim::AcceleratorConfig::defaults();
        hw.tileRows = dim;
        hw.tileCols = dim;
        hw.noc.rows = dim;
        hw.noc.cols = dim;
        const core::DiTileAccelerator ditile(hw);
        const auto race = core::makeAccelerator("race", hw);
        const auto dt = static_cast<double>(
            ditile.run(dg, mconfig).totalCycles);
        const auto rc = static_cast<double>(
            race->run(dg, mconfig).totalCycles);
        if (base_cycles == 0.0)
            base_cycles = dt;
        table.addRow({Table::integer(dim) + "x" + Table::integer(dim),
                      Table::integer(dim * dim), Table::sci(dt),
                      Table::sci(rc), bench::reduction(dt, rc),
                      Table::num(base_cycles / dt, 2) + "x"});
    }
    bench::emit(table, options);
    return 0;
}
