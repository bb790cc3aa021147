/**
 * @file
 * Figure 9: execution time of ReaDy, DGNN-Booster, RACE, MEGA and
 * DiTile-DGNN per dataset.
 *
 * Paper result: DiTile-DGNN reduces execution time by 48.4%, 56.1%,
 * 23.2% and 36.1% on average versus ReaDy, DGNN-Booster, RACE and
 * MEGA (speedups of 1.9-2.5x, 1.7-2.7x, 1.3-3.0x and 1.6-2.1x).
 */

#include <memory>

#include "bench/bench_util.hh"
#include "core/catalog.hh"

using namespace ditile;

int
main(int argc, char **argv)
{
    const auto options = bench::BenchOptions::parse(argc, argv);
    const auto mconfig = bench::paperModel();

    const auto accelerators = core::paperFleet();

    Table table("Figure 9: execution time in cycles (lower is better)");
    table.setHeader({"Dataset", "ReaDy", "DGNN-Booster", "RACE", "MEGA",
                     "DiTile", "vs ReaDy", "vs Booster", "vs RACE",
                     "vs MEGA"});

    double ratio_sum[4] = {0, 0, 0, 0};
    int rows = 0;
    for (const auto &name : options.datasets) {
        const auto dg = graph::makeDataset(name,
                                           options.datasetOptions());
        double cycles[5];
        for (std::size_t i = 0; i < accelerators.size(); ++i) {
            cycles[i] = static_cast<double>(
                accelerators[i]->run(dg, mconfig).totalCycles);
        }
        for (int b = 0; b < 4; ++b)
            ratio_sum[b] += 1.0 - cycles[4] / cycles[b];
        ++rows;
        table.addRow({dg.name(), Table::sci(cycles[0]),
                      Table::sci(cycles[1]), Table::sci(cycles[2]),
                      Table::sci(cycles[3]), Table::sci(cycles[4]),
                      bench::reduction(cycles[4], cycles[0]),
                      bench::reduction(cycles[4], cycles[1]),
                      bench::reduction(cycles[4], cycles[2]),
                      bench::reduction(cycles[4], cycles[3])});
    }
    if (rows > 1) {
        table.addRow({"Average", "", "", "", "", "",
                      Table::percent(ratio_sum[0] / rows),
                      Table::percent(ratio_sum[1] / rows),
                      Table::percent(ratio_sum[2] / rows),
                      Table::percent(ratio_sum[3] / rows)});
    }
    bench::emit(table, options);
    std::printf("paper: 48.4%% vs ReaDy, 56.1%% vs DGNN-Booster, "
                "23.2%% vs RACE, 36.1%% vs MEGA (average)\n");
    return 0;
}
