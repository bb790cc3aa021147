/**
 * @file
 * Figure 13: sensitivity to the inter-snapshot dissimilarity
 * proportion (WD dataset).
 *
 * Paper result: DiTile-DGNN cuts execution time by 65.8%, 41.9% and
 * 33.8% versus the baselines as dissimilarity moves through 0-5%,
 * 5-10% and 10-15% — the advantage shrinks as dissimilarity grows but
 * never disappears.
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
        options.datasets = {"WD"};
    // A longer horizon amortizes the cold first snapshot so the
    // steady-state sensitivity shows (the paper's DGNN applications
    // run long snapshot streams).
    if (options.numSnapshots == 8)
        options.numSnapshots = 16;
    const auto mconfig = bench::paperModel();

    const auto accelerators = core::paperFleet();

    // Band centers for 0-5%, 5-10%, 10-15%.
    const std::vector<std::pair<std::string, double>> bands = {
        {"0-5%", 0.025}, {"5-10%", 0.075}, {"10-15%", 0.125},
    };

    Table table("Figure 13: execution time normalized to DiTile-DGNN "
                "at equal dissimilarity (WD)");
    table.setHeader({"Dissimilarity", "ReaDy", "DGNN-Booster", "RACE",
                     "MEGA", "DiTile", "avg reduction"});

    for (const auto &[label, dis] : bands) {
        auto dopts = options.datasetOptions();
        dopts.dissimilarity = dis;
        const auto dg = graph::makeDataset(options.datasets.front(),
                                           dopts);
        std::vector<double> cycles;
        for (auto &acc : accelerators)
            cycles.push_back(static_cast<double>(
                acc->run(dg, mconfig).totalCycles));
        const double base = cycles.back();
        double reduction_sum = 0.0;
        for (std::size_t i = 0; i + 1 < cycles.size(); ++i)
            reduction_sum += 1.0 - base / cycles[i];
        table.addRow({label, Table::num(cycles[0] / base),
                      Table::num(cycles[1] / base),
                      Table::num(cycles[2] / base),
                      Table::num(cycles[3] / base), "1.00",
                      Table::percent(reduction_sum / 4.0)});
    }
    bench::emit(table, options);
    std::printf("paper: 65.8%% / 41.9%% / 33.8%% average reductions "
                "across the three bands\n");
    return 0;
}
