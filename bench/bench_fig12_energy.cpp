/**
 * @file
 * Figure 12: normalized energy-consumption breakdown.
 *
 * Paper result: DiTile-DGNN reduces total energy by 83.4%, 84.0%,
 * 75.6% and 71.4% on average versus ReaDy, DGNN-Booster, RACE and
 * MEGA; control/configuration stays below 7% of DiTile's total.
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

    Table table("Figure 12: energy breakdown, normalized to "
                "DiTile-DGNN per dataset");
    table.setHeader({"Dataset", "Accelerator", "Compute", "Off-chip",
                     "On-chip", "Control", "Total (x DiTile)"});

    double ratio_sum[4] = {0, 0, 0, 0};
    double ditile_control_sum = 0.0;
    int rows = 0;
    for (const auto &name : options.datasets) {
        const auto dg = graph::makeDataset(name,
                                           options.datasetOptions());
        std::vector<energy::EnergyBreakdown> breakdowns;
        for (auto &acc : accelerators)
            breakdowns.push_back(acc->run(dg, mconfig).energy);
        const double base = breakdowns.back().totalPj();
        for (std::size_t i = 0; i < accelerators.size(); ++i) {
            const auto &e = breakdowns[i];
            table.addRow({name, accelerators[i]->name(),
                          Table::num(e.computePj / base),
                          Table::num(e.offChipCommPj / base),
                          Table::num(e.onChipCommPj / base),
                          Table::num(e.controlPj / base),
                          Table::num(e.totalPj() / base)});
            if (i + 1 < accelerators.size())
                ratio_sum[i] += 1.0 - base / e.totalPj();
        }
        ditile_control_sum += breakdowns.back().controlPj / base;
        ++rows;
    }
    bench::emit(table, options);
    if (rows > 0) {
        std::printf("average energy reduction: %.1f%% vs ReaDy, "
                    "%.1f%% vs DGNN-Booster, %.1f%% vs RACE, "
                    "%.1f%% vs MEGA; DiTile control share %.1f%%\n",
                    100.0 * ratio_sum[0] / rows,
                    100.0 * ratio_sum[1] / rows,
                    100.0 * ratio_sum[2] / rows,
                    100.0 * ratio_sum[3] / rows,
                    100.0 * ditile_control_sum / rows);
    }
    std::printf("paper: 83.4%% / 84.0%% / 75.6%% / 71.4%% average "
                "reductions; control < 7%%\n");
    return 0;
}
