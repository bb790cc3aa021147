/**
 * @file
 * Figure 11 (a): PE utilization of every accelerator on the WD
 * dataset.
 *
 * Paper result: DiTile-DGNN improves PE utilization by 23.8% on
 * average over the baselines, thanks to the homogeneous tile design
 * and the workload balance optimization.
 */

#include <memory>

#include "bench/bench_util.hh"
#include "core/catalog.hh"

using namespace ditile;

int
main(int argc, char **argv)
{
    auto options = bench::BenchOptions::parse(argc, argv);
    // Figure 11 uses the WD dataset unless overridden.
    if (options.datasets.size() > 1)
        options.datasets = {"WD"};
    const auto mconfig = bench::paperModel();

    const auto accelerators = core::paperFleet();

    Table table("Figure 11a: PE utilization (WD)");
    table.setHeader({"Accelerator", "PE utilization",
                     "DiTile improvement"});

    const auto dg = graph::makeDataset(options.datasets.front(),
                                       options.datasetOptions());
    std::vector<double> utils;
    for (auto &acc : accelerators)
        utils.push_back(acc->run(dg, mconfig).peUtilization);

    const double ditile_util = utils.back();
    double improvement_sum = 0.0;
    for (std::size_t i = 0; i < accelerators.size(); ++i) {
        const bool baseline = i + 1 < accelerators.size();
        const double gain = baseline && utils[i] > 0.0
            ? ditile_util / utils[i] - 1.0 : 0.0;
        if (baseline)
            improvement_sum += gain;
        table.addRow({accelerators[i]->name(),
                      Table::percent(utils[i], 2),
                      baseline ? Table::percent(gain) : "-"});
    }
    table.addRow({"Average improvement", "",
                  Table::percent(improvement_sum / 4.0)});
    bench::emit(table, options);
    std::printf("paper: +23.8%% average PE utilization vs baselines "
                "on WD\n");
    return 0;
}
