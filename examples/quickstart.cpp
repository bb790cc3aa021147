/**
 * @file
 * Quickstart: synthesize a small dynamic graph, run DiTile-DGNN and
 * the four baseline accelerators on it, and print a comparison table.
 *
 * Usage:
 *   quickstart [--vertices=N] [--edges=M] [--snapshots=T]
 *              [--dissimilarity=D] [--seed=S]
 */

#include <memory>
#include <vector>

#include "common/cli.hh"
#include "common/table.hh"
#include "core/catalog.hh"
#include "graph/generator.hh"

using namespace ditile;

int
main(int argc, char **argv)
{
    const CliFlags flags = CliFlags::parse(argc, argv);

    // 1. Describe the dynamic graph workload.
    graph::EvolutionConfig gconfig;
    gconfig.name = "quickstart";
    gconfig.numVertices =
        static_cast<VertexId>(flags.getInt("vertices", 2000));
    gconfig.numEdges = flags.getInt("edges", 16000);
    gconfig.numSnapshots =
        static_cast<SnapshotId>(flags.getInt("snapshots", 8));
    gconfig.dissimilarity = flags.getDouble("dissimilarity", 0.10);
    gconfig.featureDim = static_cast<int>(flags.getInt("features", 128));
    gconfig.seed = static_cast<std::uint64_t>(flags.getInt("seed", 42));
    const graph::DynamicGraph dg = graph::generateDynamicGraph(gconfig);

    std::printf("workload: %s  V=%d  avgE=%.0f  T=%d  Dis=%.1f%%\n",
                dg.name().c_str(), dg.numVertices(), dg.avgEdges(),
                dg.numSnapshots(), dg.avgDissimilarity() * 100.0);

    // 2. Describe the DGNN model (2-layer GCN + LSTM).
    model::DgnnConfig mconfig;

    // 3. Run every accelerator.
    const auto accelerators = core::paperFleet();

    Table table("Quickstart comparison");
    table.setHeader({"Accelerator", "Cycles", "Ops", "DRAM bytes",
                     "NoC bytes", "Energy (uJ)", "PE util"});
    double ditile_cycles = 0.0;
    double worst_cycles = 0.0;
    for (auto &acc : accelerators) {
        const auto r = acc->run(dg, mconfig);
        table.addRow({r.acceleratorName,
                      Table::integer(static_cast<long long>(
                          r.totalCycles)),
                      Table::sci(static_cast<double>(
                          r.ops.totalArithmetic())),
                      Table::sci(static_cast<double>(
                          r.dramTraffic.total())),
                      Table::sci(static_cast<double>(r.nocBytes)),
                      Table::num(r.energy.totalPj() / 1e6, 2),
                      Table::percent(r.peUtilization)});
        if (r.acceleratorName == "DiTile-DGNN")
            ditile_cycles = static_cast<double>(r.totalCycles);
        worst_cycles = std::max(worst_cycles,
                                static_cast<double>(r.totalCycles));
    }
    table.print();
    if (ditile_cycles > 0.0) {
        std::printf("DiTile-DGNN speedup vs slowest baseline: %.2fx\n",
                    worst_cycles / ditile_cycles);
    }
    return 0;
}
