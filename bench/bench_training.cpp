/**
 * @file
 * Extension bench: training-iteration time per update algorithm.
 *
 * The paper's §4.1 notes the methodology "can be applied to the
 * training stage where gradient and embedding propagation follow
 * graph structure as well". This bench quantifies that claim: one
 * simulated training iteration (forward + backward + all-reduce +
 * update) per algorithm on each dataset, on the iso-resource engine.
 */

#include "bench/bench_util.hh"
#include "sim/training_engine.hh"
#include "core/ditile_accelerator.hh"
#include "graph/partition.hh"
#include "sim/baselines.hh"

using namespace ditile;

namespace {

sim::TrainingResult
trainWith(model::AlgoKind algo, const graph::DynamicGraph &dg,
          const model::DgnnConfig &mconfig)
{
    const auto hw = sim::AcceleratorConfig::defaults();
    sim::MappingSpec mapping;
    mapping.rowPartition = graph::VertexPartition::contiguous(
        dg.numVertices(), hw.tileRows);
    mapping.snapshotColumn.resize(
        static_cast<std::size_t>(dg.numSnapshots()));
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t)
        mapping.snapshotColumn[static_cast<std::size_t>(t)] =
            static_cast<int>(t % hw.tileCols);
    sim::EngineOptions options;
    options.algo = algo;
    options.accounting.crossFetchFraction =
        sim::baselineCrossFetchFraction(dg, mconfig, hw);
    return sim::runTrainingIteration(
        dg, sim::buildEnginePlan(dg, mconfig, hw, mapping, options,
                                 model::algoName(algo)));
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = bench::BenchOptions::parse(argc, argv);
    const auto mconfig = bench::paperModel();

    Table table("Training extension: one iteration per algorithm "
                "(cycles)");
    table.setHeader({"Dataset", "Re-Alg", "Race-Alg", "Mega-Alg",
                     "DiTile (full design)", "vs Re"});
    for (const auto &name : options.datasets) {
        const auto dg = graph::makeDataset(name,
                                           options.datasetOptions());
        double cycles[4];
        int idx = 0;
        for (model::AlgoKind kind :
             {model::AlgoKind::ReAlg, model::AlgoKind::RaceAlg,
              model::AlgoKind::MegaAlg}) {
            cycles[idx++] = static_cast<double>(
                trainWith(kind, dg, mconfig).iterationCycles);
        }
        const core::DiTileAccelerator ditile;
        cycles[3] = static_cast<double>(
            sim::runTrainingIteration(dg, ditile.plan(dg, mconfig))
                .iterationCycles);
        table.addRow({dg.name(), Table::sci(cycles[0]),
                      Table::sci(cycles[1]), Table::sci(cycles[2]),
                      Table::sci(cycles[3]),
                      bench::reduction(cycles[3], cycles[0])});
    }
    bench::emit(table, options);
    std::printf("paper (section 4.1): the redundancy-free methodology "
                "extends to training; no quantitative target given\n");
    return 0;
}
