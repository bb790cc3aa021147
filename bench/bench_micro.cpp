/**
 * @file
 * Google-benchmark micro benchmarks of the simulator substrates:
 * graph generation, CSR construction, frontier expansion, workload
 * labeling, the Stage-1 GCN walk, NoC replay, DRAM replay, and the
 * functional kernels.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/simd.hh"
#include "core/ditile_accelerator.hh"
#include "dram/dram_model.hh"
#include "graph/ctdg.hh"
#include "graph/datasets.hh"
#include "graph/generator.hh"
#include "graph/window.hh"
#include "model/functional.hh"
#include "model/incremental.hh"
#include "noc/flit_network.hh"
#include "noc/network.hh"
#include "serve/checkpoint.hh"
#include "serve/loadgen.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/wal.hh"
#include "sim/engine_internal.hh"
#include "sim/tile_model.hh"
#include "workload/balance.hh"
#include "workload/digest.hh"
#include "workload/slot_arrays.hh"

using namespace ditile;

namespace {

graph::Csr
makeGraph(VertexId vertices, EdgeId edges, std::uint64_t seed = 7)
{
    Rng rng(seed);
    return graph::generateRmat(vertices, edges, {}, rng);
}

void
BM_RmatGenerate(benchmark::State &state)
{
    const auto vertices = static_cast<VertexId>(state.range(0));
    for (auto _ : state) {
        Rng rng(11);
        auto g = graph::generateRmat(vertices, vertices * 8, {}, rng);
        benchmark::DoNotOptimize(g.numEdges());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_RmatGenerate)->Arg(1 << 10)->Arg(1 << 14);

/** Whole dynamic-graph generation: R-MAT base plus patched snapshots. */
void
BM_GenerateDynamicGraph(benchmark::State &state)
{
    graph::DatasetOptions options;
    options.scale = 0.5;
    options.numSnapshots = 16;
    options.dissimilarity = 0.10;
    for (auto _ : state) {
        auto dg = graph::makeDataset("WD", options);
        benchmark::DoNotOptimize(dg.structureHashValue());
    }
}
BENCHMARK(BM_GenerateDynamicGraph)->Unit(benchmark::kMillisecond);

void
BM_CsrFromEdges(benchmark::State &state)
{
    const auto vertices = static_cast<VertexId>(state.range(0));
    const auto g = makeGraph(vertices, vertices * 8);
    const auto edges = g.edgeList();
    for (auto _ : state) {
        auto rebuilt = graph::Csr::fromEdges(vertices, edges);
        benchmark::DoNotOptimize(rebuilt.numAdjacencies());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(edges.size()));
}
BENCHMARK(BM_CsrFromEdges)->Arg(1 << 12)->Arg(1 << 15);

/**
 * The edge sort inside Csr::fromEdges at the size generation sorts:
 * WD at scale 0.5, edges shuffled and randomly oriented as R-MAT
 * draws arrive.
 */
void
BM_EdgeSort(benchmark::State &state)
{
    graph::DatasetOptions options;
    options.scale = 0.5;
    options.numSnapshots = 1;
    const auto base = graph::makeDataset("WD", options).snapshot(0);
    auto edges = base.edgeList();
    Rng rng(5);
    for (std::size_t i = edges.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(i) - 1));
        std::swap(edges[i - 1], edges[j]);
        if (rng.uniformInt(0, 1) == 1)
            std::swap(edges[i - 1].first, edges[i - 1].second);
    }
    for (auto _ : state) {
        auto g = graph::Csr::fromEdges(base.numVertices(), edges);
        benchmark::DoNotOptimize(g.numAdjacencies());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(edges.size()));
}
BENCHMARK(BM_EdgeSort);

/** Eq.-1 sampling of the Ctdg.DiscretizePinned stream at T = 128. */
void
BM_Discretize(benchmark::State &state)
{
    graph::EventStreamConfig config;
    config.numVertices = 4096;
    config.initialEdges = 32768;
    config.numEvents = 20000;
    config.seed = 3;
    const auto ctdg = graph::generateEventStream(config);
    for (auto _ : state) {
        auto dg = ctdg.discretize(128, 16);
        benchmark::DoNotOptimize(dg.structureHashValue());
    }
}
BENCHMARK(BM_Discretize)->Unit(benchmark::kMillisecond);

/**
 * A serve-sized tenant's write path: 160 vertices, 640 edges, a
 * three-snapshot window rolled every 64 events; one item is one roll
 * with its 64 events.
 */
void
BM_WindowRoll(benchmark::State &state)
{
    constexpr std::size_t kRollEvery = 64;
    graph::EventStreamConfig config;
    config.numVertices = 160;
    config.initialEdges = 640;
    config.numEvents = kRollEvery * 64;
    config.seed = 7;
    const auto ctdg = graph::generateEventStream(config);
    const auto &events = ctdg.events();
    std::int64_t rolls = 0;
    for (auto _ : state) {
        graph::SnapshotWindow window("bench", ctdg.initial(), 3, 16);
        for (std::size_t i = 0; i < events.size(); ++i) {
            window.apply(events[i]);
            if ((i + 1) % kRollEvery == 0) {
                window.roll();
                ++rolls;
            }
        }
        benchmark::DoNotOptimize(window.graph().structureHashValue());
    }
    state.SetItemsProcessed(rolls);
}
BENCHMARK(BM_WindowRoll)->Unit(benchmark::kMicrosecond);

void
BM_FrontierExpansion(benchmark::State &state)
{
    const auto g = makeGraph(1 << 14, 1 << 17);
    std::vector<VertexId> seeds;
    for (VertexId v = 0; v < 256; ++v)
        seeds.push_back(v * 17 % g.numVertices());
    std::sort(seeds.begin(), seeds.end());
    for (auto _ : state) {
        auto out = graph::expandFrontier(g, seeds, 2);
        benchmark::DoNotOptimize(out.size());
    }
}
BENCHMARK(BM_FrontierExpansion);

void
BM_WorkloadLabeling(benchmark::State &state)
{
    const auto g = makeGraph(static_cast<VertexId>(state.range(0)),
                             state.range(0) * 8);
    for (auto _ : state) {
        auto loads = workload::computeSnapshotLoads(g, 2);
        benchmark::DoNotOptimize(loads.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WorkloadLabeling)->Arg(1 << 12)->Arg(1 << 15);

void
BM_BalancedPartition(benchmark::State &state)
{
    const auto g = makeGraph(1 << 15, 1 << 18);
    const auto loads = workload::computeSnapshotLoads(g, 2);
    for (auto _ : state) {
        auto p = workload::balancedPartition(loads, 16);
        benchmark::DoNotOptimize(p.numParts());
    }
}
BENCHMARK(BM_BalancedPartition);

/**
 * Args: topology kind, message count. Every message injects at cycle
 * 0 between random tiles of the 16x16 grid; {Mesh, 12288} is the size
 * of one MEGA snapshot's spatial phase.
 */
void
BM_NocReplay(benchmark::State &state)
{
    noc::NocConfig config;
    config.topology = static_cast<noc::TopologyKind>(state.range(0));
    const auto count = static_cast<int>(state.range(1));
    Rng rng(3);
    std::vector<noc::Message> msgs;
    for (int i = 0; i < count; ++i) {
        noc::Message m;
        m.src = static_cast<TileId>(rng.uniformInt(0, 255));
        m.dst = static_cast<TileId>(rng.uniformInt(0, 255));
        m.bytes = static_cast<ByteCount>(rng.uniformInt(64, 4096));
        msgs.push_back(m);
    }
    for (auto _ : state) {
        auto res = noc::simulateTraffic(config, msgs);
        benchmark::DoNotOptimize(res.makespan);
    }
    state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_NocReplay)
    ->Args({static_cast<int>(noc::TopologyKind::Mesh), 4096})
    ->Args({static_cast<int>(noc::TopologyKind::Ring), 4096})
    ->Args({static_cast<int>(noc::TopologyKind::Crossbar), 4096})
    ->Args({static_cast<int>(noc::TopologyKind::Reconfigurable), 4096})
    ->Args({static_cast<int>(noc::TopologyKind::Mesh), 12288});

/**
 * The Stage-1 GCN walk (slot MACs plus spatial gather traffic) of one
 * incremental WD snapshot under DiTile-Alg, over 256 slots.
 */
void
BM_SpatialWalk(benchmark::State &state)
{
    graph::DatasetOptions options;
    options.scale = 0.5;
    options.numSnapshots = 4;
    const auto dg = graph::makeDataset("WD", options);
    const model::DgnnConfig mconfig;
    const model::IncrementalPlanner planner(dg, mconfig,
                                            model::AlgoKind::DiTileAlg);
    const model::SnapshotPlan &plan = planner.plan(1);
    const int slots = 256;
    std::vector<int> owners(static_cast<std::size_t>(dg.numVertices()));
    for (VertexId v = 0; v < dg.numVertices(); ++v)
        owners[static_cast<std::size_t>(v)] = v % slots;
    std::vector<OpCount> slot_gnn(slots);
    std::vector<ByteCount> gather;
    sim::detail::DenseTraffic traffic(slots);
    std::size_t occurrences = 0;
    for (const auto &layer : plan.gcn)
        occurrences += layer.vertices.size();
    for (auto _ : state) {
        std::fill(slot_gnn.begin(), slot_gnn.end(), 0);
        traffic.reset(slots);
        sim::detail::walkGcnLayers(dg.snapshot(1), plan.gcn, mconfig,
                                   dg.featureDim(), 2, owners.data(),
                                   slot_gnn, nullptr, gather, traffic);
        benchmark::DoNotOptimize(slot_gnn.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(occurrences));
}
BENCHMARK(BM_SpatialWalk);

void
BM_FlitNocReplay(benchmark::State &state)
{
    noc::FlitConfig config;
    config.noc.rows = 8;
    config.noc.cols = 8;
    Rng rng(4);
    std::vector<noc::Message> msgs;
    for (int i = 0; i < 256; ++i) {
        noc::Message m;
        m.src = static_cast<TileId>(rng.uniformInt(0, 63));
        m.dst = static_cast<TileId>(rng.uniformInt(0, 63));
        m.bytes = static_cast<ByteCount>(rng.uniformInt(64, 1024));
        msgs.push_back(m);
    }
    for (auto _ : state) {
        auto res = noc::simulateFlitTraffic(config, msgs);
        benchmark::DoNotOptimize(res.makespan);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_FlitNocReplay);

void
BM_TileModelSchedule(benchmark::State &state)
{
    sim::TileModel tile;
    Rng rng(6);
    std::vector<sim::VertexTask> tasks;
    for (int i = 0; i < 2048; ++i) {
        sim::VertexTask t;
        t.macs = static_cast<OpCount>(rng.uniformInt(64, 2048));
        t.postOps = 32;
        t.inputBytes = 512;
        tasks.push_back(t);
    }
    for (auto _ : state) {
        auto res = tile.executePhase(tasks);
        benchmark::DoNotOptimize(res.cycles);
    }
    state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_TileModelSchedule);

/**
 * Arg 0: 512 scattered requests (incremental gathers). Arg 1: one
 * 8 MiB sequential read (a full-recompute region stream), where the
 * per-request cost is bounded by the bank count, not the row count.
 */
void
BM_DramReplay(benchmark::State &state)
{
    dram::DramModel model;
    std::vector<dram::DramRequest> reqs;
    if (state.range(0) == 0) {
        Rng rng(5);
        for (int i = 0; i < 512; ++i) {
            reqs.push_back({static_cast<std::uint64_t>(
                                rng.uniformInt(0, 1 << 28)),
                            static_cast<ByteCount>(
                                rng.uniformInt(256, 1 << 16)),
                            i % 3 == 0, 0});
        }
    } else {
        reqs.push_back({0, ByteCount{8} << 20, false, 0});
    }
    for (auto _ : state) {
        model.reset();
        auto res = model.service(reqs);
        benchmark::DoNotOptimize(res.completionCycle);
    }
}
BENCHMARK(BM_DramReplay)->Arg(0)->Arg(1);

void
BM_GcnLayerFunctional(benchmark::State &state)
{
    const auto g = makeGraph(512, 4096);
    Rng rng(9);
    auto x = model::Matrix::random(g.numVertices(), 64, rng);
    auto w = model::Matrix::random(64, 32, rng);
    for (auto _ : state) {
        auto out = model::gcnLayer(g, x, w);
        benchmark::DoNotOptimize(out.data().data());
    }
}
BENCHMARK(BM_GcnLayerFunctional);

void
BM_LstmStepFunctional(benchmark::State &state)
{
    model::DgnnConfig config;
    config.gcnDims = {64, 32};
    config.lstmHidden = 32;
    auto weights = model::DgnnWeights::random(config, 64, 13);
    Rng rng(17);
    auto z = model::Matrix::random(512, 32, rng);
    model::Matrix h(512, 32);
    model::Matrix c(512, 32);
    for (auto _ : state) {
        model::lstmStep(z, weights, h, c);
        benchmark::DoNotOptimize(h.data().data());
    }
}
BENCHMARK(BM_LstmStepFunctional);

void
BM_IncrementalPlanning(benchmark::State &state)
{
    graph::EvolutionConfig config;
    config.numVertices = 1 << 13;
    config.numEdges = 1 << 16;
    config.numSnapshots = 8;
    const auto dg = graph::generateDynamicGraph(config);
    const model::DgnnConfig mconfig;
    for (auto _ : state) {
        model::IncrementalPlanner planner(dg, mconfig,
                                          model::AlgoKind::DiTileAlg);
        benchmark::DoNotOptimize(planner.plan(7).rnnVertices.size());
    }
}
BENCHMARK(BM_IncrementalPlanning);

// ---- SoA / SIMD hot-path kernels (ROADMAP item 5) ----

void
BM_F64Axpy(benchmark::State &state)
{
    const std::size_t n = 1 << 14;
    std::vector<double> dst(n, 0.5), src(n, 1.25);
    for (auto _ : state) {
        simd::f64Axpy(dst.data(), src.data(), 0.999, n);
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(n));
}
BENCHMARK(BM_F64Axpy);

/** The scratch slot-census kernel over one CSR snapshot. */
void
BM_SlotScratchKernel(benchmark::State &state)
{
    const auto g = makeGraph(1 << 14, 1 << 17);
    const int slots = 16;
    std::vector<int> owners(
        static_cast<std::size_t>(g.numVertices()));
    for (VertexId v = 0; v < g.numVertices(); ++v)
        owners[static_cast<std::size_t>(v)] = v % slots;
    std::vector<std::int32_t> edge_owner;
    workload::buildEdgeOwnerIndex(g, owners, edge_owner);
    std::vector<std::uint64_t> deg(slots);
    std::vector<std::uint64_t> cross(
        static_cast<std::size_t>(slots) * slots);
    for (auto _ : state) {
        workload::countSlotEdges(g, owners, edge_owner.data(), slots,
                                 deg.data(), cross.data());
        benchmark::DoNotOptimize(cross.data());
    }
    state.SetItemsProcessed(state.iterations() * g.numAdjacencies());
}
BENCHMARK(BM_SlotScratchKernel);

void
BM_EdgeOwnerIndex(benchmark::State &state)
{
    const auto g = makeGraph(1 << 14, 1 << 17);
    const int slots = 16;
    std::vector<int> owners(
        static_cast<std::size_t>(g.numVertices()));
    for (VertexId v = 0; v < g.numVertices(); ++v)
        owners[static_cast<std::size_t>(v)] = v % slots;
    std::vector<std::int32_t> edge_owner;
    for (auto _ : state) {
        workload::buildEdgeOwnerIndex(g, owners, edge_owner);
        benchmark::DoNotOptimize(edge_owner.data());
    }
    state.SetItemsProcessed(state.iterations() * g.numAdjacencies());
}
BENCHMARK(BM_EdgeOwnerIndex);

/** Full digest build including the delta patch path. */
void
BM_PartitionDigestBuild(benchmark::State &state)
{
    graph::EvolutionConfig config;
    config.numVertices = 1 << 13;
    config.numEdges = 1 << 16;
    config.numSnapshots = 8;
    config.dissimilarity = 0.06;
    const auto dg = graph::generateDynamicGraph(config);
    const int slots = 16;
    std::vector<int> owners(
        static_cast<std::size_t>(dg.numVertices()));
    for (VertexId v = 0; v < dg.numVertices(); ++v)
        owners[static_cast<std::size_t>(v)] = v % slots;
    for (auto _ : state) {
        auto d = workload::buildPartitionDigest(dg, owners, slots);
        benchmark::DoNotOptimize(d.arrays.cross.data());
    }
    state.SetItemsProcessed(state.iterations() * dg.numSnapshots());
}
BENCHMARK(BM_PartitionDigestBuild);

/**
 * Touched-cell accumulate + diagonal clear + mix64-ordered drain of
 * slots * 64 random adds into a slots x slots matrix.
 */
void
BM_DenseTrafficDrain(benchmark::State &state)
{
    const auto slots = static_cast<int>(state.range(0));
    const int adds = slots * 64;
    sim::detail::DenseTraffic traffic(slots);
    std::vector<noc::Message> out;
    std::uint64_t x = 99;
    for (auto _ : state) {
        traffic.reset(slots);
        for (int i = 0; i < adds; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            traffic.add(static_cast<int>(x % slots),
                        static_cast<int>((x >> 8) % slots),
                        64 + (x >> 16) % 256);
        }
        traffic.clearDiagonal();
        out.clear();
        traffic.emit(
            out, noc::TrafficClass::Spatial, 0,
            [](int s) { return static_cast<TileId>(s); },
            [](int s) { return static_cast<TileId>(s); });
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * adds);
}
BENCHMARK(BM_DenseTrafficDrain)->Arg(64)->Arg(256);

// ---- serve durability ----------------------------------------------

/** Non-nop lines of the default LoadGen script (perfbench serve_durable). */
const std::vector<std::string> &
serveScript()
{
    static const std::vector<std::string> lines = [] {
        std::istringstream in(serve::LoadGen::renderLines(
            serve::LoadGen(serve::LoadGenConfig{}).schedule()));
        std::vector<std::string> out;
        std::string line;
        while (std::getline(in, line))
            if (!serve::isNopLine(line))
                out.push_back(line);
        return out;
    }();
    return lines;
}

/** Server state after the whole script: what each checkpoint holds. */
const serve::ServerCheckpoint &
serveState()
{
    static const serve::ServerCheckpoint state = [] {
        serve::Server server(serve::ServerOptions{}, [] {
            return std::unique_ptr<sim::Accelerator>(
                std::make_unique<core::DiTileAccelerator>());
        });
        for (const std::string &line : serveScript())
            server.handle(line);
        return server.checkpointState();
    }();
    return state;
}

/** One WAL record per script line, OS-buffered, into a fresh log. */
void
BM_WalAppend(benchmark::State &state)
{
    const auto &lines = serveScript();
    const std::string path =
        (std::filesystem::temp_directory_path() / "bench_micro.wal")
            .string();
    for (auto _ : state) {
        auto wal = serve::WalWriter::openFresh(path, serve::WalSync::Off);
        for (const std::string &line : lines)
            wal->append(serve::WalRecord::Kind::Line, line);
        state.PauseTiming(); // close() fsyncs: time the appends only.
        wal.reset();
        state.ResumeTiming();
    }
    std::filesystem::remove(path);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(lines.size()));
}
BENCHMARK(BM_WalAppend)->Unit(benchmark::kMillisecond);

void
BM_CheckpointRender(benchmark::State &state)
{
    const serve::ServerCheckpoint &checkpoint = serveState();
    std::size_t bytes = 0;
    for (auto _ : state) {
        const std::string text = serve::renderCheckpoint(checkpoint);
        bytes = text.size();
        benchmark::DoNotOptimize(text.data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CheckpointRender)->Unit(benchmark::kMillisecond);

/** Parse and verify (crc re-render included) the rendered state. */
void
BM_CheckpointParse(benchmark::State &state)
{
    const std::string text = serve::renderCheckpoint(serveState());
    for (auto _ : state) {
        const serve::ServerCheckpoint parsed =
            serve::parseCheckpoint(text);
        benchmark::DoNotOptimize(parsed.tenants.data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_CheckpointParse)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    // --smoke: CI mode — one short pass per benchmark, translated to
    // the bare-double --benchmark_min_time form this benchmark
    // version accepts.
    static char min_time[] = "--benchmark_min_time=0.01";
    std::vector<char *> args(argv, argv + argc);
    for (auto &arg : args)
        if (std::strcmp(arg, "--smoke") == 0)
            arg = min_time;
    int patched_argc = static_cast<int>(args.size());
    benchmark::Initialize(&patched_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(patched_argc,
                                               args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
