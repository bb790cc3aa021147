/**
 * @file
 * Tests for the tile ISA, program generation, and the cycle-accurate
 * interpreter — including cross-validation against the op accounting
 * and the scheduling tile model.
 */

#include <gtest/gtest.h>

#include "graph/generator.hh"
#include "model/accounting.hh"
#include "sim/tile_interpreter.hh"

namespace ditile::sim {
namespace {

model::DgnnConfig
tinyModel()
{
    model::DgnnConfig config;
    config.gcnDims = {8, 4};
    config.lstmHidden = 4;
    return config;
}

TEST(Isa, OpcodeNames)
{
    EXPECT_STREQ(opcodeName(Opcode::Mac), "MAC");
    EXPECT_STREQ(opcodeName(Opcode::GatherLoad), "GLD");
    EXPECT_STREQ(opcodeName(Opcode::Barrier), "BAR");
}

TEST(Isa, DisassembleListsEveryInstruction)
{
    TileProgram p = {{Opcode::LoadWeights, 128},
                     {Opcode::Mac, 42},
                     {Opcode::Barrier, 0}};
    const auto text = disassemble(p);
    EXPECT_NE(text.find("0: LDW 128"), std::string::npos);
    EXPECT_NE(text.find("1: MAC 42"), std::string::npos);
    EXPECT_NE(text.find("2: BAR"), std::string::npos);
}

TEST(Isa, GnnProgramShape)
{
    const auto g = graph::Csr::fromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
    const auto config = tinyModel();
    const std::vector<VertexId> worklist = {0, 1, 2};
    const auto program = buildGnnLayerProgram(g, config, 0, 16,
                                              worklist, {}, 0);
    // 1 LDW + 4 per vertex + barrier.
    ASSERT_EQ(program.size(), 1u + 4u * 3u + 1u);
    EXPECT_EQ(program.front().op, Opcode::LoadWeights);
    EXPECT_EQ(program.back().op, Opcode::Barrier);
    // Weight bytes: 16 * 8 * 4.
    EXPECT_EQ(program.front().operand, 16u * 8u * 4u);
}

TEST(Isa, GnnProgramMacsMatchAccounting)
{
    // The MAC operands of a full-worklist program must equal the
    // accounting layer's per-layer MACs.
    graph::EvolutionConfig gconfig;
    gconfig.numVertices = 64;
    gconfig.numEdges = 256;
    gconfig.numSnapshots = 1;
    gconfig.featureDim = 16;
    const auto dg = graph::generateDynamicGraph(gconfig);
    const auto config = tinyModel();

    model::IncrementalPlanner planner(dg, config,
                                      model::AlgoKind::ReAlg);
    const auto &plan = planner.plan(0);
    const auto ops = model::countSnapshotOps(dg, 0, config, plan);

    std::uint64_t program_macs = 0;
    std::uint64_t program_acts = 0;
    for (int l = 0; l < config.numGcnLayers(); ++l) {
        std::vector<VertexId> worklist;
        plan.gcn[static_cast<std::size_t>(l)].vertices.forEach(
            [&](VertexId v) { worklist.push_back(v); });
        const auto program = buildGnnLayerProgram(
            dg.snapshot(0), config, l, dg.featureDim(), worklist, {}, 0);
        const auto totals = operandTotals(program);
        program_macs += totals[static_cast<std::size_t>(Opcode::Mac)];
        program_acts +=
            totals[static_cast<std::size_t>(Opcode::Activate)];
    }
    EXPECT_EQ(program_macs,
              ops.aggregationMacs + ops.combinationMacs);
    EXPECT_EQ(program_acts, static_cast<std::uint64_t>(
        plan.gcn[0].vertices.size() * 8 +
        plan.gcn[1].vertices.size() * 4));
}

TEST(Isa, RnnProgramMacsMatchAccounting)
{
    const auto config = tinyModel();
    const auto program = buildRnnProgram(config, 10);
    const auto totals = operandTotals(program);
    EXPECT_EQ(totals[static_cast<std::size_t>(Opcode::Mac)],
              10u * model::rnnMacsPerVertex(config));
}

TEST(Isa, ReuseMaskSelectsFifo)
{
    const auto g = graph::Csr::fromEdges(3, {{0, 1}, {1, 2}});
    const auto config = tinyModel();
    const std::vector<VertexId> worklist = {0, 1, 2};
    const std::vector<bool> reuse = {true, false, true};
    const auto program = buildGnnLayerProgram(g, config, 0, 16,
                                              worklist, reuse, 0);
    int fifo = 0;
    int gather = 0;
    for (const auto &inst : program) {
        fifo += inst.op == Opcode::ReadFifo;
        gather += inst.op == Opcode::GatherLoad;
    }
    EXPECT_EQ(fifo, 2);
    EXPECT_EQ(gather, 1);
}

TEST(Isa, SendMsgEmittedWhenRequested)
{
    const auto g = graph::Csr::fromEdges(2, {{0, 1}});
    const auto program = buildGnnLayerProgram(g, tinyModel(), 0, 16,
                                              {0, 1}, {}, 64);
    const auto totals = operandTotals(program);
    EXPECT_EQ(totals[static_cast<std::size_t>(Opcode::SendMsg)],
              128u);
}

TEST(Interpreter, EmptyProgram)
{
    TileInterpreter interp;
    const auto r = interp.execute({});
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.instructions, 0u);
}

TEST(Interpreter, SingleMacDuration)
{
    TileConfig config;
    TileInterpreter interp(config);
    // 2560 MACs at 256 MACs/cycle -> 10 busy cycles.
    const auto r = interp.execute({{Opcode::Mac, 2560}});
    EXPECT_EQ(r.macBusyCycles, 10u);
    EXPECT_EQ(r.cycles, 10u);
    EXPECT_DOUBLE_EQ(r.macUtilization, 1.0);
}

TEST(Interpreter, UnitsOverlap)
{
    TileConfig config;
    TileInterpreter interp(config);
    // MAC work and PPU work on different units overlap: makespan is
    // the max, not the sum (modulo 1-per-cycle issue).
    const auto r = interp.execute({{Opcode::Mac, 2560},
                                   {Opcode::Activate, 6400}});
    EXPECT_EQ(r.macBusyCycles, 10u);
    EXPECT_EQ(r.ppuBusyCycles, 100u);
    EXPECT_LE(r.cycles, 102u);
}

TEST(Interpreter, SameUnitSerializes)
{
    TileConfig config;
    TileInterpreter interp(config);
    const auto r = interp.execute({{Opcode::Mac, 2560},
                                   {Opcode::Mac, 2560}});
    EXPECT_EQ(r.cycles, 20u);
}

TEST(Interpreter, BarrierDrainsAllUnits)
{
    TileConfig config;
    TileInterpreter interp(config);
    const auto r = interp.execute({{Opcode::Activate, 6400},
                                   {Opcode::Barrier, 0},
                                   {Opcode::Mac, 256}});
    // The MAC cannot start before the PPU drains at cycle 100.
    EXPECT_GE(r.cycles, 101u);
}

TEST(Interpreter, IssueRateBoundsInstructionThroughput)
{
    TileConfig config;
    TileInterpreter interp(config);
    // 1000 one-cycle instructions on one unit: issue rate (1/cycle)
    // and unit serialization both give ~1000 cycles.
    TileProgram program(1000, {Opcode::Mac, 1});
    const auto r = interp.execute(program);
    EXPECT_GE(r.cycles, 1000u);
    EXPECT_EQ(r.instructions, 1000u);
}

/**
 * Cross-validation: executing a generated GNN program through the
 * interpreter lands within a bounded envelope of the scheduling tile
 * model on the same worklist.
 */
TEST(Interpreter, CrossValidatesWithTileModel)
{
    graph::EvolutionConfig gconfig;
    gconfig.numVertices = 256;
    gconfig.numEdges = 1536;
    gconfig.numSnapshots = 1;
    gconfig.featureDim = 32;
    const auto dg = graph::generateDynamicGraph(gconfig);
    const auto config = tinyModel();
    const auto &g = dg.snapshot(0);

    std::vector<VertexId> worklist;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        worklist.push_back(v);

    // Interpreter path.
    TileInterpreter interp;
    const auto program = buildGnnLayerProgram(g, config, 0,
                                              dg.featureDim(),
                                              worklist, {}, 0);
    const auto detailed = interp.execute(program);

    // Scheduling-model path on equivalent tasks.
    TileModel tile;
    std::vector<VertexTask> tasks;
    for (VertexId v : worklist) {
        VertexTask t;
        t.vertex = v;
        t.macs = (static_cast<OpCount>(g.degree(v)) + 1) * 32 +
            32 * 8;
        t.postOps = 8;
        t.inputBytes = (static_cast<ByteCount>(g.degree(v)) + 1) * 32
            * 4;
        tasks.push_back(t);
    }
    const auto scheduled = tile.executePhase(tasks);

    const double ratio = static_cast<double>(detailed.cycles) /
        static_cast<double>(scheduled.cycles);
    EXPECT_GT(ratio, 0.2) << detailed.cycles << " vs "
                          << scheduled.cycles;
    EXPECT_LT(ratio, 5.0) << detailed.cycles << " vs "
                          << scheduled.cycles;
}

} // namespace
} // namespace ditile::sim
