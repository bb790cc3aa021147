/**
 * @file
 * Tests for the energy table and area model (Figure 14 shapes).
 */

#include <gtest/gtest.h>

#include "energy/area_model.hh"
#include "energy/energy_model.hh"

namespace ditile::energy {
namespace {

TEST(EnergyTable, SramCostScalesWithCapacity)
{
    EnergyTable table;
    EXPECT_DOUBLE_EQ(table.sramPjPerByte(8u << 10),
                     table.sramSmallPjPerByte);
    EXPECT_DOUBLE_EQ(table.sramPjPerByte(256u << 10),
                     table.sramMediumPjPerByte);
    EXPECT_DOUBLE_EQ(table.sramPjPerByte(4u << 20),
                     table.sramLargePjPerByte);
    EXPECT_LT(table.sramSmallPjPerByte, table.sramMediumPjPerByte);
    EXPECT_LT(table.sramMediumPjPerByte, table.sramLargePjPerByte);
}

TEST(EnergyTable, HorowitzOrdering)
{
    EnergyTable table;
    // The canonical 45 nm ordering: add < mul < MAC << DRAM byte.
    EXPECT_LT(table.fp32AddPj, table.fp32MulPj);
    EXPECT_LT(table.fp32MulPj, table.fp32MacPj + 1e-9);
    EXPECT_GT(table.dramPjPerByte, 20.0 * table.fp32MacPj);
}

TEST(ComputeEnergy, ZeroEventsZeroEnergy)
{
    const auto e = computeEnergy(EnergyEvents{});
    EXPECT_DOUBLE_EQ(e.totalPj(), 0.0);
}

TEST(ComputeEnergy, CategoriesRouteCorrectly)
{
    EnergyTable table;
    table.controlOverheadFraction = 0.0;
    EnergyEvents events;
    events.macs = 1000;
    const auto compute_only = computeEnergy(events, table);
    EXPECT_DOUBLE_EQ(compute_only.computePj, 1000 * table.fp32MacPj);
    EXPECT_DOUBLE_EQ(compute_only.onChipCommPj, 0.0);
    EXPECT_DOUBLE_EQ(compute_only.offChipCommPj, 0.0);

    EnergyEvents dram_events;
    dram_events.dramBytes = 100;
    dram_events.dramActivates = 2;
    const auto dram_only = computeEnergy(dram_events, table);
    EXPECT_DOUBLE_EQ(dram_only.offChipCommPj,
                     100 * table.dramPjPerByte +
                         2 * table.dramActivatePj);
    EXPECT_DOUBLE_EQ(dram_only.computePj, 0.0);

    EnergyEvents noc_events;
    noc_events.nocLinkBytes = 64;
    noc_events.nocRouterBytes = 32;
    noc_events.distBufferBytes = 10;
    const auto onchip = computeEnergy(noc_events, table);
    EXPECT_DOUBLE_EQ(onchip.onChipCommPj,
                     64 * table.nocLinkPjPerByte +
                         32 * table.nocRouterPjPerByte +
                         10 * table.sramLargePjPerByte);
}

TEST(ComputeEnergy, Linearity)
{
    EnergyEvents events;
    events.macs = 500;
    events.dramBytes = 2048;
    events.nocLinkBytes = 128;
    const auto one = computeEnergy(events);
    EnergyEvents doubled = events;
    doubled += events;
    const auto two = computeEnergy(doubled);
    EXPECT_NEAR(two.totalPj(), 2.0 * one.totalPj(), 1e-9);
}

TEST(ComputeEnergy, ControlTracksActivityAndReconfig)
{
    EnergyTable table;
    EnergyEvents events;
    events.macs = 1000;
    events.reconfigEvents = 3;
    const auto e = computeEnergy(events, table);
    EXPECT_GT(e.controlPj, 3 * table.reconfigEventPj);
    // Control stays a small fraction of the datapath energy.
    EXPECT_LT(e.controlPj - 3 * table.reconfigEventPj,
              0.1 * e.computePj);
}

TEST(ScaleComputeEnergy, ArithmeticOnlyIsScaled)
{
    EnergyTable table;
    const auto scaled = scaleComputeEnergy(table, 0.25);
    EXPECT_DOUBLE_EQ(scaled.fp32MacPj, table.fp32MacPj * 0.25);
    EXPECT_DOUBLE_EQ(scaled.fp32AddPj, table.fp32AddPj * 0.25);
    EXPECT_DOUBLE_EQ(scaled.activationPj, table.activationPj * 0.25);
    // Storage/transport costs are width-independent per byte.
    EXPECT_DOUBLE_EQ(scaled.dramPjPerByte, table.dramPjPerByte);
    EXPECT_DOUBLE_EQ(scaled.nocLinkPjPerByte, table.nocLinkPjPerByte);
    EXPECT_DOUBLE_EQ(scaled.sramLargePjPerByte,
                     table.sramLargePjPerByte);
}

TEST(EnergyBreakdown, AccumulateAndExport)
{
    EnergyBreakdown a;
    a.computePj = 1;
    a.onChipCommPj = 2;
    a.offChipCommPj = 3;
    a.controlPj = 4;
    EnergyBreakdown b = a;
    b += a;
    EXPECT_DOUBLE_EQ(b.totalPj(), 20.0);
    const auto stats = b.toStats();
    EXPECT_DOUBLE_EQ(stats.get("energy.total_pj"), 20.0);
    EXPECT_DOUBLE_EQ(stats.get("energy.compute_pj"), 2.0);
}

TEST(AreaModel, ChipSharesMatchFigure14a)
{
    const auto area = computeArea();
    const double chip = area.total();
    EXPECT_NEAR(area.tileArray / chip, 0.778, 0.02);
    EXPECT_NEAR(area.onChipBuffer / chip, 0.157, 0.02);
    EXPECT_NEAR(area.noc / chip, 0.056, 0.01);
    EXPECT_NEAR(area.logic / chip, 0.009, 0.005);
}

TEST(AreaModel, TileSharesMatchFigure14b)
{
    const auto area = computeArea();
    const double tile = area.tile.total();
    EXPECT_NEAR(area.tile.peArray / tile, 0.605, 0.03);
    EXPECT_NEAR(area.tile.distBuffer / tile, 0.284, 0.03);
    EXPECT_NEAR(area.tile.reuseFifo / tile, 0.081, 0.02);
    EXPECT_NEAR(area.tile.mesh / tile, 0.023, 0.01);
    EXPECT_NEAR(area.tile.control / tile, 0.007, 0.005);
}

TEST(AreaModel, PeSharesMatchFigure14c)
{
    const auto area = computeArea();
    const double pe = area.tile.pe.total();
    EXPECT_NEAR(area.tile.pe.macArray / pe, 0.594, 0.03);
    EXPECT_NEAR(area.tile.pe.localBuffer / pe, 0.238, 0.03);
    EXPECT_NEAR(area.tile.pe.control / pe, 0.020, 0.01);
}

TEST(AreaModel, ScalesWithConfiguration)
{
    AreaConfig small;
    small.tiles = 64;
    small.distBufferBytes = 1u << 20;
    const auto small_area = computeArea(small);
    const auto big_area = computeArea();
    EXPECT_LT(small_area.tileArray, big_area.tileArray);
    EXPECT_LT(small_area.tile.distBuffer, big_area.tile.distBuffer);
}

} // namespace
} // namespace ditile::energy
