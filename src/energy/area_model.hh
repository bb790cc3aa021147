/**
 * @file
 * Area model for the Figure-14 breakdowns.
 *
 * The paper synthesizes the design with Synopsys DC on TSMC 45 nm and
 * sizes buffers with CACTI 6.0; neither tool is available offline, so
 * this module ships per-component area constants calibrated to the 45 nm
 * class (MAC/SRAM/router footprints) and composes them structurally from
 * the accelerator configuration. The calibration reproduces the
 * hierarchy of Figure 14: chip = tiles + on-chip buffer + NoC + logic;
 * tile = PE array + distributed buffer + reuse FIFO + PE mesh + control;
 * PE = MAC array + local buffer + PPU/dispatcher + control.
 */

#ifndef DITILE_ENERGY_AREA_MODEL_HH
#define DITILE_ENERGY_AREA_MODEL_HH

#include "common/types.hh"

namespace ditile::energy {

/**
 * Per-component area constants (um^2, 45 nm class).
 */
struct AreaParams
{
    double macUm2 = 8000.0;            ///< FP32 multiply-accumulate.
    double ppuUm2 = 24000.0;           ///< Post-processing unit per PE.
    double dispatcherUm2 = 7900.0;     ///< PE data dispatcher.
    double peControlUm2 = 4300.0;      ///< PE-local control.
    double localBufUm2PerByte = 0.1957;
    double distBufUm2PerByte = 0.3859; ///< Wider-port tile SRAM.
    double fifoUm2PerByte = 0.8805;    ///< Double-buffered reuse FIFO.
    double peMeshRouterUm2 = 8192.0;   ///< Intra-tile mesh stop per PE.
    double tileControlUm2 = 39893.0;   ///< Tile controller + Re-Link mux.
    double tileRouterUm2 = 410212.0;   ///< Chip-level router + links.
    double globalBufferUm2 = 294415286.0; ///< Chip-level on-chip buffer.
    double chipLogicUm2 = 16877309.0;  ///< Dispatcher/adjuster/controller.
};

/**
 * Structural configuration the areas are composed from.
 */
struct AreaConfig
{
    int tiles = 256;             ///< 16 x 16 array.
    int pesPerTile = 16;         ///< 4 x 4 PEs.
    int macsPerPe = 16;          ///< 4 x 4 MAC array.
    ByteCount localBufferBytes = 256u << 10;
    ByteCount distBufferBytes = 4u << 20;
    ByteCount reuseFifoBytes = 512u << 10;
};

/** Figure 14 (c): PE-level breakdown. */
struct PeArea
{
    AreaUm2 macArray = 0;
    AreaUm2 localBuffer = 0;
    AreaUm2 ppu = 0;
    AreaUm2 dispatcher = 0;
    AreaUm2 control = 0;
    AreaUm2 total() const;
};

/** Figure 14 (b): tile-level breakdown. */
struct TileArea
{
    PeArea pe;
    AreaUm2 peArray = 0;
    AreaUm2 distBuffer = 0;
    AreaUm2 reuseFifo = 0;
    AreaUm2 mesh = 0;
    AreaUm2 control = 0;
    AreaUm2 total() const;
};

/** Figure 14 (a): chip-level breakdown. */
struct ChipArea
{
    TileArea tile;
    AreaUm2 tileArray = 0;
    AreaUm2 onChipBuffer = 0;
    AreaUm2 noc = 0;
    AreaUm2 logic = 0;
    AreaUm2 total() const;
};

/** Compose the full area hierarchy. */
ChipArea computeArea(const AreaConfig &config = {},
                     const AreaParams &params = {});

} // namespace ditile::energy

#endif // DITILE_ENERGY_AREA_MODEL_HH
