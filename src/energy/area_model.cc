/**
 * @file
 * Area model implementation.
 */

#include "energy/area_model.hh"

namespace ditile::energy {

AreaUm2
PeArea::total() const
{
    return macArray + localBuffer + ppu + dispatcher + control;
}

AreaUm2
TileArea::total() const
{
    return peArray + distBuffer + reuseFifo + mesh + control;
}

AreaUm2
ChipArea::total() const
{
    return tileArray + onChipBuffer + noc + logic;
}

ChipArea
computeArea(const AreaConfig &config, const AreaParams &params)
{
    ChipArea chip;
    TileArea &tile = chip.tile;
    PeArea &pe = tile.pe;

    pe.macArray = params.macUm2 * config.macsPerPe;
    pe.localBuffer = params.localBufUm2PerByte *
        static_cast<double>(config.localBufferBytes);
    pe.ppu = params.ppuUm2;
    pe.dispatcher = params.dispatcherUm2;
    pe.control = params.peControlUm2;

    tile.peArray = pe.total() * config.pesPerTile;
    tile.distBuffer = params.distBufUm2PerByte *
        static_cast<double>(config.distBufferBytes);
    tile.reuseFifo = params.fifoUm2PerByte *
        static_cast<double>(config.reuseFifoBytes);
    tile.mesh = params.peMeshRouterUm2 * config.pesPerTile;
    tile.control = params.tileControlUm2;

    chip.tileArray = tile.total() * config.tiles;
    chip.onChipBuffer = params.globalBufferUm2;
    chip.noc = params.tileRouterUm2 * config.tiles;
    chip.logic = params.chipLogicUm2;
    return chip;
}

} // namespace ditile::energy
