/**
 * @file
 * Cycle-accurate interpreter for tile programs.
 *
 * Models the Figure-5(c) controller: instructions issue in order from
 * the instruction queue (one per cycle) to their functional unit —
 * the distributed-buffer port (LoadWeights/GatherLoad/StoreOutput),
 * the reuse-FIFO port (ReadFifo), the MAC array (Mac), the PPU
 * (Activate), and the router interface (SendMsg). Units are pipelined
 * and run concurrently; an instruction occupies its unit for a
 * duration set by the unit's bandwidth/throughput; Barrier drains
 * everything. The makespan is the drain time of the last unit.
 */

#ifndef DITILE_SIM_TILE_INTERPRETER_HH
#define DITILE_SIM_TILE_INTERPRETER_HH

#include "sim/isa.hh"
#include "sim/tile_model.hh"

namespace ditile::sim {

/**
 * Execution record for one tile program.
 */
struct InterpreterResult
{
    Cycle cycles = 0;               ///< Program makespan.
    std::uint64_t instructions = 0; ///< Instructions retired.
    Cycle macBusyCycles = 0;
    Cycle bufferBusyCycles = 0;     ///< Distributed-buffer port.
    Cycle fifoBusyCycles = 0;
    Cycle ppuBusyCycles = 0;
    Cycle routerBusyCycles = 0;
    ByteCount bufferBytes = 0;
    ByteCount fifoBytes = 0;
    ByteCount sentBytes = 0;
    double macUtilization = 0.0;
};

/**
 * Executes TilePrograms on one tile's microarchitecture.
 */
class TileInterpreter
{
  public:
    explicit TileInterpreter(const TileConfig &config = {});

    InterpreterResult execute(const TileProgram &program) const;

    const TileConfig &config() const { return config_; }

  private:
    TileConfig config_;
};

} // namespace ditile::sim

#endif // DITILE_SIM_TILE_INTERPRETER_HH
