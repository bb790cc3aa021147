/**
 * @file
 * Tile-program interpreter implementation.
 */

#include "sim/tile_interpreter.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace ditile::sim {

TileInterpreter::TileInterpreter(const TileConfig &config)
    : config_(config)
{
}

InterpreterResult
TileInterpreter::execute(const TileProgram &program) const
{
    InterpreterResult result;

    // Per-unit next-free times; instructions issue in order, one per
    // cycle, and occupy exactly one unit.
    enum Unit { Buffer, Fifo, MacArray, Ppu, Router, kUnits };
    Cycle unit_free[kUnits] = {0, 0, 0, 0, 0};
    Cycle *busy[kUnits] = {&result.bufferBusyCycles,
                           &result.fifoBusyCycles,
                           &result.macBusyCycles,
                           &result.ppuBusyCycles,
                           &result.routerBusyCycles};

    const auto mac_rate = static_cast<Cycle>(config_.pes) *
        static_cast<Cycle>(config_.macsPerPe);
    const auto ppu_rate = static_cast<Cycle>(config_.pes) *
        static_cast<Cycle>(config_.ppuOpsPerCycle);
    const auto buffer_rate =
        static_cast<Cycle>(config_.bufferPortBytesPerCycle);
    const auto fifo_rate = buffer_rate * 2; // double-buffered port.
    const Cycle router_rate = 32;           // interface width, B/cyc.

    Cycle issue = 0;
    for (const auto &inst : program) {
        ++result.instructions;
        if (inst.op == Opcode::Barrier) {
            Cycle drain = issue;
            for (auto t : unit_free)
                drain = std::max(drain, t);
            issue = drain;
            continue;
        }

        Unit unit = Buffer;
        Cycle duration = 1;
        switch (inst.op) {
          case Opcode::LoadWeights:
          case Opcode::GatherLoad:
          case Opcode::StoreOutput:
            unit = Buffer;
            duration = ceilDiv<Cycle>(inst.operand, buffer_rate);
            result.bufferBytes += inst.operand;
            break;
          case Opcode::ReadFifo:
            unit = Fifo;
            duration = ceilDiv<Cycle>(inst.operand, fifo_rate);
            result.fifoBytes += inst.operand;
            break;
          case Opcode::Mac:
            unit = MacArray;
            duration = ceilDiv<Cycle>(inst.operand, mac_rate);
            break;
          case Opcode::Activate:
            unit = Ppu;
            duration = ceilDiv<Cycle>(inst.operand, ppu_rate);
            break;
          case Opcode::SendMsg:
            unit = Router;
            duration = ceilDiv<Cycle>(inst.operand, router_rate);
            result.sentBytes += inst.operand;
            break;
          case Opcode::Barrier:
            DITILE_PANIC("handled above");
        }
        duration = std::max<Cycle>(duration, 1);

        // In-order issue at one instruction per cycle; the unit
        // serializes its own work.
        const Cycle start = std::max(issue, unit_free[unit]);
        unit_free[unit] = start + duration;
        *busy[unit] += duration;
        ++issue;
    }

    for (auto t : unit_free)
        result.cycles = std::max(result.cycles, t);
    result.cycles = std::max(result.cycles, issue);
    result.macUtilization = result.cycles > 0
        ? static_cast<double>(result.macBusyCycles) /
              static_cast<double>(result.cycles)
        : 0.0;
    return result;
}

} // namespace ditile::sim
