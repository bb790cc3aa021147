/**
 * @file
 * The accelerator catalog: every accelerator the tools, benches and
 * examples run, made by name in one place.
 *
 * The paper's comparison fleet (§7.1, Figure 9) is ReaDy,
 * DGNN-Booster, RACE, MEGA and DiTile-DGNN, in that order; the
 * catalog names them `ready`, `booster`, `race`, `mega` and `ditile`.
 * An unknown accelerator or DiTile variant name is a fatal error
 * (exit 1) whose message lists the valid choices, the same wherever
 * the name came from.
 */

#ifndef DITILE_CORE_CATALOG_HH
#define DITILE_CORE_CATALOG_HH

#include <memory>
#include <string>
#include <vector>

#include "core/ditile_accelerator.hh"
#include "sim/accel_config.hh"

namespace ditile::core {

/**
 * The accelerator called `name` on hardware `hw`. `ditile` configures
 * the DiTile-DGNN accelerator and is ignored by the baselines.
 */
std::unique_ptr<sim::Accelerator>
makeAccelerator(const std::string &name,
                const sim::AcceleratorConfig &hw =
                    sim::AcceleratorConfig::defaults(),
                const DiTileOptions &ditile = {});

/** The Figure-9 fleet, in the paper's order (DiTile-DGNN last). */
std::vector<std::unique_ptr<sim::Accelerator>>
paperFleet(const sim::AcceleratorConfig &hw =
               sim::AcceleratorConfig::defaults(),
           const DiTileOptions &ditile = {});

} // namespace ditile::core

#endif // DITILE_CORE_CATALOG_HH
