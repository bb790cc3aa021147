/**
 * @file
 * The accelerator catalog and the DiTile variant table.
 */

#include "core/catalog.hh"

#include <array>

#include "common/logging.hh"
#include "sim/baselines.hh"

namespace ditile::core {

namespace {

using Factory =
    std::unique_ptr<sim::Accelerator> (*)(const sim::AcceleratorConfig &,
                                          const DiTileOptions &);

struct CatalogEntry
{
    const char *name;
    Factory make;
};

/** Figure-9 order. */
const std::array<CatalogEntry, 5> kCatalog = {{
    {"ready", [](const sim::AcceleratorConfig &hw,
                 const DiTileOptions &) { return sim::makeReady(hw); }},
    {"booster",
     [](const sim::AcceleratorConfig &hw, const DiTileOptions &) {
         return sim::makeDgnnBooster(hw);
     }},
    {"race", [](const sim::AcceleratorConfig &hw,
                const DiTileOptions &) { return sim::makeRace(hw); }},
    {"mega", [](const sim::AcceleratorConfig &hw,
                const DiTileOptions &) { return sim::makeMega(hw); }},
    {"ditile",
     [](const sim::AcceleratorConfig &hw, const DiTileOptions &options) {
         return std::unique_ptr<sim::Accelerator>(
             std::make_unique<DiTileAccelerator>(hw, options));
     }},
}};

struct VariantEntry
{
    const char *name;
    bool parallelismStrategy;
    bool workloadBalance;
    bool reconfigurableNoc;
};

/** The full design, then the six Figure-11(b) ablations. */
const std::array<VariantEntry, 7> kVariants = {{
    {"full", true, true, true},
    {"NoPs", false, true, true},
    {"NoWos", true, false, true},
    {"NoRa", true, true, false},
    {"OnlyPs", true, false, false},
    {"OnlyWos", false, true, false},
    {"OnlyRa", false, false, true},
}};

/** The one unknown-name error: what was asked for and every valid
 *  choice, in table order. */
template <typename Table>
[[noreturn]] void
unknownName(const char *what, const std::string &name,
            const Table &table)
{
    std::string choices;
    for (const auto &entry : table) {
        if (!choices.empty())
            choices += '|';
        choices += entry.name;
    }
    DITILE_FATAL("unknown ", what, " '", name, "' (expected ", choices,
                 ")");
}

} // namespace

DiTileOptions
DiTileOptions::fromVariant(const std::string &variant)
{
    // The accelerator's display name doubles as the full variant.
    const std::string &key = variant == "DiTile-DGNN" ? "full" : variant;
    for (const VariantEntry &v : kVariants) {
        if (key == v.name) {
            DiTileOptions o;
            o.parallelismStrategy = v.parallelismStrategy;
            o.workloadBalance = v.workloadBalance;
            o.reconfigurableNoc = v.reconfigurableNoc;
            return o;
        }
    }
    unknownName("DiTile variant", variant, kVariants);
}

std::unique_ptr<sim::Accelerator>
makeAccelerator(const std::string &name,
                const sim::AcceleratorConfig &hw,
                const DiTileOptions &ditile)
{
    for (const CatalogEntry &entry : kCatalog)
        if (name == entry.name)
            return entry.make(hw, ditile);
    unknownName("accelerator", name, kCatalog);
}

std::vector<std::unique_ptr<sim::Accelerator>>
paperFleet(const sim::AcceleratorConfig &hw, const DiTileOptions &ditile)
{
    std::vector<std::unique_ptr<sim::Accelerator>> fleet;
    for (const CatalogEntry &entry : kCatalog)
        fleet.push_back(entry.make(hw, ditile));
    return fleet;
}

} // namespace ditile::core
