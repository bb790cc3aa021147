/**
 * @file
 * Fault-spec parsing and per-snapshot fault resolution.
 */

#include "sim/fault_model.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace ditile::sim {

const char *
faultKindToken(FaultKind kind)
{
    switch (kind) {
      case FaultKind::TileFail: return "tile";
      case FaultKind::HLinkFail: return "hlink";
      case FaultKind::VLinkFail: return "vlink";
      case FaultKind::BypassStuckOpen: return "bypass-open";
      case FaultKind::BypassStuckClosed: return "bypass-closed";
      case FaultKind::DramTransient: return "dram";
    }
    DITILE_PANIC("unreachable fault kind");
}

FaultKind
faultKindFromToken(const std::string &token)
{
    for (FaultKind kind : {FaultKind::TileFail, FaultKind::HLinkFail,
                           FaultKind::VLinkFail,
                           FaultKind::BypassStuckOpen,
                           FaultKind::BypassStuckClosed,
                           FaultKind::DramTransient}) {
        if (token == faultKindToken(kind))
            return kind;
    }
    DITILE_THROW("unknown fault kind '", token, "'");
}

bool
operator==(const FaultEvent &a, const FaultEvent &b)
{
    return a.kind == b.kind && a.snapshot == b.snapshot &&
        a.row == b.row && a.col == b.col && a.channel == b.channel;
}

bool
operator==(const FaultSpec &a, const FaultSpec &b)
{
    return a.seed == b.seed &&
        a.dramRetryFraction == b.dramRetryFraction &&
        a.nocBackoffCycles == b.nocBackoffCycles &&
        a.nocMaxRetries == b.nocMaxRetries && a.events == b.events;
}

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** Parse a nonnegative integer covering the whole string. */
long long
parseWholeInt(const std::string &s, const std::string &item)
{
    if (s.empty())
        DITILE_THROW("fault spec item '", item, "': missing number");
    char *end = nullptr;
    const long long v = std::strtoll(s.c_str(), &end, 10);
    if (end != s.c_str() + s.size() || v < 0)
        DITILE_THROW("fault spec item '", item, "': bad number '", s,
                     "'");
    return v;
}

/** Parse a coordinate at `pos`: digits or the '*' wildcard. */
int
parseCoord(const std::string &s, std::size_t &pos,
           const std::string &item)
{
    if (pos < s.size() && s[pos] == '*') {
        ++pos;
        return kAnyCoord;
    }
    const std::size_t start = pos;
    while (pos < s.size() &&
           std::isdigit(static_cast<unsigned char>(s[pos]))) {
        ++pos;
    }
    if (pos == start)
        DITILE_THROW("fault spec item '", item,
                     "': expected coordinate at '", s.substr(start),
                     "'");
    return static_cast<int>(
        parseWholeInt(s.substr(start, pos - start), item));
}

void
expectPrefix(const std::string &s, std::size_t &pos, const char *prefix,
             const std::string &item)
{
    for (const char *p = prefix; *p; ++p, ++pos) {
        if (pos >= s.size() || s[pos] != *p)
            DITILE_THROW("fault spec item '", item, "': expected '",
                         prefix, "' in location '", s, "'");
    }
}

FaultEvent
parseEvent(const std::string &item)
{
    const std::size_t at = item.find('@');
    const std::size_t colon = item.find(':', at);
    if (at == std::string::npos || colon == std::string::npos)
        DITILE_THROW("fault spec item '", item,
                     "': expected kind@snapshot:location");

    FaultEvent e;
    e.kind = faultKindFromToken(item.substr(0, at));
    e.snapshot = static_cast<SnapshotId>(
        parseWholeInt(item.substr(at + 1, colon - at - 1), item));

    const std::string loc = item.substr(colon + 1);
    std::size_t pos = 0;
    switch (e.kind) {
      case FaultKind::TileFail:
      case FaultKind::HLinkFail:
      case FaultKind::VLinkFail:
        expectPrefix(loc, pos, "r", item);
        e.row = parseCoord(loc, pos, item);
        expectPrefix(loc, pos, "c", item);
        e.col = parseCoord(loc, pos, item);
        break;
      case FaultKind::BypassStuckOpen:
      case FaultKind::BypassStuckClosed:
        expectPrefix(loc, pos, "c", item);
        e.col = parseCoord(loc, pos, item);
        break;
      case FaultKind::DramTransient:
        expectPrefix(loc, pos, "ch", item);
        e.channel = parseCoord(loc, pos, item);
        break;
    }
    if (pos != loc.size())
        DITILE_THROW("fault spec item '", item,
                     "': trailing text after location");
    return e;
}

std::string
coordText(int v)
{
    return v == kAnyCoord ? std::string("*") : std::to_string(v);
}

} // namespace

FaultSpec
FaultSpec::parse(const std::string &text)
{
    FaultSpec spec;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t semi = text.find(';', pos);
        const std::size_t end =
            semi == std::string::npos ? text.size() : semi;
        const std::string item = trim(text.substr(pos, end - pos));
        pos = end + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq != std::string::npos &&
            item.find('@') == std::string::npos) {
            const std::string key = trim(item.substr(0, eq));
            const std::string value = trim(item.substr(eq + 1));
            if (key == "seed") {
                spec.seed = static_cast<std::uint64_t>(
                    parseWholeInt(value, item));
            } else if (key == "dram-retry-fraction") {
                char *endp = nullptr;
                const double f = std::strtod(value.c_str(), &endp);
                if (value.empty() ||
                    endp != value.c_str() + value.size() || f < 0.0 ||
                    f > 1.0) {
                    DITILE_THROW("fault spec item '", item,
                                 "': fraction must be in [0, 1]");
                }
                spec.dramRetryFraction = f;
            } else if (key == "noc-backoff") {
                spec.nocBackoffCycles = static_cast<Cycle>(
                    parseWholeInt(value, item));
            } else if (key == "noc-retries") {
                spec.nocMaxRetries = static_cast<int>(
                    parseWholeInt(value, item));
            } else {
                DITILE_THROW("fault spec item '", item,
                             "': unknown option '", key, "'");
            }
        } else {
            spec.events.push_back(parseEvent(item));
        }
    }
    return spec;
}

void
FaultSpec::merge(const FaultSpec &other)
{
    seed = other.seed;
    dramRetryFraction = other.dramRetryFraction;
    nocBackoffCycles = other.nocBackoffCycles;
    nocMaxRetries = other.nocMaxRetries;
    events.insert(events.end(), other.events.begin(),
                  other.events.end());
}

std::string
FaultSpec::toString() const
{
    std::string out;
    const auto add = [&out](const std::string &item) {
        if (!out.empty())
            out += ';';
        out += item;
    };
    const FaultSpec defaults;
    if (seed != defaults.seed)
        add("seed=" + std::to_string(seed));
    if (dramRetryFraction != defaults.dramRetryFraction) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", dramRetryFraction);
        add(std::string("dram-retry-fraction=") + buf);
    }
    if (nocBackoffCycles != defaults.nocBackoffCycles)
        add("noc-backoff=" + std::to_string(nocBackoffCycles));
    if (nocMaxRetries != defaults.nocMaxRetries)
        add("noc-retries=" + std::to_string(nocMaxRetries));
    for (const FaultEvent &e : events) {
        std::string item = std::string(faultKindToken(e.kind)) + "@" +
            std::to_string(e.snapshot) + ":";
        switch (e.kind) {
          case FaultKind::TileFail:
          case FaultKind::HLinkFail:
          case FaultKind::VLinkFail:
            // Appended piecewise: a `"r" + std::string` temporary
            // trips gcc 12's -Wrestrict false positive at -O3.
            item += 'r';
            item += coordText(e.row);
            item += 'c';
            item += coordText(e.col);
            break;
          case FaultKind::BypassStuckOpen:
          case FaultKind::BypassStuckClosed:
            item += 'c';
            item += coordText(e.col);
            break;
          case FaultKind::DramTransient:
            item += "ch";
            item += coordText(e.channel);
            break;
        }
        add(item);
    }
    return out;
}

FaultModel::FaultModel(const FaultSpec &spec,
                       const AcceleratorConfig &hw,
                       SnapshotId num_snapshots)
    : spec_(spec)
{
    DITILE_ASSERT(num_snapshots >= 1);
    const int rows = hw.tileRows;
    const int cols = hw.tileCols;
    const int channels = hw.dram.channels;
    const bool grid_links =
        hw.noc.topology != noc::TopologyKind::Crossbar;
    const bool has_bypass =
        hw.noc.topology == noc::TopologyKind::Reconfigurable;

    const auto checkCoord = [](int v, int limit, const char *what) {
        if (v != kAnyCoord && (v < 0 || v >= limit))
            DITILE_THROW("fault ", what, " ", v, " out of range [0, ",
                         limit, ")");
    };
    for (const FaultEvent &e : spec_.events) {
        if (e.snapshot < 0)
            DITILE_THROW("fault snapshot ", e.snapshot,
                         " must be nonnegative");
        switch (e.kind) {
          case FaultKind::TileFail:
          case FaultKind::HLinkFail:
          case FaultKind::VLinkFail:
            checkCoord(e.row, rows, "row");
            checkCoord(e.col, cols, "col");
            break;
          case FaultKind::BypassStuckOpen:
          case FaultKind::BypassStuckClosed:
            checkCoord(e.col, cols, "col");
            break;
          case FaultKind::DramTransient:
            checkCoord(e.channel, channels, "channel");
            break;
        }
    }
    if (spec_.nocMaxRetries < 0)
        DITILE_THROW("noc-retries must be nonnegative");

    // Expand a possibly-wildcard coordinate over [0, n).
    const auto forCoord = [](int v, int n, auto &&fn) {
        if (v == kAnyCoord) {
            for (int i = 0; i < n; ++i)
                fn(i);
        } else {
            fn(v);
        }
    };

    per_snapshot_.resize(static_cast<std::size_t>(num_snapshots));
    std::uint64_t dram_total = 0;
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        FaultSet &fs = per_snapshot_[static_cast<std::size_t>(t)];
        fs.noc.retryBackoffCycles = spec_.nocBackoffCycles;
        fs.noc.maxRetries = spec_.nocMaxRetries;

        std::vector<std::uint8_t> dead(
            static_cast<std::size_t>(rows * cols), 0);
        bool any_dead = false;
        std::vector<int> span_ov(static_cast<std::size_t>(cols), 0);
        bool any_ov = false;
        std::vector<std::uint8_t> dram_ch(
            static_cast<std::size_t>(channels), 0);

        for (const FaultEvent &e : spec_.events) {
            const bool permanent_active = e.snapshot <= t;
            switch (e.kind) {
              case FaultKind::TileFail:
                if (!permanent_active)
                    break;
                forCoord(e.row, rows, [&](int r) {
                    forCoord(e.col, cols, [&](int c) {
                        dead[static_cast<std::size_t>(r * cols + c)] =
                            1;
                        any_dead = true;
                    });
                });
                break;
              case FaultKind::HLinkFail:
              case FaultKind::VLinkFail:
                if (!permanent_active)
                    break;
                if (!grid_links) {
                    // Site key embeds the kind (bounded set), not the
                    // topology name: one warning per kind per process.
                    warnOnce(std::string("ignoring ") +
                                 faultKindToken(e.kind) +
                                 " fault: no grid links",
                             "; topology '",
                             noc::topologyKindName(hw.noc.topology),
                             "' has none");
                    break;
                }
                forCoord(e.row, rows, [&](int r) {
                    forCoord(e.col, cols, [&](int c) {
                        const TileId from = r * cols + c;
                        if (e.kind == FaultKind::HLinkFail) {
                            // Both directions of the row-ring segment
                            // (r, c) <-> (r, c+1) die.
                            const TileId to =
                                r * cols + (c + 1) % cols;
                            fs.noc.deadLinks.push_back(noc::gridLinkId(
                                from, noc::GridDir::East));
                            fs.noc.deadLinks.push_back(noc::gridLinkId(
                                to, noc::GridDir::West));
                        } else {
                            // Both directions of the column-ring
                            // segment (r, c) <-> (r+1, c) die.
                            const TileId to =
                                ((r + 1) % rows) * cols + c;
                            fs.noc.deadLinks.push_back(noc::gridLinkId(
                                from, noc::GridDir::South));
                            fs.noc.deadLinks.push_back(noc::gridLinkId(
                                to, noc::GridDir::North));
                        }
                    });
                });
                break;
              case FaultKind::BypassStuckOpen:
              case FaultKind::BypassStuckClosed:
                if (!permanent_active)
                    break;
                if (!has_bypass) {
                    warnOnce(std::string("ignoring ") +
                                 faultKindToken(e.kind) +
                                 " fault: no bypass switches",
                             "; topology '",
                             noc::topologyKindName(hw.noc.topology),
                             "' has none");
                    break;
                }
                forCoord(e.col, cols, [&](int c) {
                    span_ov[static_cast<std::size_t>(c)] =
                        e.kind == FaultKind::BypassStuckOpen
                            ? 1
                            : hw.noc.reLinkSpan;
                    any_ov = true;
                });
                break;
              case FaultKind::DramTransient:
                if (e.snapshot != t)
                    break;
                forCoord(e.channel, channels, [&](int ch) {
                    dram_ch[static_cast<std::size_t>(ch)] = 1;
                });
                break;
            }
        }

        if (any_dead)
            fs.deadTile = std::move(dead);
        std::sort(fs.noc.deadLinks.begin(), fs.noc.deadLinks.end());
        fs.noc.deadLinks.erase(std::unique(fs.noc.deadLinks.begin(),
                                           fs.noc.deadLinks.end()),
                               fs.noc.deadLinks.end());
        if (any_ov)
            fs.noc.columnSpanOverride = std::move(span_ov);
        fs.dramFaultChannels = static_cast<int>(
            std::count(dram_ch.begin(), dram_ch.end(), 1));
        dram_total += static_cast<std::uint64_t>(fs.dramFaultChannels);
    }

    const FaultSet &last = per_snapshot_.back();
    tile_faults_ = static_cast<std::uint64_t>(
        std::count(last.deadTile.begin(), last.deadTile.end(), 1));
    link_faults_ =
        static_cast<std::uint64_t>(last.noc.deadLinks.size()) / 2;
    bypass_faults_ = static_cast<std::uint64_t>(
        std::count_if(last.noc.columnSpanOverride.begin(),
                      last.noc.columnSpanOverride.end(),
                      [](int v) { return v != 0; }));
    dram_faults_ = dram_total;
}

const FaultSet &
FaultModel::at(SnapshotId t) const
{
    DITILE_ASSERT(t >= 0 && static_cast<std::size_t>(t) <
                                per_snapshot_.size());
    return per_snapshot_[static_cast<std::size_t>(t)];
}

std::uint64_t
FaultModel::degradedSnapshots() const
{
    std::uint64_t n = 0;
    for (const FaultSet &fs : per_snapshot_) {
        if (fs.degraded())
            ++n;
    }
    return n;
}

} // namespace ditile::sim
