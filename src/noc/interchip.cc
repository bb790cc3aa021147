/**
 * @file
 * InterChipLink cycle-cost model.
 */

#include "noc/interchip.hh"

#include <cmath>

#include "common/logging.hh"

namespace ditile::noc {

namespace {

/** 2^64: the first cycle count a Cycle cannot hold. */
constexpr double kCycleLimit = 18446744073709551616.0;

} // namespace

void
checkInterChipLink(const InterChipLinkConfig &config,
                   double frequency_ghz)
{
    if (!std::isfinite(config.bandwidthGbps) ||
        !(config.bandwidthGbps > 0.0))
        DITILE_THROW("inter-chip bandwidth ", config.bandwidthGbps,
                     " Gb/s must be finite and positive");
    if (!std::isfinite(config.latencyNs) || !(config.latencyNs >= 0.0))
        DITILE_THROW("inter-chip latency ", config.latencyNs,
                     " ns must be finite and nonnegative");
    if (config.packetBytes == 0)
        DITILE_THROW("inter-chip packet size must be positive");
    if (!std::isfinite(frequency_ghz) || !(frequency_ghz > 0.0))
        DITILE_THROW("chip frequency ", frequency_ghz,
                     " GHz must be finite and positive");
    // ns * GHz = cycles; 8 bits / (Gb/s) * GHz = cycles per byte.
    if (!(std::ceil(config.latencyNs * frequency_ghz) < kCycleLimit))
        DITILE_THROW("inter-chip latency ", config.latencyNs,
                     " ns overflows the cycle counter");
    if (!(std::ceil(8.0 * frequency_ghz / config.bandwidthGbps) <
          kCycleLimit))
        DITILE_THROW("inter-chip bandwidth ", config.bandwidthGbps,
                     " Gb/s overflows the cycle counter");
}

InterChipLink::InterChipLink(const InterChipLinkConfig &config,
                             double frequency_ghz)
    : config_(config)
{
    checkInterChipLink(config, frequency_ghz);
    // ns * GHz = cycles; Gbps / 8 = GB/s; GB/s / GHz = bytes/cycle.
    latencyCycles_ = static_cast<Cycle>(
        std::ceil(config.latencyNs * frequency_ghz));
    bytesPerCycle_ = config.bandwidthGbps / 8.0 / frequency_ghz;
}

ByteCount
InterChipLink::wireBytes(ByteCount payload_bytes) const
{
    if (payload_bytes == 0)
        return 0;
    const ByteCount packets =
        (payload_bytes + config_.packetBytes - 1) / config_.packetBytes;
    return payload_bytes + packets * config_.packetHeaderBytes;
}

Cycle
InterChipLink::transferCycles(ByteCount payload_bytes) const
{
    if (payload_bytes == 0)
        return 0;
    const double serialization = std::ceil(
        static_cast<double>(wireBytes(payload_bytes)) / bytesPerCycle_);
    if (!(serialization + static_cast<double>(latencyCycles_) <
          kCycleLimit))
        DITILE_THROW("inter-chip transfer of ", payload_bytes,
                     " bytes overflows the cycle counter");
    return latencyCycles_ + static_cast<Cycle>(serialization);
}

} // namespace ditile::noc
