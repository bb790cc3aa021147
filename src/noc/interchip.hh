/**
 * @file
 * Inter-chip interconnect link model for multi-chip scale-out.
 *
 * A ChipCluster connects M DiTile chips with point-to-point serial
 * links (one egress link per chip, SerDes style). Like the on-chip
 * ring links (NocConfig), the link is parameterized by bandwidth and
 * latency; unlike them it also charges an explicit serialization cost:
 * payloads are framed into fixed-size packets, each paying a header,
 * and the whole transfer pays one hop latency up front.
 *
 * All outputs are integer cycle/byte counts computed with ceil
 * divisions at the chip clock, so every derived schedule is
 * bit-identical at any --threads width and across platforms.
 */

#ifndef DITILE_NOC_INTERCHIP_HH
#define DITILE_NOC_INTERCHIP_HH

#include "common/types.hh"

namespace ditile::noc {

/**
 * Physical inter-chip link parameters. Defaults model a 100 Gb/s
 * SerDes lane bundle with sub-microsecond hop latency.
 */
struct InterChipLinkConfig
{
    /** Per-direction payload bandwidth, gigabits per second. */
    double bandwidthGbps = 100.0;

    /** Fixed per-transfer hop latency (flight + SerDes), nanoseconds. */
    double latencyNs = 350.0;

    /** Serialization granule: payloads are framed into packets. */
    ByteCount packetBytes = 256;

    /** Per-packet framing overhead (header + CRC) on the wire. */
    ByteCount packetHeaderBytes = 16;
};

/**
 * The one validity check for a link at a chip clock. Throws
 * InputError for a value that is not finite, bandwidth <= 0,
 * latency < 0, an empty packet, or a hop latency or per-byte
 * serialization time whose cycle conversion would overflow Cycle.
 */
void checkInterChipLink(const InterChipLinkConfig &config,
                        double frequency_ghz);

/**
 * Cycle-cost model of one inter-chip link at a given chip clock.
 * Mirrors how the NoC devices convert NocConfig into cycle costs.
 */
class InterChipLink
{
  public:
    /** Throws InputError on a link checkInterChipLink rejects. */
    InterChipLink(const InterChipLinkConfig &config,
                  double frequency_ghz);

    const InterChipLinkConfig &config() const { return config_; }

    /** Hop latency converted to chip cycles (ceil). */
    Cycle latencyCycles() const { return latencyCycles_; }

    /** Payload+framing bytes the link moves per chip cycle. */
    double bytesPerCycle() const { return bytesPerCycle_; }

    /** Wire bytes for a payload: framing headers included. */
    ByteCount wireBytes(ByteCount payload_bytes) const;

    /**
     * End-to-end cycles for one transfer: hop latency plus wire-byte
     * serialization (ceil). Zero-byte transfers cost zero cycles.
     * Throws InputError when the total would overflow Cycle.
     */
    Cycle transferCycles(ByteCount payload_bytes) const;

  private:
    InterChipLinkConfig config_;
    Cycle latencyCycles_ = 0;
    double bytesPerCycle_ = 0.0;
};

} // namespace ditile::noc

#endif // DITILE_NOC_INTERCHIP_HH
