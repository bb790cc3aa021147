/**
 * @file
 * Off-chip DRAM timing model (DRAMSim2 substitute).
 *
 * The paper obtains off-chip communication time from DRAMSim2; that
 * simulator is replaced here by a bank/row-buffer model that serves the
 * same role: it converts an access trace into service cycles with
 * row-locality (each bank's open row decides hit, miss or conflict),
 * channel interleaving, and channel-bus bandwidth effects. Requests are
 * bulk transfers chopped into row-sized chunks, which keeps
 * full-application replays fast while retaining per-row hit/miss
 * behaviour.
 *
 * What is not modeled is bank-level parallelism: a chunk's row access
 * is charged on its channel bus in series with its transfer, so one
 * bank's activate/precharge never overlaps another bank's data burst
 * (DRAMSim2 does overlap them). ROADMAP item 1b tracks giving banks
 * their own ready cycle.
 *
 * Chunk timing: a chunk starts at max(issue, channel bus free), pays
 * its row access (hit / miss / conflict) plus its bus transfer, and
 * leaves the channel bus free at its completion. Because a chunk never
 * starts before the bus is free, a channel's bus-free cycle is always
 * at least every one of its banks' free cycles, so banks never gate a
 * chunk and carry no timing state — only their open row. Per request,
 * each channel's bus-free cycle therefore advances to
 * max(issue, bus free) + sum(access + transfer) over its chunks, and
 * since a request's rows strictly ascend, only a bank's first visit can
 * hit or miss against its prior open row; every later visit conflicts.
 * service() uses this closed form: a request spanning R rows costs
 * O(min(R, totalBanks())) rather than O(R), with timing and row-buffer
 * counts identical to the chunk-by-chunk replay.
 */

#ifndef DITILE_DRAM_DRAM_MODEL_HH
#define DITILE_DRAM_DRAM_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace ditile::dram {

/**
 * DDR-style device and channel parameters (defaults roughly DDR4-2400
 * scaled to the accelerator's 1 GHz reference clock).
 */
struct DramConfig
{
    int channels = 8;                 ///< HBM-class stack.
    int banksPerChannel = 16;
    ByteCount rowBytes = 2048;        ///< Row-buffer size.
    Cycle rowHitCycles = 15;          ///< CAS only.
    Cycle rowMissCycles = 40;         ///< ACT + CAS.
    Cycle rowConflictCycles = 55;     ///< PRE + ACT + CAS.
    double channelBytesPerCycle = 32; ///< Per-channel bus bandwidth.

    int totalBanks() const { return channels * banksPerChannel; }
};

/**
 * One bulk memory request (a stream of consecutive addresses).
 */
struct DramRequest
{
    std::uint64_t addr = 0;
    ByteCount bytes = 0;
    bool write = false;
    Cycle issueCycle = 0;
};

/**
 * Trace-replay outcome.
 */
struct DramResult
{
    Cycle completionCycle = 0;
    std::uint64_t requests = 0;      ///< Requests in the batch.
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;     ///< Activates on idle banks.
    std::uint64_t rowConflicts = 0;  ///< Activates closing another row.
    ByteCount readBytes = 0;
    ByteCount writeBytes = 0;

    ByteCount totalBytes() const { return readBytes + writeBytes; }

    /** Fold a later batch in: counts add, completion is the latest. */
    DramResult &operator+=(const DramResult &other);

    /** Achieved bandwidth over the busy window. */
    double avgBandwidth() const;
};

/**
 * Stateful DRAM device model. Row-buffer state persists across
 * service() calls so phased replays see warm rows.
 */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &config = {});

    /**
     * Replay a request batch (served in issue order) in
     * O(min(rows, totalBanks())) per request; see the file comment.
     */
    DramResult service(const std::vector<DramRequest> &requests);

    /** Convenience: single sequential stream starting "now". */
    DramResult serviceStream(std::uint64_t addr, ByteCount bytes,
                             bool write, Cycle issue_cycle = 0);

    /** Drop all open rows and timing state. */
    void reset();

    const DramConfig &config() const { return config_; }

  private:
    DramConfig config_;
    std::vector<std::int64_t> openRow_;  ///< Per bank; -1 = idle.
    std::vector<Cycle> channelFreeAt_;
    std::vector<Cycle> channelBusy_;     ///< Per-request scratch.
};

/**
 * Simple bump allocator handing out non-overlapping address regions
 * for named data structures (features, adjacency, weights, ...), so
 * callers can build traces without inventing addresses.
 */
class RegionAllocator
{
  public:
    /** Allocate a region of `bytes`, aligned to the row size. */
    std::uint64_t allocate(ByteCount bytes, ByteCount align = 2048);

  private:
    std::uint64_t next_ = 0;
};

} // namespace ditile::dram

#endif // DITILE_DRAM_DRAM_MODEL_HH
