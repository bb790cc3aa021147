/**
 * @file
 * DRAM model implementation.
 */

#include "dram/dram_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace ditile::dram {

namespace {

/** Bus cycles for one chunk of `bytes` on a channel. */
Cycle
transferCycles(const DramConfig &config, ByteCount bytes)
{
    return static_cast<Cycle>(static_cast<double>(bytes) /
                              config.channelBytesPerCycle + 0.999999);
}

} // namespace

double
DramResult::avgBandwidth() const
{
    return completionCycle
        ? static_cast<double>(totalBytes()) /
              static_cast<double>(completionCycle)
        : 0.0;
}

DramResult &
DramResult::operator+=(const DramResult &other)
{
    completionCycle = std::max(completionCycle, other.completionCycle);
    requests += other.requests;
    rowHits += other.rowHits;
    rowMisses += other.rowMisses;
    rowConflicts += other.rowConflicts;
    readBytes += other.readBytes;
    writeBytes += other.writeBytes;
    return *this;
}

DramModel::DramModel(const DramConfig &config)
    : config_(config),
      openRow_(static_cast<std::size_t>(config.totalBanks()), -1),
      channelFreeAt_(static_cast<std::size_t>(config.channels), 0),
      channelBusy_(static_cast<std::size_t>(config.channels), 0)
{
    DITILE_ASSERT(config.channels > 0 && config.banksPerChannel > 0);
    DITILE_ASSERT(config.rowBytes > 0 &&
                  config.channelBytesPerCycle > 0.0);
}

void
DramModel::reset()
{
    std::fill(openRow_.begin(), openRow_.end(), std::int64_t{-1});
    std::fill(channelFreeAt_.begin(), channelFreeAt_.end(), Cycle{0});
}

DramResult
DramModel::service(const std::vector<DramRequest> &requests)
{
    DramResult result;
    result.requests = requests.size();
    const std::uint64_t row_bytes = config_.rowBytes;
    const auto total_banks =
        static_cast<std::uint64_t>(config_.totalBanks());
    const auto channels = static_cast<std::uint64_t>(config_.channels);
    const Cycle full_transfer = transferCycles(config_, row_bytes);
    for (const DramRequest &req : requests) {
        if (req.bytes == 0)
            continue;
        if (req.write)
            result.writeBytes += req.bytes;
        else
            result.readBytes += req.bytes;

        // Row-aligned chunks; rows interleave across banks (row id
        // selects the bank, bank id the channel). Only the first and
        // last chunk can be partial rows.
        const std::uint64_t end = req.addr + req.bytes;
        const std::uint64_t first_row = req.addr / row_bytes;
        const std::uint64_t last_row = (end - 1) / row_bytes;
        const std::uint64_t rows = last_row - first_row + 1;
        const Cycle first_transfer = transferCycles(
            config_, std::min(end, (first_row + 1) * row_bytes) - req.addr);
        const Cycle last_transfer = rows > 1
            ? transferCycles(config_, end - last_row * row_bytes) : 0;

        // Walk each distinct bank once: row first_row + j and every
        // total_banks-th row after it land on the same bank, which is
        // visited laps + 1 times up to the bank of last_row (offset
        // tail) and laps times after it.
        const std::uint64_t laps = (rows - 1) / total_banks;
        const std::uint64_t tail = (rows - 1) % total_banks;
        const std::uint64_t distinct = std::min(rows, total_banks);
        const auto first_bank =
            static_cast<std::size_t>(first_row % total_banks);
        const auto first_channel = first_bank % channels;
        std::size_t bank_idx = first_bank;
        std::size_t ch = first_channel;
        for (std::uint64_t j = 0; j < distinct; ++j) {
            const std::uint64_t row = first_row + j;
            const std::uint64_t revisits = j <= tail ? laps : laps - 1;
            std::int64_t &open_row = openRow_[bank_idx];

            Cycle busy;
            if (open_row == static_cast<std::int64_t>(row)) {
                busy = config_.rowHitCycles;
                ++result.rowHits;
            } else if (open_row < 0) {
                busy = config_.rowMissCycles;
                ++result.rowMisses;
            } else {
                busy = config_.rowConflictCycles;
                ++result.rowConflicts;
            }
            // Revisits always find the bank's previous row open.
            busy += revisits * config_.rowConflictCycles;
            result.rowConflicts += revisits;
            open_row = static_cast<std::int64_t>(
                row + revisits * total_banks);

            std::uint64_t full_rows = revisits + 1;
            if (j == 0) {
                busy += first_transfer;
                --full_rows;
            }
            if (rows > 1 && j == tail) {
                busy += last_transfer;
                --full_rows;
            }
            busy += full_rows * full_transfer;
            channelBusy_[ch] += busy;
            // Bank ids wrap at a multiple of the channel count, so
            // the channel (bank id mod channels) steps in lockstep.
            if (++bank_idx == total_banks)
                bank_idx = 0;
            if (++ch == channels)
                ch = 0;
        }

        // The first min(rows, channels) rows name every channel
        // touched. A chunk never starts before its channel's bus is
        // free, so each channel serves the request's chunks back to
        // back from max(issue, bus free).
        const std::uint64_t touched = std::min(rows, channels);
        ch = first_channel;
        for (std::uint64_t j = 0; j < touched; ++j) {
            Cycle &bus_free = channelFreeAt_[ch];
            bus_free = std::max(req.issueCycle, bus_free) +
                channelBusy_[ch];
            channelBusy_[ch] = 0;
            result.completionCycle =
                std::max(result.completionCycle, bus_free);
            if (++ch == channels)
                ch = 0;
        }
    }
    return result;
}

DramResult
DramModel::serviceStream(std::uint64_t addr, ByteCount bytes, bool write,
                         Cycle issue_cycle)
{
    return service({DramRequest{addr, bytes, write, issue_cycle}});
}

std::uint64_t
RegionAllocator::allocate(ByteCount bytes, ByteCount align)
{
    DITILE_ASSERT(align > 0);
    next_ = roundUp<std::uint64_t>(next_, align);
    const std::uint64_t base = next_;
    next_ += bytes;
    return base;
}

} // namespace ditile::dram
