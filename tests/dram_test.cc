/**
 * @file
 * Tests for the DRAM timing model and region allocator.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "dram/dram_model.hh"

namespace ditile::dram {
namespace {

/**
 * Reference replay: the chunk-by-chunk loop with per-bank free cycles
 * that DramModel's closed form must reproduce exactly.
 */
class ChunkReference
{
  public:
    explicit ChunkReference(const DramConfig &config)
        : config_(config),
          banks_(static_cast<std::size_t>(config.totalBanks())),
          channelFreeAt_(static_cast<std::size_t>(config.channels), 0)
    {
    }

    DramResult
    service(const std::vector<DramRequest> &requests)
    {
        DramResult result;
        for (const DramRequest &req : requests) {
            if (req.bytes == 0)
                continue;
            if (req.write)
                result.writeBytes += req.bytes;
            else
                result.readBytes += req.bytes;
            std::uint64_t addr = req.addr;
            ByteCount remaining = req.bytes;
            while (remaining > 0) {
                const std::uint64_t row = addr / config_.rowBytes;
                const ByteCount row_off = addr % config_.rowBytes;
                const ByteCount chunk = std::min<ByteCount>(
                    remaining, config_.rowBytes - row_off);
                const auto bank_idx = static_cast<std::size_t>(
                    row % static_cast<std::uint64_t>(
                              config_.totalBanks()));
                const auto channel_idx = static_cast<std::size_t>(
                    bank_idx %
                    static_cast<std::size_t>(config_.channels));
                Bank &bank = banks_[bank_idx];
                Cycle &bus_free = channelFreeAt_[channel_idx];
                const Cycle start =
                    std::max({req.issueCycle, bank.freeAt, bus_free});
                Cycle access;
                if (bank.openRow == static_cast<std::int64_t>(row)) {
                    access = config_.rowHitCycles;
                    ++result.rowHits;
                } else if (bank.openRow < 0) {
                    access = config_.rowMissCycles;
                    ++result.rowMisses;
                } else {
                    access = config_.rowConflictCycles;
                    ++result.rowConflicts;
                }
                bank.openRow = static_cast<std::int64_t>(row);
                const auto transfer = static_cast<Cycle>(
                    static_cast<double>(chunk) /
                    config_.channelBytesPerCycle + 0.999999);
                const Cycle done = start + access + transfer;
                bank.freeAt = done;
                bus_free = std::max(bus_free, start + access) + transfer;
                result.completionCycle =
                    std::max(result.completionCycle, done);
                addr += chunk;
                remaining -= chunk;
            }
        }
        return result;
    }

    void
    reset()
    {
        std::fill(banks_.begin(), banks_.end(), Bank{});
        std::fill(channelFreeAt_.begin(), channelFreeAt_.end(),
                  Cycle{0});
    }

  private:
    struct Bank
    {
        std::int64_t openRow = -1;
        Cycle freeAt = 0;
    };

    DramConfig config_;
    std::vector<Bank> banks_;
    std::vector<Cycle> channelFreeAt_;
};

void
expectSameResult(const DramResult &got, const DramResult &want)
{
    EXPECT_EQ(got.completionCycle, want.completionCycle);
    EXPECT_EQ(got.rowHits, want.rowHits);
    EXPECT_EQ(got.rowMisses, want.rowMisses);
    EXPECT_EQ(got.rowConflicts, want.rowConflicts);
    EXPECT_EQ(got.readBytes, want.readBytes);
    EXPECT_EQ(got.writeBytes, want.writeBytes);
}

/**
 * Serve `batch` on both models, then a follow-up batch shifted by
 * `shift` bytes and issued later, so the carried open rows and bus
 * cycles are checked too. Returns the model's first result.
 */
DramResult
expectMatchesReference(const DramConfig &config,
                       const std::vector<DramRequest> &batch)
{
    DramModel model(config);
    ChunkReference reference(config);
    const DramResult first = model.service(batch);
    expectSameResult(first, reference.service(batch));
    std::vector<DramRequest> again = batch;
    for (DramRequest &req : again) {
        req.addr += config.rowBytes / 2;
        req.issueCycle += 100;
    }
    expectSameResult(model.service(again), reference.service(again));
    return first;
}

TEST(DramModel, EmptyBatch)
{
    DramModel model;
    const auto res = model.service({});
    EXPECT_EQ(res.completionCycle, 0u);
    EXPECT_EQ(res.totalBytes(), 0u);
}

TEST(DramModel, ZeroByteRequestIgnored)
{
    DramModel model;
    const auto res = model.service({DramRequest{0, 0, false, 0}});
    EXPECT_EQ(res.completionCycle, 0u);
    EXPECT_EQ(res.rowHits + res.rowMisses + res.rowConflicts, 0u);
}

TEST(DramModel, SingleChunkTiming)
{
    DramConfig config;
    DramModel model(config);
    // One 1024-byte read inside one row: one row miss plus transfer.
    const auto res = model.serviceStream(0, 1024, false);
    EXPECT_EQ(res.rowMisses, 1u);
    EXPECT_EQ(res.rowHits, 0u);
    const auto transfer = static_cast<Cycle>(
        1024 / config.channelBytesPerCycle);
    EXPECT_EQ(res.completionCycle, config.rowMissCycles + transfer);
    EXPECT_EQ(res.readBytes, 1024u);
}

TEST(DramModel, RowBufferHitOnRevisit)
{
    DramConfig config;
    DramModel model(config);
    model.serviceStream(0, 256, false);
    const auto res = model.serviceStream(256, 256, false);
    // Same row, still open.
    EXPECT_EQ(res.rowHits, 1u);
    EXPECT_EQ(res.rowMisses, 0u);
}

TEST(DramModel, ConflictWhenRowChangesOnSameBank)
{
    DramConfig config;
    DramModel model(config);
    const auto banks = static_cast<std::uint64_t>(config.totalBanks());
    model.serviceStream(0, 64, false); // opens row 0 on bank 0.
    // Row `banks` maps to bank 0 again but is a different row.
    const auto res = model.serviceStream(banks * config.rowBytes, 64,
                                         false);
    EXPECT_EQ(res.rowConflicts, 1u);
}

TEST(DramModel, SequentialStreamIsRowFriendly)
{
    DramModel model;
    const auto res = model.serviceStream(0, 1u << 20, false);
    // 512 rows of 2 KB: every chunk activates a fresh row (no reuse,
    // so no hits); rotating over the banks, later laps re-activate
    // busy-free banks, which count as conflicts but overlap fully.
    EXPECT_EQ(res.rowMisses + res.rowHits + res.rowConflicts, 512u);
    EXPECT_EQ(res.rowHits, 0u);
}

TEST(DramModel, CompletionMonotoneInBytes)
{
    Cycle prev = 0;
    for (ByteCount bytes : {1u << 12, 1u << 14, 1u << 16, 1u << 20}) {
        DramModel model;
        const auto res = model.serviceStream(0, bytes, false);
        // Bank parallelism can flatten small sizes, never reverse
        // them.
        EXPECT_GE(res.completionCycle, prev);
        prev = res.completionCycle;
    }
    // Across a 256x size range the growth must be strict.
    DramModel small;
    DramModel large;
    EXPECT_LT(small.serviceStream(0, 1u << 12, false).completionCycle,
              large.serviceStream(0, 1u << 20, false).completionCycle);
}

TEST(DramModel, BandwidthBound)
{
    DramConfig config;
    DramModel model(config);
    const ByteCount bytes = 8u << 20;
    const auto res = model.serviceStream(0, bytes, false);
    const double peak = config.channelBytesPerCycle * config.channels;
    // Cannot exceed aggregate channel bandwidth.
    EXPECT_GE(static_cast<double>(res.completionCycle),
              static_cast<double>(bytes) / peak);
    // Large sequential streams should come within 3x of peak.
    EXPECT_LE(static_cast<double>(res.completionCycle),
              3.0 * static_cast<double>(bytes) / peak);
}

TEST(DramModel, BankParallelismBeatsSingleBank)
{
    DramConfig config;
    // Sequential stream spreads over all banks.
    DramModel spread(config);
    const auto parallel = spread.serviceStream(0, 1u << 18, false);

    // Strided stream hammering one bank: row k * totalBanks stays on
    // bank 0.
    DramModel hammered(config);
    std::vector<DramRequest> reqs;
    const auto stride = static_cast<std::uint64_t>(
        config.totalBanks()) * config.rowBytes;
    const int rows = static_cast<int>((1u << 18) / config.rowBytes);
    for (int i = 0; i < rows; ++i)
        reqs.push_back({i * stride, config.rowBytes, false, 0});
    const auto serial = hammered.service(reqs);
    EXPECT_EQ(serial.totalBytes(), parallel.totalBytes());
    EXPECT_GT(serial.completionCycle, parallel.completionCycle);
}

TEST(DramModel, WriteReadAccounting)
{
    DramModel model;
    const auto res = model.service({
        {0, 512, true, 0},
        {4096, 256, false, 0},
    });
    EXPECT_EQ(res.writeBytes, 512u);
    EXPECT_EQ(res.readBytes, 256u);
    EXPECT_EQ(res.totalBytes(), 768u);
}

TEST(DramModel, IssueCycleDelaysService)
{
    DramModel model;
    const auto res = model.service({{0, 64, false, 5000}});
    EXPECT_GE(res.completionCycle, 5000u);
}

TEST(DramModel, ResetClearsRowState)
{
    DramModel model;
    model.serviceStream(0, 64, false);
    model.reset();
    const auto res = model.serviceStream(0, 64, false);
    EXPECT_EQ(res.rowMisses, 1u); // fresh activate, not a hit.
}

TEST(DramModel, AvgBandwidthReported)
{
    DramModel model;
    const auto res = model.serviceStream(0, 1u << 16, false);
    EXPECT_GT(res.avgBandwidth(), 0.0);
    EXPECT_LE(res.avgBandwidth(),
              model.config().channelBytesPerCycle *
                  model.config().channels + 1.0);
}

TEST(DramModel, InterleavedReadWriteAccounting)
{
    DramModel model;
    std::vector<DramRequest> reqs;
    for (int i = 0; i < 16; ++i)
        reqs.push_back({static_cast<std::uint64_t>(i) * 4096, 512,
                        i % 2 == 0, 0});
    const auto res = model.service(reqs);
    EXPECT_EQ(res.writeBytes, 8u * 512u);
    EXPECT_EQ(res.readBytes, 8u * 512u);
    EXPECT_GT(res.completionCycle, 0u);
}

TEST(DramModel, WarmRowsSurviveAcrossServiceCalls)
{
    DramModel model;
    model.serviceStream(0, 128, false);
    // Same row, separate batch: still a hit because state persists.
    const auto res = model.serviceStream(128, 128, false);
    EXPECT_EQ(res.rowHits, 1u);
}

TEST(DramModel, LateIssueDoesNotRewindBankState)
{
    DramModel model;
    const auto first = model.service({{0, 64, false, 1000}});
    EXPECT_GE(first.completionCycle, 1000u);
    // Earlier-issued request afterwards still serves correctly.
    const auto second = model.service({{0, 64, false, 0}});
    EXPECT_GT(second.completionCycle, 0u);
    EXPECT_EQ(second.rowHits, 1u);
}

TEST(DramOracle, RandomConfigsAndBatchesMatchChunkReplay)
{
    Rng rng(20261017);
    const ByteCount row_sizes[] = {64, 96, 100, 1000, 2048, 4096};
    const double bandwidths[] = {0.75, 1.5, 7.3, 32.0, 1e9};
    for (int trial = 0; trial < 300; ++trial) {
        DramConfig config;
        config.channels = static_cast<int>(rng.uniformInt(1, 9));
        config.banksPerChannel = static_cast<int>(rng.uniformInt(1, 6));
        config.rowBytes = row_sizes[rng.uniformInt(0, 5)];
        config.rowHitCycles = static_cast<Cycle>(rng.uniformInt(0, 20));
        config.rowMissCycles = static_cast<Cycle>(rng.uniformInt(0, 50));
        config.rowConflictCycles =
            static_cast<Cycle>(rng.uniformInt(0, 70));
        config.channelBytesPerCycle = bandwidths[rng.uniformInt(0, 4)];
        SCOPED_TRACE(testing::Message()
                     << "trial " << trial << " channels "
                     << config.channels << " banks/ch "
                     << config.banksPerChannel << " row "
                     << config.rowBytes << " B/cycle "
                     << config.channelBytesPerCycle);

        const auto span = static_cast<std::int64_t>(
            config.rowBytes *
            static_cast<ByteCount>(config.totalBanks()));
        DramModel model(config);
        ChunkReference reference(config);
        for (int batch_no = 0; batch_no < 4; ++batch_no) {
            std::vector<DramRequest> batch;
            const int n = static_cast<int>(rng.uniformInt(0, 12));
            for (int k = 0; k < n; ++k) {
                DramRequest req;
                req.addr = static_cast<std::uint64_t>(
                    rng.uniformInt(0, 3 * span));
                switch (rng.uniformInt(0, 3)) {
                  case 0: req.bytes = 0; break;
                  case 1:
                    req.bytes = static_cast<ByteCount>(rng.uniformInt(
                        1, static_cast<std::int64_t>(config.rowBytes)));
                    break;
                  case 2:
                    req.bytes = static_cast<ByteCount>(
                        rng.uniformInt(1, span));
                    break;
                  default:
                    req.bytes = static_cast<ByteCount>(
                        rng.uniformInt(span, 4 * span));
                    break;
                }
                req.write = rng.uniformInt(0, 1) == 1;
                req.issueCycle = rng.uniformInt(0, 1) == 0
                    ? 0 : static_cast<Cycle>(rng.uniformInt(0, 20000));
                batch.push_back(req);
            }
            // Later batches carry the earlier ones' open rows and bus
            // cycles; an occasional reset must drop both.
            if (batch_no == 2 && trial % 3 == 0) {
                model.reset();
                reference.reset();
            }
            expectSameResult(model.service(batch),
                             reference.service(batch));
        }
    }
}

TEST(DramOracle, RequestSpanningMoreRowsThanBanks)
{
    DramConfig config;
    const auto banks = static_cast<ByteCount>(config.totalBanks());
    const ByteCount rows = 2 * banks + 3;
    const auto res = expectMatchesReference(
        config, {{config.rowBytes / 4, rows * config.rowBytes, false,
                  0}});
    // rows + 1 chunks (mid-row start): one miss per bank, the rest
    // revisit a bank and conflict.
    EXPECT_EQ(res.rowMisses, banks);
    EXPECT_EQ(res.rowConflicts, rows + 1 - banks);
    EXPECT_EQ(res.rowHits, 0u);
}

TEST(DramOracle, SinglePartialRow)
{
    DramConfig config;
    const auto res = expectMatchesReference(config,
                                            {{100, 300, true, 7}});
    EXPECT_EQ(res.rowMisses, 1u);
    const auto transfer = static_cast<Cycle>(
        300 / config.channelBytesPerCycle + 0.999999);
    EXPECT_EQ(res.completionCycle,
              7 + config.rowMissCycles + transfer);
}

TEST(DramOracle, RequestStartingMidRow)
{
    DramConfig config;
    const auto res = expectMatchesReference(
        config, {{config.rowBytes / 2 + 7, 3 * config.rowBytes, false,
                  0}});
    EXPECT_EQ(res.rowMisses, 4u); // Partial, two full, partial.
}

TEST(DramOracle, RowHitOnFirstVisitAfterPriorRequest)
{
    DramConfig config;
    // The first request ends mid-row 3; the second resumes in row 3
    // (a hit) and continues into rows 4-5 (misses on fresh banks).
    const std::uint64_t end = 3 * config.rowBytes + 100;
    const auto res = expectMatchesReference(
        config, {{0, end, false, 0},
                 {end, 2 * config.rowBytes, false, 0}});
    EXPECT_EQ(res.rowHits, 1u);
    EXPECT_EQ(res.rowMisses, 6u);
}

TEST(DramOracle, RowBytesNotPowerOfTwo)
{
    DramConfig config;
    config.rowBytes = 1000;
    config.channels = 3;
    config.banksPerChannel = 5;
    config.channelBytesPerCycle = 7.3;
    const auto res = expectMatchesReference(
        config, {{1234, 40000, false, 0},
                 {999, 1, true, 50},
                 {15000, 2001, false, 10}});
    EXPECT_GT(res.rowConflicts, 0u);
}

TEST(RegionAllocator, AlignedNonOverlapping)
{
    RegionAllocator alloc;
    const auto a = alloc.allocate(1000);
    const auto b = alloc.allocate(5000);
    const auto c = alloc.allocate(1, 4096);
    EXPECT_EQ(a % 2048, 0u);
    EXPECT_EQ(b % 2048, 0u);
    EXPECT_EQ(c % 4096, 0u);
    EXPECT_GE(b, a + 1000);
    EXPECT_GE(c, b + 5000);
}

} // namespace
} // namespace ditile::dram
