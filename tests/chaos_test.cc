/**
 * @file
 * Crash-safety and degraded-mode tests for the serving tier: WAL
 * append/recover round trips and torn-tail truncation, checkpoint
 * round-trip byte-identity, crash -> restore -> replay response
 * identity at multiple thread widths, circuit-breaker transitions,
 * eviction-record verification during recovery, bounded-plan-cache
 * behavior under serving load, chaos-mode load generation, and the
 * serve counter table (summary, registry and checkpoint agree).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "core/ditile_accelerator.hh"
#include "serve/breaker.hh"
#include "serve/checkpoint.hh"
#include "serve/loadgen.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/wal.hh"

namespace ditile {
namespace {

sim::AcceleratorFactory
makeFactory()
{
    return [] {
        return std::unique_ptr<sim::Accelerator>(
            std::make_unique<core::DiTileAccelerator>());
    };
}

std::string
tempPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + "/" + name;
    std::remove(path.c_str());
    return path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
}

/** Non-nop lines of examples/serve_session.txt. */
std::vector<std::string>
exampleSessionLines()
{
    std::ifstream session(DITILE_EXAMPLES_DIR "/serve_session.txt");
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(session, line))
        if (!serve::isNopLine(line))
            lines.push_back(line);
    return lines;
}

/** A small session exercising every state-mutating verb. */
std::vector<std::string>
sessionLines()
{
    return {
        "tenant alpha vertices=48 edges=96 features=4 window=2 "
        "roll-every=0",
        "tenant beta vertices=40 edges=80 features=4 window=1 "
        "roll-every=0",
        "event alpha add 1 2",
        "event alpha add 3 4",
        "query alpha",
        "query alpha",
        "roll alpha",
        "event beta add 5 6",
        "query beta",
        "definitely not a verb",
        "event alpha add 9999 0",
        "query alpha",
        "stats",
    };
}

// --- WAL ------------------------------------------------------------

TEST(Wal, AppendRecoverRoundTrip)
{
    const std::string path = tempPath("wal_roundtrip.wal");
    {
        auto wal = serve::WalWriter::openFresh(
            path, serve::WalSync::Always);
        wal->append(serve::WalRecord::Kind::Line, "query t0");
        wal->commit();
        wal->append(serve::WalRecord::Kind::Line, "event t0 add 1 2");
        wal->append(serve::WalRecord::Kind::Evict, "t9");
        wal->commit();
        EXPECT_EQ(wal->appended(), 3u);
        EXPECT_EQ(wal->lastSeq(), 3u);
        wal->close();
    }
    const auto recovery = serve::recoverWal(path);
    ASSERT_EQ(recovery.records.size(), 3u);
    EXPECT_FALSE(recovery.truncatedTail);
    EXPECT_EQ(recovery.droppedBytes, 0u);
    EXPECT_EQ(recovery.records[0].seq, 1u);
    EXPECT_EQ(recovery.records[0].kind, serve::WalRecord::Kind::Line);
    EXPECT_EQ(recovery.records[0].data, "query t0");
    EXPECT_EQ(recovery.records[1].data, "event t0 add 1 2");
    EXPECT_EQ(recovery.records[2].kind,
              serve::WalRecord::Kind::Evict);
    EXPECT_EQ(recovery.records[2].data, "t9");
    EXPECT_EQ(recovery.nextSeq(), 4u);
}

TEST(Wal, MissingFileRecoversEmpty)
{
    const auto recovery =
        serve::recoverWal(tempPath("wal_missing.wal"));
    EXPECT_TRUE(recovery.records.empty());
    EXPECT_FALSE(recovery.truncatedTail);
    EXPECT_EQ(recovery.nextSeq(), 1u);
}

TEST(Wal, TornTailIsTruncatedNotFatal)
{
    const std::string path = tempPath("wal_torn.wal");
    {
        auto wal = serve::WalWriter::openFresh(
            path, serve::WalSync::Always);
        wal->append(serve::WalRecord::Kind::Line, "query t0");
        wal->append(serve::WalRecord::Kind::Line, "query t1");
        wal->commit();
        wal->close();
    }
    const auto intact = readFile(path);
    // A torn final record: half a JSON line with no newline.
    writeFile(path, intact + "{\"seq\":3,\"kind\":\"li");
    const auto recovery = serve::recoverWal(path);
    ASSERT_EQ(recovery.records.size(), 2u);
    EXPECT_TRUE(recovery.truncatedTail);
    EXPECT_GT(recovery.droppedBytes, 0u);
    EXPECT_EQ(recovery.validBytes, intact.size());
    // The file was physically truncated: a second scan is clean.
    EXPECT_EQ(readFile(path), intact);
    const auto again = serve::recoverWal(path);
    EXPECT_FALSE(again.truncatedTail);
    EXPECT_EQ(again.records.size(), 2u);
}

TEST(Wal, CorruptedRecordInvalidatesTheTail)
{
    const std::string path = tempPath("wal_corrupt.wal");
    {
        auto wal = serve::WalWriter::openFresh(
            path, serve::WalSync::Always);
        for (int i = 0; i < 4; ++i)
            wal->append(serve::WalRecord::Kind::Line,
                        "event t0 add 1 " + std::to_string(i));
        wal->commit();
        wal->close();
    }
    auto content = readFile(path);
    // Flip one payload byte in the third record: its crc no longer
    // matches, so records 3 and 4 are both dropped.
    const auto pos = content.find("add 1 2");
    ASSERT_NE(pos, std::string::npos);
    content[pos + 6] = '7';
    writeFile(path, content);
    const auto recovery = serve::recoverWal(path);
    EXPECT_TRUE(recovery.truncatedTail);
    ASSERT_EQ(recovery.records.size(), 2u);
    EXPECT_EQ(recovery.records.back().data, "event t0 add 1 1");
}

TEST(Wal, SeqGapInvalidatesTheTail)
{
    const std::string path = tempPath("wal_gap.wal");
    serve::WalRecord one;
    one.seq = 1;
    one.data = "query t0";
    serve::WalRecord three = one;
    three.seq = 3; // Gap: seq 2 missing.
    writeFile(path, serve::formatWalRecord(one) + "\n" +
                  serve::formatWalRecord(three) + "\n");
    const auto recovery = serve::recoverWal(path);
    EXPECT_TRUE(recovery.truncatedTail);
    ASSERT_EQ(recovery.records.size(), 1u);
    EXPECT_EQ(recovery.records[0].seq, 1u);
}

TEST(Wal, GroupCommitBatchesSyncs)
{
    const std::string path = tempPath("wal_batch.wal");
    auto wal = serve::WalWriter::openFresh(path, serve::WalSync::Batch,
                                           /*batch_records=*/4);
    for (int i = 0; i < 8; ++i) {
        wal->append(serve::WalRecord::Kind::Line, "query t0");
        wal->commit();
    }
    // 8 records, fsync every 4th: exactly two group commits.
    EXPECT_EQ(wal->syncs(), 2u);
    wal->close();
    EXPECT_EQ(serve::recoverWal(path).records.size(), 8u);
}

// --- WAL record bytes -----------------------------------------------

/** The record rendering the WAL shipped with: a JsonObject per record. */
std::string
referenceWalRecord(const serve::WalRecord &record)
{
    const char *kind =
        record.kind == serve::WalRecord::Kind::Line ? "line" : "evict";
    char crc[17];
    std::snprintf(crc, sizeof(crc), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(std::to_string(record.seq) + "|" + kind +
                            "|" + record.data)));
    JsonObject obj;
    obj.add("seq", static_cast<long long>(record.seq));
    obj.add("kind", kind);
    obj.add("data", record.data);
    obj.add("crc", crc);
    return obj.toCompactString();
}

/** The per-byte escaping jsonQuote shipped with. */
std::string
referenceQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

TEST(WalFormat, MatchesJsonObjectReference)
{
    std::vector<std::string> payloads = {
        "",
        "query t0",
        "event t0 add 1 2",
        "say \"hi\"",
        "back\\slash\\\\",
        "tab\there\nnewline\rreturn",
        std::string("nul\0byte", 8),
        "\x01\x02\x1b\x1f edge controls",
        "\x7f del and \xc3\xa9 utf-8 \xff",
        "\"\\\n\t\r\x05",
        std::string(300, 'x') + "\x10",
    };
    std::string all_bytes;
    for (int c = 0; c < 256; ++c)
        all_bytes += static_cast<char>(c);
    payloads.push_back(all_bytes);

    for (const std::string &payload : payloads)
        EXPECT_EQ(jsonQuote(payload), referenceQuote(payload));
    for (std::uint64_t seq : {1ull, 9ull, 10ull, 99999ull,
                              12345678901234ull}) {
        for (auto kind : {serve::WalRecord::Kind::Line,
                          serve::WalRecord::Kind::Evict}) {
            for (const std::string &payload : payloads) {
                serve::WalRecord record;
                record.seq = seq;
                record.kind = kind;
                record.data = payload;
                EXPECT_EQ(serve::formatWalRecord(record),
                          referenceWalRecord(record))
                    << "seq " << seq << " payload " << payload;
            }
        }
    }
}

TEST(WalFormat, AppendedRecordsMatchFormatAndRecover)
{
    const std::string path = tempPath("wal_format.wal");
    std::string expected;
    {
        auto wal = serve::WalWriter::openFresh(path, serve::WalSync::Off);
        serve::WalRecord record;
        for (const std::string data : {"", "a \"b\" \\c", "\x01\n"}) {
            record.seq = wal->lastSeq() + 1;
            record.data = data;
            expected += serve::formatWalRecord(record) + "\n";
            wal->append(record.kind, record.data);
        }
        wal->close();
    }
    EXPECT_EQ(readFile(path), expected);
    const auto recovery = serve::recoverWal(path);
    ASSERT_EQ(recovery.records.size(), 3u);
    EXPECT_EQ(recovery.records[1].data, "a \"b\" \\c");
    EXPECT_EQ(recovery.records[2].data, "\x01\n");
}

TEST(WalFormat, SessionWalMatchesGolden)
{
    // The log examples/serve_session.txt writes, as ditile_serve
    // --script --wal writes it.
    const std::string path = tempPath("wal_session.wal");
    {
        serve::Server server(serve::ServerOptions{}, makeFactory());
        server.attachWal(
            serve::WalWriter::openFresh(path, serve::WalSync::Off));
        for (const std::string &line : exampleSessionLines()) {
            if (server.stopped())
                break;
            server.handle(line);
        }
        server.wal()->close();
    }
    const std::string golden =
        readFile(DITILE_GOLDEN_DIR "/serve_session.wal");
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(readFile(path), golden);
}

// --- checkpoint -----------------------------------------------------

TEST(Checkpoint, RoundTripIsByteIdentical)
{
    serve::Server server(serve::ServerOptions{}, makeFactory());
    for (const auto &line : sessionLines())
        server.handle(line);
    const auto checkpoint = server.checkpointState();
    const auto text = serve::renderCheckpoint(checkpoint);
    const auto parsed = serve::parseCheckpoint(text);
    EXPECT_EQ(serve::renderCheckpoint(parsed), text);
    EXPECT_EQ(serve::checkpointStateHash(parsed),
              serve::checkpointStateHash(checkpoint));

    const std::string path = tempPath("ckpt_roundtrip.json");
    serve::writeCheckpointFile(path, checkpoint);
    const auto loaded = serve::loadCheckpointFile(path);
    EXPECT_EQ(serve::renderCheckpoint(loaded), text);
}

TEST(Checkpoint, CorruptionIsATypedError)
{
    serve::Server server(serve::ServerOptions{}, makeFactory());
    server.handle(sessionLines()[0]);
    const std::string path = tempPath("ckpt_corrupt.json");
    serve::writeCheckpointFile(path, server.checkpointState());

    auto content = readFile(path);
    const auto pos = content.find("\"clockUs\"");
    ASSERT_NE(pos, std::string::npos);
    content[pos + 1] = 'x';
    writeFile(path, content);
    EXPECT_THROW(serve::loadCheckpointFile(path), InputError);

    writeFile(path, "{\"format\":99,\"crc\":\"0\",\"state\":{}}");
    EXPECT_THROW(serve::loadCheckpointFile(path), InputError);
    EXPECT_THROW(serve::loadCheckpointFile(
                     tempPath("ckpt_missing.json")),
                 InputError);
}

TEST(Checkpoint, TenantNoProvisioningCouldCreateIsATypedError)
{
    serve::Server server(serve::ServerOptions{}, makeFactory());
    server.handle(sessionLines()[0]);
    const serve::ServerCheckpoint good = server.checkpointState();
    ASSERT_EQ(good.tenants.size(), 1u);
    ASSERT_FALSE(good.tenants[0].oldest.empty());

    // Each document carries a valid crc: only the state is hostile,
    // and restoring it would index outside the tenant's graph.
    auto huge = good;
    huge.tenants[0].spec.vertices = (1 << 24) + 1;
    EXPECT_THROW(serve::parseCheckpoint(serve::renderCheckpoint(huge)),
                 InputError);
    auto featureless = good;
    featureless.tenants[0].spec.features = 0;
    EXPECT_THROW(
        serve::parseCheckpoint(serve::renderCheckpoint(featureless)),
        InputError);
    auto stray = good;
    stray.tenants[0].oldest.emplace_back(0, good.tenants[0].spec.vertices);
    EXPECT_THROW(serve::parseCheckpoint(serve::renderCheckpoint(stray)),
                 InputError);
    EXPECT_NO_THROW(serve::parseCheckpoint(serve::renderCheckpoint(good)));
}

// --- crash -> restore -> replay identity ----------------------------


/** Responses of an uncrashed server over the whole session. */
std::vector<std::string>
uncrashedResponses(const std::vector<std::string> &lines, int threads)
{
    ThreadPool::setGlobalThreads(threads);
    serve::Server server(serve::ServerOptions{}, makeFactory());
    std::vector<std::string> responses;
    for (const auto &line : lines)
        responses.push_back(server.handle(line));
    ThreadPool::setGlobalThreads(1);
    return responses;
}

TEST(Checkpoint, FormatOneGoldenRestoresAndResumes)
{
    // A format-1 checkpoint written after the first 16 lines of
    // examples/serve_session.txt, before delta encoding.
    const auto lines = exampleSessionLines();
    const auto reference = uncrashedResponses(lines, 1);
    const std::string text =
        readFile(DITILE_GOLDEN_DIR "/serve_checkpoint_v1.json");
    ASSERT_EQ(text.rfind("{\"format\":1,", 0), 0u);
    const serve::ServerCheckpoint v1 =
        serve::loadCheckpointFile(DITILE_GOLDEN_DIR
                                  "/serve_checkpoint_v1.json");
    ASSERT_EQ(v1.ackLines, 16u);

    serve::Server restored(serve::ServerOptions{}, makeFactory());
    restored.restoreState(v1);
    ASSERT_EQ(restored.acknowledgedLines(), 16u);

    // Re-checkpointing writes format 2, in the state of a live server
    // that handled the same 16 lines.
    serve::Server live(serve::ServerOptions{}, makeFactory());
    for (std::size_t i = 0; i < 16; ++i)
        live.handle(lines[i]);
    const serve::ServerCheckpoint again = restored.checkpointState();
    EXPECT_EQ(serve::renderCheckpoint(again).rfind("{\"format\":2,", 0),
              0u);
    EXPECT_EQ(serve::checkpointStateHash(again),
              serve::checkpointStateHash(live.checkpointState()));

    for (std::size_t i = 16; i < lines.size(); ++i)
        EXPECT_EQ(restored.handle(lines[i]), reference[i]) << lines[i];
}

TEST(Checkpoint, TenantRecordIsTheWindowDeltaEncoded)
{
    constexpr VertexId kVertices = 40;
    constexpr SnapshotId kWindow = 3;
    constexpr std::uint64_t kRollEvery = 5;
    serve::Server server(serve::ServerOptions{}, makeFactory());
    server.handle("tenant w vertices=40 edges=80 features=4 window=3 "
                  "roll-every=5");
    // A mirror window fed the same events, rolled when the tenant is.
    const serve::ServerCheckpoint first = server.checkpointState();
    ASSERT_EQ(first.tenants.size(), 1u);
    EXPECT_TRUE(first.tenants[0].deltas.empty());
    EXPECT_EQ(first.tenants[0].pending.numChanges(), 0u);
    graph::SnapshotWindow mirror(
        "w", graph::Csr::fromEdges(kVertices, first.tenants[0].oldest),
        kWindow, 4);

    Rng rng(0x5eed);
    for (int i = 0; i < 60; ++i) {
        const bool remove = rng.bernoulli(0.35);
        const auto u =
            static_cast<VertexId>(rng.uniformInt(0, kVertices - 1));
        const auto v =
            static_cast<VertexId>(rng.uniformInt(0, kVertices - 1));
        server.handle("event w " + std::string(remove ? "del " : "add ") +
                      std::to_string(u) + " " + std::to_string(v));
        mirror.apply({remove ? graph::GraphEvent::Kind::RemoveEdge
                             : graph::GraphEvent::Kind::AddEdge,
                      u, v, 0});
        const serve::ServerCheckpoint cp = server.checkpointState();
        const serve::TenantCheckpoint &tc = cp.tenants[0];
        if (tc.window.rolls > mirror.rolls())
            mirror.roll();
        ASSERT_EQ(tc.window.rolls, mirror.rolls());

        // One full snapshot, then W - 1 deltas: the window's own.
        const graph::DynamicGraph &dg = mirror.graph();
        EXPECT_EQ(tc.oldest, dg.snapshot(0).edgeList());
        ASSERT_EQ(tc.deltas.size() + 1,
                  static_cast<std::size_t>(dg.numSnapshots()));
        for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
            const graph::GraphDelta &delta = tc.deltas[t - 1];
            EXPECT_EQ(delta.addedEdges(), dg.delta(t).addedEdges());
            EXPECT_EQ(delta.removedEdges(), dg.delta(t).removedEdges());
        }
        const graph::GraphDelta pending = mirror.pendingDelta();
        EXPECT_EQ(tc.pending.addedEdges(), pending.addedEdges());
        EXPECT_EQ(tc.pending.removedEdges(), pending.removedEdges());
        EXPECT_LE(tc.pending.numChanges(), kRollEvery);
    }
    EXPECT_EQ(mirror.windowSize(), kWindow);
}

/**
 * Crash after `crash_at` lines (checkpoint at `checkpoint_at`),
 * restore a fresh server from checkpoint + WAL suffix, and finish the
 * session. Returns the recovered server's responses for the tail.
 */
std::vector<std::string>
crashedAndRecoveredTail(const std::vector<std::string> &lines,
                        std::size_t checkpoint_at,
                        std::size_t crash_at, int threads,
                        const std::string &tag)
{
    const std::string wal_path = tempPath("crash_" + tag + ".wal");
    const std::string ckpt_path = tempPath("crash_" + tag + ".json");
    ThreadPool::setGlobalThreads(threads);

    {
        serve::Server server(serve::ServerOptions{}, makeFactory());
        server.attachWal(serve::WalWriter::openFresh(
            wal_path, serve::WalSync::Always));
        for (std::size_t i = 0; i < crash_at; ++i) {
            server.handle(lines[i]);
            if (i + 1 == checkpoint_at)
                serve::writeCheckpointFile(ckpt_path,
                                           server.checkpointState());
        }
        // "Crash": the server is dropped without close() — with
        // Always sync every acknowledged line is already durable.
    }

    serve::Server server(serve::ServerOptions{}, makeFactory());
    const auto checkpoint = serve::loadCheckpointFile(ckpt_path);
    server.restoreState(checkpoint);
    auto recovery = serve::recoverWal(wal_path);
    std::vector<serve::WalRecord> suffix;
    for (auto &record : recovery.records)
        if (record.seq > checkpoint.walSeq)
            suffix.push_back(std::move(record));
    server.recover(suffix);
    EXPECT_EQ(server.acknowledgedLines(), crash_at);

    std::vector<std::string> tail;
    for (std::size_t i = crash_at; i < lines.size(); ++i)
        tail.push_back(server.handle(lines[i]));
    ThreadPool::setGlobalThreads(1);
    return tail;
}

TEST(CrashRecovery, RestoredServerAnswersByteIdentically)
{
    const auto lines = sessionLines();
    for (int threads : {1, 4}) {
        const auto reference = uncrashedResponses(lines, threads);
        const auto tail = crashedAndRecoveredTail(
            lines, /*checkpoint_at=*/4, /*crash_at=*/9, threads,
            "t" + std::to_string(threads));
        ASSERT_EQ(tail.size(), lines.size() - 9);
        for (std::size_t i = 0; i < tail.size(); ++i)
            EXPECT_EQ(tail[i], reference[9 + i])
                << "threads=" << threads << " line " << 9 + i << ": "
                << lines[9 + i];
    }
    // Thread width itself must not matter either.
    EXPECT_EQ(uncrashedResponses(lines, 1),
              uncrashedResponses(lines, 4));
}

TEST(CrashRecovery, WalOnlyReplayReachesTheSameState)
{
    const auto lines = sessionLines();
    const std::string wal_path = tempPath("walonly.wal");
    serve::Server original(serve::ServerOptions{}, makeFactory());
    original.attachWal(serve::WalWriter::openFresh(
        wal_path, serve::WalSync::Always));
    for (const auto &line : lines)
        original.handle(line);
    // Always-sync: every acknowledged line is already on disk even
    // though the writer is still open.
    const auto recovery = serve::recoverWal(wal_path);
    serve::Server recovered(serve::ServerOptions{}, makeFactory());
    EXPECT_EQ(recovered.recover(recovery.records), lines.size());
    // Both servers answer the *next* stats identically (same counts,
    // same tenants) — the recovered one re-counted the whole history.
    EXPECT_EQ(recovered.handle("stats"), original.handle("stats"));
}

TEST(CrashRecovery, EvictRecordsAreLoggedAndVerified)
{
    serve::ServerOptions options;
    options.maxTenants = 2;
    const std::string wal_path = tempPath("evict.wal");
    serve::Server original(options, makeFactory());
    original.attachWal(serve::WalWriter::openFresh(
        wal_path, serve::WalSync::Always));
    original.handle("tenant a vertices=40 edges=80 features=4 "
                    "window=1 roll-every=0");
    original.handle("tenant b vertices=40 edges=80 features=4 "
                    "window=1 roll-every=0");
    // Third tenant evicts the LRU tenant 'a'.
    original.handle("tenant c vertices=40 edges=80 features=4 "
                    "window=1 roll-every=0");
    EXPECT_EQ(original.numTenants(), 2u);

    const auto recovery = serve::recoverWal(wal_path);
    std::size_t evict_records = 0;
    for (const auto &record : recovery.records)
        if (record.kind == serve::WalRecord::Kind::Evict) {
            ++evict_records;
            EXPECT_EQ(record.data, "a");
        }
    EXPECT_EQ(evict_records, 1u);

    serve::Server recovered(options, makeFactory());
    recovered.recover(recovery.records);
    EXPECT_EQ(recovered.numTenants(), 2u);
    EXPECT_EQ(recovered.handle("stats"), original.handle("stats"));
}

// --- circuit breaker ------------------------------------------------

TEST(Breaker, StateMachineTransitions)
{
    serve::BreakerOptions options;
    options.threshold = 2;
    options.baseBackoffUs = 100;
    options.maxBackoffUs = 350;
    serve::CircuitBreaker breaker(options);

    using Admit = serve::CircuitBreaker::Admit;
    using Outcome = serve::CircuitBreaker::Outcome;
    using State = serve::CircuitBreaker::State;

    EXPECT_EQ(breaker.admit(0), Admit::Yes);
    EXPECT_EQ(breaker.onFailure(10), Outcome::None);
    EXPECT_EQ(breaker.onFailure(20), Outcome::Opened);
    EXPECT_EQ(breaker.state(), State::Open);
    EXPECT_EQ(breaker.admit(30), Admit::No);
    EXPECT_EQ(breaker.retryAfterUs(30), 90u);

    // Backoff elapsed: exactly one half-open probe is admitted.
    EXPECT_EQ(breaker.admit(120), Admit::Probe);
    EXPECT_EQ(breaker.admit(121), Admit::No);
    // Probe fails: reopened with the backoff doubled.
    EXPECT_EQ(breaker.onFailure(130), Outcome::Reopened);
    EXPECT_EQ(breaker.backoffUs(), 200u);
    EXPECT_EQ(breaker.admit(140), Admit::No);

    // Second probe fails: doubling is capped at maxBackoffUs.
    EXPECT_EQ(breaker.admit(330), Admit::Probe);
    EXPECT_EQ(breaker.onFailure(340), Outcome::Reopened);
    EXPECT_EQ(breaker.backoffUs(), 350u);

    // Third probe succeeds: closed, backoff reset.
    EXPECT_EQ(breaker.admit(690), Admit::Probe);
    EXPECT_EQ(breaker.onSuccess(), Outcome::Closed);
    EXPECT_EQ(breaker.state(), State::Closed);
    EXPECT_EQ(breaker.backoffUs(), 100u);
    EXPECT_EQ(breaker.opens(), 3u);
    EXPECT_EQ(breaker.admit(700), Admit::Yes);
}

TEST(Breaker, RestoreRoundTripsThroughStateCode)
{
    serve::BreakerOptions options;
    options.threshold = 1;
    options.baseBackoffUs = 50;
    serve::CircuitBreaker breaker(options);
    breaker.onFailure(10); // Opens (threshold 1).
    serve::CircuitBreaker restored(options);
    restored.restore(breaker.stateCode(),
                     breaker.consecutiveFailures(),
                     breaker.backoffUs(), breaker.openUntilUs(),
                     breaker.opens());
    EXPECT_EQ(restored.state(), breaker.state());
    EXPECT_EQ(restored.admit(11), serve::CircuitBreaker::Admit::No);
    EXPECT_EQ(restored.retryAfterUs(11), breaker.retryAfterUs(11));
}

TEST(Breaker, QuarantinesFailingTenantInTheServer)
{
    serve::ServerOptions options;
    options.breaker.threshold = 2;
    options.breaker.baseBackoffUs = 1;
    serve::Server server(options, makeFactory());
    server.handle("tenant a vertices=40 edges=80 features=4 window=1 "
                  "roll-every=0");
    // A spec that parses but cannot resolve: every query fails with a
    // typed `err exec`.
    EXPECT_EQ(server.handle("fault tile@0:r63c63"),
              "ok fault events=1");
    EXPECT_EQ(server.handle("query a").substr(0, 9), "err exec:");
    EXPECT_EQ(server.handle("query a").substr(0, 9), "err exec:");
    // Failed runs are never memoized, so each retry re-executes.
    EXPECT_EQ(server.runner().memoizedKeys(), 0u);
    // Threshold reached: quarantined with a retry-after hint.
    const auto busy = server.handle("query a");
    EXPECT_EQ(busy.substr(0, 9), "err busy:");
    EXPECT_NE(busy.find("quarantined"), std::string::npos);
    EXPECT_NE(busy.find("retry-after="), std::string::npos);
    // Clear the fault; the 1us backoff has elapsed by the next
    // arrival, so the half-open probe succeeds and closes the breaker.
    EXPECT_EQ(server.handle("fault clear"), "ok fault cleared");
    EXPECT_EQ(server.handle("query a").substr(0, 8), "ok query");
    EXPECT_EQ(server.handle("query a").substr(0, 8), "ok query");
    EXPECT_EQ(server.runner().memoizedKeys(), 1u);

    const auto summary = server.summary();
    EXPECT_EQ(summary.execFailures, 2u);
    EXPECT_EQ(summary.breakerOpens, 1u);
    EXPECT_GE(summary.breakerRejected, 1u);
    EXPECT_EQ(summary.faultSplices, 1u);
}

// --- bounded plan cache under serving load --------------------------

TEST(ServeDegraded, BoundedPlanCacheEvictsAndStaysCorrect)
{
    serve::ServerOptions options;
    options.planCacheCapacity = 1;
    serve::Server server(options, makeFactory());
    serve::Server unbounded({}, makeFactory());
    // The outcome memo follows the plan-cache LRU: it never holds
    // outcomes for more keys than the bounded cache holds plans, and
    // modeled costs match an unbounded server's (only the plan=
    // prediction reflects the bound).
    const auto handle = [&](const std::string &line) {
        const auto response = server.handle(line);
        const auto reference = unbounded.handle(line);
        EXPECT_EQ(response.substr(0, response.find(" plan=")),
                  reference.substr(0, reference.find(" plan=")))
            << line;
        EXPECT_LE(server.runner().memoizedKeys(),
                  server.runner().planCache().size())
            << line;
        return response;
    };
    handle("tenant a vertices=48 edges=96 features=4 window=1 "
           "roll-every=0");
    handle("tenant b vertices=40 edges=80 features=4 window=1 "
           "roll-every=0");
    // Alternating structures with capacity 1: every query evicts the
    // other tenant's plan, so repeats replan (predicted miss).
    const auto a1 = handle("query a");
    handle("query b");
    const auto a2 = handle("query a");
    handle("query b");
    EXPECT_EQ(a1, a2); // Same modeled costs either way.
    EXPECT_NE(a2.find("plan=miss"), std::string::npos);
    const auto summary = server.summary();
    EXPECT_GE(summary.planEvictions, 2u);
    EXPECT_LE(server.runner().planCache().size(), 1u);
    // Back-to-back queries on one tenant still hit.
    handle("query a");
    EXPECT_NE(handle("query a").find("plan=hit"), std::string::npos);
    // A live fault spec adds outcomes under the resident key only.
    handle("fault tile@0:r0c*");
    handle("query b");
    handle("query a");
    handle("query a");
}

// --- deadline shedding ----------------------------------------------

TEST(ServeDegraded, ReplayShedsQueriesPastTheirDeadline)
{
    serve::ServerOptions options;
    options.batchMax = 1;
    options.queueCapacity = 64;
    options.deadlineUs = 1;
    options.batchOverheadUs = 50;
    serve::Server server(options, makeFactory());

    std::vector<serve::Request> schedule;
    serve::Request tenant;
    tenant.kind = serve::Request::Kind::CreateTenant;
    tenant.tenant = "a";
    tenant.spec.name = "a";
    tenant.spec.vertices = 40;
    tenant.spec.edges = 80;
    tenant.spec.features = 4;
    tenant.spec.window = 1;
    tenant.spec.rollEvery = 0;
    schedule.push_back(tenant);
    for (int i = 0; i < 6; ++i) {
        serve::Request query;
        query.kind = serve::Request::Kind::Query;
        query.tenant = "a";
        query.id = 1 + i;
        query.arrivalUs = 10; // Simultaneous burst, batchMax 1.
        schedule.push_back(query);
    }
    std::vector<std::string> responses;
    server.replay(schedule, &responses);
    const auto summary = server.summary();
    EXPECT_GE(summary.busyDeadline, 1u);
    EXPECT_EQ(summary.completed + summary.busyDeadline, 6u);
    std::size_t shed = 0;
    for (const auto &response : responses)
        if (response.find("deadline exceeded") != std::string::npos)
            ++shed;
    EXPECT_EQ(shed, summary.busyDeadline);
}

// --- chaos load generation ------------------------------------------

serve::LoadGenConfig
chaosConfig()
{
    serve::LoadGenConfig config;
    config.tenants = 3;
    config.requests = 400;
    config.vertices = 48;
    config.edges = 96;
    config.features = 4;
    config.chaos = true;
    config.chaosMalformed = 0.05;
    config.chaosBadEvent = 0.05;
    config.chaosFault = 0.02;
    config.chaosOverload = 0.05;
    return config;
}

/** Options that reach the degraded-mode counters under chaos. */
serve::ServerOptions
degradedOptions()
{
    serve::ServerOptions options;
    options.deadlineUs = 4000;
    options.planCacheCapacity = 4;
    options.breaker.threshold = 2;
    options.breaker.baseBackoffUs = 500;
    return options;
}

TEST(ChaosLoadGen, ScheduleIsSeededAndAdversarial)
{
    const auto config = chaosConfig();
    const auto schedule = serve::LoadGen(config).schedule();
    const auto again = serve::LoadGen(config).schedule();
    EXPECT_EQ(serve::LoadGen::renderLines(schedule),
              serve::LoadGen::renderLines(again));

    std::size_t malformed = 0, faults = 0, bad_events = 0;
    for (const auto &request : schedule) {
        if (request.kind == serve::Request::Kind::Malformed)
            ++malformed;
        if (request.kind == serve::Request::Kind::Fault)
            ++faults;
        if (request.kind == serve::Request::Kind::Event &&
            request.event.u >= config.vertices)
            ++bad_events;
    }
    EXPECT_GT(malformed, 0u);
    EXPECT_GT(faults, 0u);
    EXPECT_GT(bad_events, 0u);
    // Overload dupes make the schedule longer than the nominal count.
    EXPECT_GT(schedule.size(), config.tenants + config.requests);

    // A different chaos seed perturbs the stream.
    auto other = config;
    other.chaosSeed = 99;
    EXPECT_NE(serve::LoadGen::renderLines(schedule),
              serve::LoadGen::renderLines(
                  serve::LoadGen(other).schedule()));
}

TEST(ChaosLoadGen, ChaosReplayIsThreadWidthInvariant)
{
    auto config = chaosConfig();
    config.requests = 150;
    const auto schedule = serve::LoadGen(config).schedule();
    std::vector<std::string> tables;
    std::vector<std::vector<std::string>> responses;
    for (int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        serve::Server server(degradedOptions(), makeFactory());
        std::vector<std::string> out;
        server.replay(schedule, &out);
        responses.push_back(std::move(out));
        tables.push_back(server.summary().toTable());
        ThreadPool::setGlobalThreads(1);
    }
    EXPECT_EQ(responses[0], responses[1]);
    EXPECT_EQ(tables[0], tables[1]);
    // Chaos traffic actually exercised the error paths.
    std::size_t parse_errors = 0, bad_events = 0;
    for (const auto &response : responses[0]) {
        if (response.rfind("err parse:", 0) == 0)
            ++parse_errors;
        if (response.rfind("err bad-event:", 0) == 0)
            ++bad_events;
    }
    EXPECT_GT(parse_errors, 0u);
    EXPECT_GT(bad_events, 0u);
}

/**
 * The full chaos cycle in-process: render the chaos schedule to
 * script lines, crash the server partway through (WAL + checkpoint),
 * recover, finish, and demand byte-identity with an uncrashed run.
 */
TEST(ChaosLoadGen, CrashRecoveryCycleOverChaosScript)
{
    auto config = chaosConfig();
    config.requests = 120;
    const auto script = serve::LoadGen::renderLines(
        serve::LoadGen(config).schedule());
    std::vector<std::string> lines;
    std::string current;
    for (char c : script) {
        if (c == '\n') {
            if (!serve::isNopLine(current))
                lines.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    ASSERT_GT(lines.size(), 40u);

    const auto reference = uncrashedResponses(lines, 1);
    const auto tail = crashedAndRecoveredTail(
        lines, /*checkpoint_at=*/lines.size() / 3,
        /*crash_at=*/2 * lines.size() / 3, 1, "chaos");
    const std::size_t crash_at = 2 * lines.size() / 3;
    ASSERT_EQ(tail.size(), lines.size() - crash_at);
    for (std::size_t i = 0; i < tail.size(); ++i)
        EXPECT_EQ(tail[i], reference[crash_at + i])
            << "line " << crash_at + i << ": " << lines[crash_at + i];
}

// --- counter table --------------------------------------------------

/** Current value of one registry metric (0 when never bumped). */
long long
metricValue(const std::string &path)
{
    for (const auto &[name, value] : Tracer::global().metrics())
        if (name == path)
            return value;
    return 0;
}

/** Metrics registry on for one test, dropped again on exit. */
struct ScopedMetrics
{
    ScopedMetrics()
    {
        Tracer::global().reset();
        Tracer::global().enable(false, true);
    }
    ~ScopedMetrics() { Tracer::global().reset(); }
};

/**
 * Every counted summary field equals its `serve.*` registry value,
 * and a checkpoint restored into a fresh server reproduces every
 * counter and the summary table.
 */
void
expectCountersAgree(const serve::Server &server,
                    const serve::ServerOptions &options)
{
    const serve::ServeSummary summary = server.summary();
    std::size_t counted = 0;
    for (const serve::ServeCounter &row : serve::serveCounters()) {
        if (!row.metricPath)
            continue;
        ++counted;
        EXPECT_EQ(static_cast<long long>(summary.*row.field),
                  metricValue(row.metricPath))
            << row.metricPath;
    }
    EXPECT_EQ(counted, 18u);

    serve::Server restored(options, makeFactory());
    restored.restoreState(serve::parseCheckpoint(
        serve::renderCheckpoint(server.checkpointState())));
    const serve::ServeSummary again = restored.summary();
    for (const serve::ServeCounter &row : serve::serveCounters())
        EXPECT_EQ(again.*row.field, summary.*row.field)
            << row.checkpointKey;
    EXPECT_EQ(again.toTable(), summary.toTable());
}

TEST(ServeCounters, TableNamesEachCounterOnce)
{
    std::set<std::string> keys, paths, labels;
    for (const serve::ServeCounter &row : serve::serveCounters()) {
        EXPECT_TRUE(keys.insert(row.checkpointKey).second)
            << row.checkpointKey;
        // A row is counted exactly when it is a summary counter row.
        EXPECT_EQ(row.metricPath == nullptr, row.label == nullptr)
            << row.checkpointKey;
        if (!row.metricPath)
            continue;
        EXPECT_EQ(std::string(row.metricPath).rfind("serve.", 0), 0u);
        EXPECT_TRUE(paths.insert(row.metricPath).second);
        EXPECT_TRUE(labels.insert(row.label).second);
        EXPECT_NE(serve::ServeSummary{}.toTable().find(row.label),
                  std::string::npos)
            << row.label;
    }
}

TEST(ServeCounters, HandleModeSummaryMatchesRegistryAndCheckpoint)
{
    ScopedMetrics metrics;
    const serve::ServerOptions options;
    serve::Server server(options, makeFactory());
    std::ifstream session(DITILE_EXAMPLES_DIR "/serve_session.txt");
    ASSERT_TRUE(session);
    std::string line;
    while (std::getline(session, line))
        server.handle(line);
    ASSERT_TRUE(server.stopped());
    EXPECT_GT(server.summary().completed, 0u);
    EXPECT_GT(server.summary().errors, 0u);
    expectCountersAgree(server, options);
}

TEST(ServeCounters, ReplayModeSummaryMatchesRegistryAndCheckpoint)
{
    ScopedMetrics metrics;
    auto config = chaosConfig();
    config.requests = 150;
    const serve::ServerOptions options = degradedOptions();
    serve::Server server(options, makeFactory());
    server.replay(serve::LoadGen(config).schedule());
    const serve::ServeSummary summary = server.summary();
    EXPECT_GT(summary.completed, 0u);
    EXPECT_GT(summary.errors, 0u);
    EXPECT_GT(summary.faultSplices, 0u);
    expectCountersAgree(server, options);
}

} // namespace
} // namespace ditile
