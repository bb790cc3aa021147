/**
 * @file
 * Tests for edge-list and event-stream I/O, including the rejection
 * of malformed inputs: loaders throw a catchable InputError (so long
 * sweeps can skip a bad point instead of dying) with a message that
 * names the offending line.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "graph/io.hh"

namespace ditile::graph {
namespace {

/** Expect `expr` to throw InputError whose message contains `text`. */
#define EXPECT_INPUT_ERROR(expr, text)                                 \
    do {                                                               \
        try {                                                          \
            (void)(expr);                                              \
            FAIL() << "expected InputError";                           \
        } catch (const InputError &e) {                                \
            EXPECT_NE(std::string(e.what()).find(text),                \
                      std::string::npos)                               \
                << "message was: " << e.what();                        \
        }                                                              \
    } while (0)

TEST(ReadEdgeList, BasicParse)
{
    std::istringstream in("# comment\n0 1\n1 2\n\n% other comment\n"
                          "2 0\n");
    const auto g = readEdgeList(in);
    EXPECT_EQ(g.numVertices(), 3);
    EXPECT_EQ(g.numEdges(), 3);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(2, 0));
}

TEST(ReadEdgeList, ExplicitUniverse)
{
    std::istringstream in("0 1\n");
    const auto g = readEdgeList(in, 10);
    EXPECT_EQ(g.numVertices(), 10);
    EXPECT_EQ(g.numEdges(), 1);
}

TEST(ReadEdgeList, TabsAndDuplicates)
{
    std::istringstream in("0\t1\n1\t0\n0 1\n");
    const auto g = readEdgeList(in);
    EXPECT_EQ(g.numEdges(), 1);
}

TEST(ReadEdgeList, EmptyInput)
{
    std::istringstream in("# nothing\n");
    const auto g = readEdgeList(in);
    EXPECT_EQ(g.numVertices(), 0);
    EXPECT_EQ(g.numEdges(), 0);
}

TEST(ReadEdgeList, MalformedLineThrows)
{
    std::istringstream in("0 x\n");
    EXPECT_INPUT_ERROR(readEdgeList(in), "parse error");
}

TEST(ReadEdgeList, TruncatedLineThrows)
{
    // A line cut off mid-record (only one endpoint survives).
    std::istringstream in("0 1\n2\n");
    EXPECT_INPUT_ERROR(readEdgeList(in), "parse error");
}

TEST(ReadEdgeList, OutOfUniverseThrows)
{
    std::istringstream in("0 9\n");
    EXPECT_INPUT_ERROR(readEdgeList(in, 5),
                       "outside the declared universe");
}

TEST(ReadEdgeList, NegativeIdThrows)
{
    std::istringstream in("-1 2\n");
    EXPECT_INPUT_ERROR(readEdgeList(in), "negative vertex id");
}

TEST(ReadEdgeList, IdPast32BitsThrows)
{
    // 2^32 + 1 would wrap to vertex 1 in a 32-bit id: edge (2,1).
    std::istringstream in("0 1\n2 4294967297\n");
    EXPECT_INPUT_ERROR(readEdgeList(in),
                       "vertex id 4294967297 at line 2");
}

TEST(ReadEdgeList, IdPastSignedRangeThrows)
{
    // 2^31 would wrap to a negative 32-bit id.
    std::istringstream in("0 1\n# comment\n2147483648 3\n");
    EXPECT_INPUT_ERROR(readEdgeList(in),
                       "vertex id 2147483648 at line 3");
}

TEST(ReadEdgeList, LargestIdLeavesNoUniverseThrows)
{
    // The largest 32-bit id is a valid id, but counting it needs a
    // universe of 2^31 vertices, which a 32-bit count cannot hold.
    std::istringstream in("0 1\n2 2147483647\n");
    EXPECT_INPUT_ERROR(readEdgeList(in), "vertex id 2147483647 needs");
}

TEST(ReadEdgeList, NegativeUniverseThrows)
{
    std::istringstream in("0 1\n");
    EXPECT_INPUT_ERROR(readEdgeList(in, -5), "negative vertex count");
}

TEST(ReadEdgeList, ErrorIsCatchableAsRuntimeError)
{
    // InputError derives std::runtime_error so generic handlers
    // (tools wrapping main) catch it too.
    std::istringstream in("0 x\n");
    EXPECT_THROW(readEdgeList(in), std::runtime_error);
}

TEST(WriteEdgeList, RoundTrips)
{
    const auto g = Csr::fromEdges(5, {{0, 1}, {1, 2}, {3, 4}, {0, 4}});
    std::ostringstream out;
    writeEdgeList(out, g);
    std::istringstream in(out.str());
    const auto back = readEdgeList(in, 5);
    EXPECT_EQ(back.edgeList(), g.edgeList());
}

TEST(FileIo, WriteAndReadBack)
{
    const std::string path = ::testing::TempDir() +
        "/ditile_io_test.el";
    const auto g = Csr::fromEdges(4, {{0, 1}, {2, 3}});
    writeEdgeListFile(path, g);
    const auto back = readEdgeListFile(path);
    EXPECT_EQ(back.edgeList(), g.edgeList());
    std::remove(path.c_str());
}

TEST(FileIo, MissingFileThrows)
{
    EXPECT_INPUT_ERROR(readEdgeListFile("/nonexistent/nowhere.el"),
                       "cannot open");
}

TEST(SnapshotFiles, LoadsDynamicGraph)
{
    const std::string base = ::testing::TempDir() + "/ditile_snap";
    std::vector<std::string> paths;
    for (int t = 0; t < 3; ++t) {
        const auto path = base + std::to_string(t) + ".el";
        std::ofstream out(path);
        out << "0 1\n";
        if (t >= 1)
            out << "1 2\n";
        if (t >= 2)
            out << "2 3\n";
        paths.push_back(path);
    }
    const auto dg = readSnapshotFiles("disk", paths, 16);
    EXPECT_EQ(dg.numSnapshots(), 3);
    EXPECT_EQ(dg.numVertices(), 4); // max id across files + 1.
    EXPECT_EQ(dg.snapshot(0).numEdges(), 1);
    EXPECT_EQ(dg.snapshot(2).numEdges(), 3);
    EXPECT_EQ(dg.delta(1).addedEdges().size(), 1u);
    for (const auto &p : paths)
        std::remove(p.c_str());
}

TEST(EventStream, ParsesOpsAndTimestamps)
{
    std::istringstream in("# events\n+ 1 2 0.5\n- 0 1 1.5\n+ 2 3 2.0\n");
    auto ctdg = readEventStream("stream",
                                Csr::fromEdges(4, {{0, 1}}), in);
    ASSERT_EQ(ctdg.events().size(), 3u);
    EXPECT_EQ(ctdg.events()[0].kind, GraphEvent::Kind::AddEdge);
    EXPECT_EQ(ctdg.events()[1].kind, GraphEvent::Kind::RemoveEdge);
    EXPECT_DOUBLE_EQ(ctdg.events()[2].timestamp, 2.0);
    const auto dg = ctdg.discretize(4, 8);
    EXPECT_FALSE(dg.snapshot(3).hasEdge(0, 1));
    EXPECT_TRUE(dg.snapshot(3).hasEdge(2, 3));
}

TEST(SnapshotFiles, EmptyPathListThrows)
{
    EXPECT_INPUT_ERROR(readSnapshotFiles("none", {}, 16),
                       "at least one snapshot file");
}

TEST(SnapshotFiles, MalformedMemberThrows)
{
    const std::string good = ::testing::TempDir() +
        "/ditile_snap_good.el";
    const std::string bad = ::testing::TempDir() +
        "/ditile_snap_bad.el";
    { std::ofstream(good) << "0 1\n"; }
    { std::ofstream(bad) << "0 1\n1 garbage\n"; }
    EXPECT_INPUT_ERROR(readSnapshotFiles("disk", {good, bad}, 16),
                       "parse error");
    std::remove(good.c_str());
    std::remove(bad.c_str());
}

TEST(SnapshotFiles, LargestIdLeavesNoUniverseThrows)
{
    const std::string path = ::testing::TempDir() +
        "/ditile_snap_largest.el";
    { std::ofstream(path) << "0 1\n2 2147483647\n"; }
    EXPECT_INPUT_ERROR(readSnapshotFiles("disk", {path}, 16),
                       "vertex id 2147483647 needs");
    std::remove(path.c_str());
}

TEST(EventStream, BadOpThrows)
{
    std::istringstream in("* 1 2 0.5\n");
    EXPECT_INPUT_ERROR(readEventStream("bad", Csr(4), in),
                       "event parse error");
}

TEST(EventStream, NegativeIdThrows)
{
    std::istringstream in("+ -1 2 0.5\n");
    EXPECT_INPUT_ERROR(readEventStream("bad", Csr(4), in),
                       "negative vertex id");
}

TEST(EventStream, TruncatedRecordThrows)
{
    std::istringstream in("+ 1 2 0.5\n+ 1\n");
    EXPECT_INPUT_ERROR(readEventStream("bad", Csr(4), in),
                       "event parse error");
}

TEST(EventStream, OutOfUniverseThrows)
{
    std::istringstream in("+ 0 1 0.5\n+ 1 99 1.0\n");
    EXPECT_INPUT_ERROR(readEventStream("bad", Csr(8), in),
                       "line 2 references vertex 99");
}

TEST(EventStream, OutOfOrderThrows)
{
    std::istringstream in("+ 1 2 5.0\n# comment\n+ 2 3 1.0\n");
    EXPECT_INPUT_ERROR(readEventStream("bad", Csr(8), in),
                       "line 3 has timestamp 1");
}

TEST(EventStream, HugeIdThrows)
{
    // 2^32 + 1 would wrap to vertex 1 in a 32-bit id.
    std::istringstream in("+ 4294967297 2 0.5\n");
    EXPECT_INPUT_ERROR(readEventStream("bad", Csr(8), in),
                       "references vertex 4294967297");
}

} // namespace
} // namespace ditile::graph
