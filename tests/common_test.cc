/**
 * @file
 * Unit tests for the common substrate: RNG, the FNV-1a hash, stats,
 * tables, CLI flags and integer math helpers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/content_cache.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/trace.hh"

namespace ditile {
namespace {

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a() == b();
    EXPECT_LT(same, 3);
}

TEST(Rng, ZeroSeedIsValid)
{
    Rng rng(0);
    std::set<std::uint64_t> values;
    for (int i = 0; i < 64; ++i)
        values.insert(rng());
    EXPECT_GT(values.size(), 60u);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniformInt(-5, 17);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 17);
    }
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(3);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(9, 9), 9);
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(0, 7));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(13);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRealRange)
{
    Rng rng(17);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniformReal(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, BernoulliEdgeCases)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
        EXPECT_FALSE(rng.bernoulli(-1.0));
        EXPECT_TRUE(rng.bernoulli(2.0));
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(23);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ZipfInRangeAndSkewed)
{
    Rng rng(29);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 20000; ++i) {
        const auto v = rng.zipf(100, 1.2);
        ASSERT_GE(v, 0);
        ASSERT_LT(v, 100);
        ++counts[static_cast<std::size_t>(v)];
    }
    // Rank 0 should dominate rank 50 heavily under s = 1.2.
    EXPECT_GT(counts[0], counts[50] * 4);
}

TEST(Rng, SampleWithoutReplacementDistinct)
{
    Rng rng(31);
    const auto sample = rng.sampleWithoutReplacement(100, 30);
    ASSERT_EQ(sample.size(), 30u);
    std::set<std::int64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 30u);
    for (auto v : sample) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 100);
    }
}

TEST(Rng, SampleWithoutReplacementFull)
{
    Rng rng(37);
    const auto sample = rng.sampleWithoutReplacement(10, 10);
    std::set<std::int64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(41);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto copy = v;
    rng.shuffle(copy);
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, v);
}

TEST(Mix64, AvalanchesAndIsDeterministic)
{
    EXPECT_EQ(mix64(1), mix64(1));
    EXPECT_NE(mix64(1), mix64(2));
    // Single-bit input changes should flip roughly half the bits.
    const auto diff = mix64(100) ^ mix64(101);
    EXPECT_GT(__builtin_popcountll(diff), 16);
}

TEST(Hash, Fnv1aKeepsTheRepoOffsetBasis)
{
    // The repo's basis is 1469598103934665603, not the textbook
    // 14695981039346656037: every stored WAL/checkpoint checksum, plan
    // hash and cache key depends on it.
    EXPECT_EQ(fnv1a(""), 0x14650fb0739d0383ull);
    EXPECT_EQ(fnv1a("a"), 0x44bd8ad473cd9906ull);
    WordHasher words;
    EXPECT_EQ(words.h, fnv1a(""));
    words.mix('a');
    EXPECT_EQ(words.h, fnv1a("a"));
}

TEST(Hash, Hex64IsSixteenLowercaseDigits)
{
    EXPECT_EQ(hex64(0), "0000000000000000");
    EXPECT_EQ(hex64(0x14650fb0739d0383ull), "14650fb0739d0383");
    EXPECT_EQ(hex64(~0ull), "ffffffffffffffff");
}

TEST(StatSet, AddAndGet)
{
    StatSet s;
    EXPECT_EQ(s.get("x"), 0.0);
    EXPECT_FALSE(s.has("x"));
    s.add("x", 2.5);
    s.add("x", 1.0);
    EXPECT_TRUE(s.has("x"));
    EXPECT_DOUBLE_EQ(s.get("x"), 3.5);
}

TEST(StatSet, SetOverrides)
{
    StatSet s;
    s.add("x", 2.0);
    s.set("x", 7.0);
    EXPECT_DOUBLE_EQ(s.get("x"), 7.0);
}

TEST(StatSet, PreservesInsertionOrder)
{
    StatSet s;
    s.add("b", 1);
    s.add("a", 1);
    s.add("c", 1);
    s.add("a", 1); // no reorder
    ASSERT_EQ(s.names().size(), 3u);
    EXPECT_EQ(s.names()[0], "b");
    EXPECT_EQ(s.names()[1], "a");
    EXPECT_EQ(s.names()[2], "c");
}

TEST(StatSet, MergeSums)
{
    StatSet a;
    a.add("x", 1.0);
    StatSet b;
    b.add("x", 2.0);
    b.add("y", 3.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 3.0);
}

TEST(StatSet, ClearKeepsNames)
{
    StatSet s;
    s.add("x", 5.0);
    s.clear();
    EXPECT_TRUE(s.has("x"));
    EXPECT_DOUBLE_EQ(s.get("x"), 0.0);
}

TEST(Table, RendersAlignedAscii)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const auto s = t.toString();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("| alpha |"), std::string::npos);
    EXPECT_NE(s.find("| b     |"), std::string::npos);
}

TEST(Table, CsvQuotesSpecials)
{
    Table t;
    t.setHeader({"a", "b"});
    t.addRow({"x,y", "he said \"hi\""});
    const auto csv = t.toCsv();
    EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
    EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, NumericFormatters)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::integer(-42), "-42");
    EXPECT_EQ(Table::percent(0.125, 1), "12.5%");
    EXPECT_EQ(Table::sci(12345.0, 2), "1.23e+04");
}

TEST(CliFlags, ParsesKeyValueAndBoolean)
{
    const char *argv[] = {"prog", "--scale=0.5", "--csv",
                          "positional", "--n=12"};
    auto flags = CliFlags::parse(5, const_cast<char **>(argv));
    EXPECT_DOUBLE_EQ(flags.getDouble("scale", 0.0), 0.5);
    EXPECT_TRUE(flags.getBool("csv", false));
    EXPECT_EQ(flags.getInt("n", 0), 12);
    EXPECT_EQ(flags.getInt("missing", 99), 99);
    ASSERT_EQ(flags.positional().size(), 1u);
    EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(CliFlags, BooleanFalseValues)
{
    const char *argv[] = {"prog", "--flag=0", "--other=false"};
    auto flags = CliFlags::parse(3, const_cast<char **>(argv));
    EXPECT_FALSE(flags.getBool("flag", true));
    EXPECT_FALSE(flags.getBool("other", true));
}

TEST(CliFlags, RejectsMalformedNumbers)
{
    // strtod/strtoll must consume the whole value: trailing junk,
    // empty strings, and plain words are typed InputErrors, not
    // silently-truncated parses.
    const char *argv[] = {"prog", "--scale=1.5x", "--n=7q",
                          "--empty=", "--word=abc"};
    auto flags = CliFlags::parse(5, const_cast<char **>(argv));
    EXPECT_THROW(flags.getDouble("scale", 0.0), InputError);
    EXPECT_THROW(flags.getInt("n", 0), InputError);
    EXPECT_THROW(flags.getDouble("empty", 0.0), InputError);
    EXPECT_THROW(flags.getInt("empty", 0), InputError);
    EXPECT_THROW(flags.getDouble("word", 0.0), InputError);
    EXPECT_THROW(flags.getInt("word", 0), InputError);
    // getInt must not accept a double's fractional tail either.
    const char *argv2[] = {"prog", "--n=1.5"};
    auto flags2 = CliFlags::parse(2, const_cast<char **>(argv2));
    EXPECT_THROW(flags2.getInt("n", 0), InputError);
    EXPECT_DOUBLE_EQ(flags2.getDouble("n", 0.0), 1.5);
}

TEST(Table, HeaderAndRowsCsvSplitCleanly)
{
    Table t;
    t.setHeader({"a", "b"});
    EXPECT_EQ(t.headerCsv(), "a,b\n");
    EXPECT_EQ(t.rowsCsv(), "");
    t.addRow({"1", "x,y"});
    t.addRow({"2", "z"});
    EXPECT_EQ(t.rowsCsv(), "1,\"x,y\"\n2,z\n");
    // toCsv is exactly the concatenation, so a header flushed early
    // plus rows flushed late reproduces the one-shot output.
    EXPECT_EQ(t.toCsv(), t.headerCsv() + t.rowsCsv());
}

TEST(MathUtil, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(0, 3), 0);
    EXPECT_EQ(ceilDiv(1, 1), 1);
}

TEST(MathUtil, RoundUp)
{
    EXPECT_EQ(roundUp(10, 4), 12);
    EXPECT_EQ(roundUp(12, 4), 12);
    EXPECT_EQ(roundUp(0, 4), 0);
}

TEST(MathUtil, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(MathUtil, Log2Floor)
{
    EXPECT_EQ(log2Floor(1), 0);
    EXPECT_EQ(log2Floor(2), 1);
    EXPECT_EQ(log2Floor(3), 1);
    EXPECT_EQ(log2Floor(1024), 10);
}

TEST(MathUtil, Clamp)
{
    EXPECT_EQ(clamp(5, 0, 10), 5);
    EXPECT_EQ(clamp(-1, 0, 10), 0);
    EXPECT_EQ(clamp(11, 0, 10), 10);
}

/** Chi-squared-style uniformity sweep over several seeds. */
class RngUniformity : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngUniformity, BucketsAreBalanced)
{
    Rng rng(GetParam());
    constexpr int kBuckets = 16;
    constexpr int kDraws = 16000;
    std::vector<int> counts(kBuckets, 0);
    for (int i = 0; i < kDraws; ++i)
        ++counts[static_cast<std::size_t>(
            rng.uniformInt(0, kBuckets - 1))];
    const double expected = kDraws / static_cast<double>(kBuckets);
    for (int c : counts)
        EXPECT_NEAR(c, expected, expected * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngUniformity,
                         ::testing::Values(1u, 2u, 3u, 1234567u,
                                           0xdeadbeefu));

// ---------------------------------------------------------------------
// warnOnce dedup semantics.
// ---------------------------------------------------------------------

TEST(WarnOnce, DedupsOnSiteKeyNotFullMessage)
{
    detail::warnOnceResetForTest();
    // Same site prefix with varying per-point detail: one entry, one
    // print. The old behavior keyed on the full message, so every
    // distinct detail grew the table and re-printed.
    EXPECT_TRUE(warnOnce("site A", ": detail ", 1));
    EXPECT_FALSE(warnOnce("site A", ": detail ", 2));
    EXPECT_FALSE(warnOnce("site A", ": detail ", 3));
    EXPECT_EQ(detail::warnOnceTableSize(), 1u);
    // A different site still prints.
    EXPECT_TRUE(warnOnce("site B"));
    EXPECT_EQ(detail::warnOnceTableSize(), 2u);
    detail::warnOnceResetForTest();
}

TEST(WarnOnce, TableIsCappedAndSaturationIsQuiet)
{
    detail::warnOnceResetForTest();
    for (std::size_t i = 0; i < detail::kWarnOnceCap; ++i)
        EXPECT_TRUE(warnOnce(std::string("cap site ") +
                             std::to_string(i)));
    EXPECT_EQ(detail::warnOnceTableSize(), detail::kWarnOnceCap);
    // Past the cap nothing new is remembered or printed, and the
    // table stays bounded.
    EXPECT_FALSE(warnOnce("one past the cap"));
    EXPECT_FALSE(warnOnce("two past the cap"));
    EXPECT_EQ(detail::warnOnceTableSize(), detail::kWarnOnceCap);
    // Known sites are still recognized as seen.
    EXPECT_FALSE(warnOnce("cap site 0"));
    detail::warnOnceResetForTest();
}

TEST(WarnOnce, ResetHookClearsTableAndSaturation)
{
    detail::warnOnceResetForTest();
    EXPECT_TRUE(warnOnce("reset probe"));
    EXPECT_FALSE(warnOnce("reset probe"));
    detail::warnOnceResetForTest();
    EXPECT_EQ(detail::warnOnceTableSize(), 0u);
    EXPECT_TRUE(warnOnce("reset probe"));
    detail::warnOnceResetForTest();
}

// ---------------------------------------------------------------------
// ContentCache: the shared lookup/build/publish/count policy.
// ---------------------------------------------------------------------

TEST(ContentCache, LaterRacerGetsThePublishedValue)
{
    // A race, played serially: while the outer miss builds (outside
    // the lock), a nested lookup of the same key misses too, builds
    // and publishes first. The outer build's value is dropped.
    ContentCache<std::uint64_t, int> cache;
    const int outer = cache.obtain(7, [&] {
        EXPECT_EQ(cache.obtain(7, [] { return 1; }), 1);
        return 2;
    });
    EXPECT_EQ(outer, 1);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.obtain(7, [] { return 3; }), 1);
    EXPECT_EQ(cache.hits(), 1u);
    // peek() and contains() count no lookup.
    EXPECT_EQ(cache.peek(7), std::optional<int>(1));
    EXPECT_FALSE(cache.peek(8).has_value());
    EXPECT_TRUE(cache.contains(7));
    EXPECT_FALSE(cache.contains(8));
    EXPECT_EQ(cache.hits() + cache.misses(), 3u);
}

TEST(ContentCache, UncoveredHitRebuildsAndRepublishes)
{
    // Each value is a coverage; a lookup that needs n is covered by
    // any value >= n.
    ContentCache<std::uint64_t, int> cache;
    auto needs = [](int n) { return [n](const int &v) { return v >= n; }; };
    EXPECT_EQ(cache.obtain(7, [] { return 1; }, needs(1)), 1);
    EXPECT_EQ(cache.obtain(7, [] { return -1; }, needs(1)), 1);
    // Not covered: counted as a hit, rebuilt, republished.
    EXPECT_EQ(cache.obtain(7, [] { return 4; }, needs(3)), 4);
    EXPECT_EQ(cache.peek(7), std::optional<int>(4));
    // While a rebuild runs, a racer publishes a value that covers it:
    // the racer's value is kept.
    EXPECT_EQ(cache.obtain(7, [&] {
        EXPECT_EQ(cache.obtain(7, [] { return 8; }, needs(8)), 8);
        return 6;
    }, needs(6)), 8);
    // A racer's value that does not cover it is replaced.
    EXPECT_EQ(cache.obtain(7, [&] {
        EXPECT_EQ(cache.obtain(7, [] { return 9; }, needs(9)), 9);
        return 12;
    }, needs(12)), 12);
    EXPECT_EQ(cache.peek(7), std::optional<int>(12));
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 6u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ContentCache, NamedCacheReportsEachLookupOnceAndSilentNone)
{
    Tracer &tracer = Tracer::global();
    tracer.reset();
    tracer.enable(true, true);
    ContentCache<std::uint64_t, int> named("demo-cache", "demo");
    ContentCache<std::uint64_t, int> silent;
    for (const std::uint64_t key : {1u, 2u, 1u}) {
        named.obtain(key, [] { return 0; });
        silent.obtain(key, [] { return 0; });
    }
    named.setCapacity(1);
    EXPECT_EQ(named.evictToCapacity().size(), 1u);
    const auto metrics = tracer.metrics();
    const std::map<std::string, long long> registry(metrics.begin(),
                                                    metrics.end());
    const std::map<std::string, long long> expected{
        {"cache.demo.evictions", 1},
        {"cache.demo.hits", 1},
        {"cache.demo.misses", 2}};
    EXPECT_EQ(registry, expected);
    std::map<std::string, std::uint64_t> instants;
    for (const auto &row : tracer.rollup())
        instants[row.cat + "/" + row.name] = row.count;
    const std::map<std::string, std::uint64_t> expected_instants{
        {"cache/demo-cache hit", 1}, {"cache/demo-cache miss", 2}};
    EXPECT_EQ(instants, expected_instants);
    EXPECT_EQ(silent.hits(), 1u);
    EXPECT_EQ(silent.misses(), 2u);
    tracer.reset();
}

TEST(ContentCache, EvictsUntouchedFirstThenLeastRecentlyTouched)
{
    ContentCache<std::uint64_t, int> cache;
    for (const std::uint64_t key : {30u, 10u, 20u, 40u})
        cache.obtain(key, [] { return 0; });
    cache.touch(40);
    cache.touch(30);
    cache.touch(99); // Recency may precede publication.
    // A lookup moves no recency: 40 stays older than 30.
    cache.obtain(40, [] { return 0; });
    EXPECT_TRUE(cache.evictToCapacity().empty()); // Unbounded.
    cache.setCapacity(1);
    EXPECT_EQ(cache.evictToCapacity(),
              (std::vector<std::uint64_t>{10, 20, 40}));
    EXPECT_TRUE(cache.contains(30));
    EXPECT_EQ(cache.evictions(), 3u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

} // namespace
} // namespace ditile
