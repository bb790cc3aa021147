/**
 * @file
 * Structured tracing and hierarchical metrics registry.
 *
 * The Tracer collects *spans* — named, nestable intervals on virtual
 * tracks — plus instant and counter events, and exports them as Chrome
 * `trace_event` JSON (loadable in chrome://tracing or Perfetto) or as
 * a per-stage rollup table. It follows the profiling-first methodology
 * of cycle-level simulators (DRAMSim2 epoch stats, Timeloop per-level
 * breakdowns): every pipeline stage — planning (Alg-1 tiling, Alg-2
 * BDW, Re-Link scheduling), the engine's staged execution, NoC traffic
 * per class, DRAM streams, cache lookups, and fault recovery — records
 * what it did and when in *modeled* time.
 *
 * ### Determinism rules
 *
 * Trace content is bit-identical at any --threads width because
 * nothing in it depends on wall-clock or scheduling:
 *
 *  - Timestamps are virtual: modeled cycles for execution tracks, and
 *    per-track step counters (nextStep) for the planning/cache tracks
 *    where no cycle clock exists.
 *  - Events may only be recorded from *serial* program points (the
 *    engine emits after its ordered reduction; planning is serial per
 *    run; cache lookups happen at serial points of a run). Parallel
 *    regions must stage their data into per-index slots and let the
 *    serial merge emit it.
 *  - Export sorts events by (track, ts, dur desc, ord, name), so the
 *    file layout is independent of cross-track interleaving. Within a
 *    track, callers supply `ord` (usually the snapshot id) to pin ties.
 *  - Tools assign each run a disjoint track group via setTrackBase()
 *    so concurrent sweep points never share a track.
 *
 * ### Overhead discipline
 *
 * A disabled tracer must leave every output byte-identical and cost
 * nearly nothing: enabled() is one relaxed atomic load, and every
 * instrumentation site checks it before building an event. Metrics
 * (the hierarchical dotted-path counter registry) are integer-valued,
 * so accumulation order cannot perturb them.
 */

#ifndef DITILE_COMMON_TRACE_HH
#define DITILE_COMMON_TRACE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ditile {

/**
 * One trace event: a complete span ('X'), an instant ('i'), or a
 * counter sample ('C') on a virtual track.
 */
struct TraceEvent
{
    char phase = 'X';
    std::string cat;  ///< plan|engine|noc|dram|cache|fault|cluster
    std::string name;
    std::uint64_t track = 0; ///< Chrome "tid"; see Tracer track layout.
    std::uint64_t ts = 0;    ///< Virtual timestamp (modeled cycles).
    std::uint64_t dur = 0;   ///< Span length; 0 for instants/counters.
    std::uint64_t ord = 0;   ///< Stable tie-break within a track.
    /** (key, raw JSON value) pairs; keep values integral or string so
     *  traces stay byte-identical across platforms. */
    std::vector<std::pair<std::string, std::string>> args;

    TraceEvent &addArg(const std::string &key, long long value);
    TraceEvent &addArg(const std::string &key, const std::string &value);
};

/** One (category, name) aggregate over a set of trace events. */
struct TraceRollupRow
{
    std::string cat;
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t totalDur = 0; ///< Summed span durations (X only).
    std::uint64_t firstTs = 0;
    std::uint64_t lastEnd = 0;
};

/**
 * Process-wide span/metrics collector. Disabled by default; tools
 * enable it for --trace=FILE (span events) and/or --metrics (the
 * counter registry plus extended per-run stats).
 */
class Tracer
{
  public:
    // Track-group layout. Tools pick a disjoint base per run with
    // setTrackBase(); instrumentation sites add these fixed offsets.
    static constexpr std::uint64_t kPlanTrack = 0;
    static constexpr std::uint64_t kDramTrack = 1;
    static constexpr std::uint64_t kNocTrack = 2;
    static constexpr std::uint64_t kCacheTrack = 3;
    static constexpr std::uint64_t kFaultTrack = 4;
    static constexpr std::uint64_t kColumnTrackBase = 8;
    static constexpr std::uint64_t kTracksPerRun = 64;

    static Tracer &global();

    /** True when span or metrics collection is on (one relaxed load). */
    bool
    enabled() const
    {
        return state_.load(std::memory_order_relaxed) != 0;
    }

    bool
    traceEnabled() const
    {
        return (state_.load(std::memory_order_relaxed) & kTraceBit) != 0;
    }

    bool
    metricsEnabled() const
    {
        return (state_.load(std::memory_order_relaxed) & kMetricsBit)
            != 0;
    }

    void enable(bool trace_events, bool metrics);

    /** Disable and drop all events, metrics, names, and cursors. */
    void reset();

    /** Append one event. No-op unless span tracing is enabled. */
    void record(TraceEvent event);

    /** Record an instant on `track` at the track's next virtual step. */
    void instant(const std::string &cat, const std::string &name,
                 std::uint64_t track, TraceEvent event = {});

    /** Record a one-step span (an instant if event.phase is 'i') on
     *  `track` at the track's next virtual step, for stages with no
     *  cycle clock (planning, cache lookups). */
    void stepSpan(const std::string &cat, const std::string &name,
                  std::uint64_t track, TraceEvent event = {});

    /** Record a cache hit/miss instant carrying `key` (16 hex digits)
     *  on the calling run's cache track. */
    void cacheInstant(const char *name, std::uint64_t key);

    /**
     * Advance and return the per-track virtual step cursor — the
     * timestamp source for tracks with no modeled cycle clock (plan,
     * cache). Only meaningful from serial program points.
     */
    std::uint64_t nextStep(std::uint64_t track);

    /** Label a track for the exported thread-name metadata. */
    void nameTrack(std::uint64_t track, const std::string &name);

    /**
     * Bump a hierarchical dotted-path counter ("cache.plan.hits").
     * Integer deltas keep totals independent of accumulation order.
     * No-op unless metrics are enabled.
     */
    void addMetric(const std::string &path, long long delta);

    /** Counter snapshot, sorted by path. */
    std::vector<std::pair<std::string, long long>> metrics() const;

    /**
     * Per-run track-group base for the calling thread. Tools set a
     * disjoint base (run index * kTracksPerRun) before each plan or
     * execute so concurrent runs never share a track.
     */
    static void setTrackBase(std::uint64_t base);
    static std::uint64_t trackBase();

    /** Deterministic Chrome trace_event JSON (sorted, compact). */
    std::string toChromeJson() const;
    void writeChromeJson(const std::string &path) const;

    /** Rollup of this tracer's events by (cat, name). */
    std::vector<TraceRollupRow> rollup() const;

    /** Parse a Chrome trace back into events (metadata skipped). */
    static std::vector<TraceEvent> parseChromeJson(
        const std::string &json);

    /** Rollup of arbitrary events by (cat, name), sorted. */
    static std::vector<TraceRollupRow> rollupEvents(
        const std::vector<TraceEvent> &events);

  private:
    static constexpr unsigned kTraceBit = 1u;
    static constexpr unsigned kMetricsBit = 2u;

    mutable std::mutex mutex_;
    std::atomic<unsigned> state_{0};
    std::vector<TraceEvent> events_;
    std::map<std::uint64_t, std::string> trackNames_;
    std::map<std::uint64_t, std::uint64_t> stepCursor_;
    std::map<std::string, long long> metrics_;
};

// The tracer instruments sim:: code throughout; give it its natural
// name there too.
namespace sim {
using ditile::TraceEvent;
using ditile::Tracer;
} // namespace sim

} // namespace ditile

#endif // DITILE_COMMON_TRACE_HH
