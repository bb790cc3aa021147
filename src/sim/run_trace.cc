/**
 * @file
 * Run observability: field stats, registry totals and trace spans.
 */

#include "sim/run_trace.hh"

#include <algorithm>
#include <string>

#include "common/trace.hh"

namespace ditile::sim {

namespace {

/** How a task kind draws; cat == nullptr draws no span. */
struct SpanStyle
{
    const char *cat = nullptr;
    const char *name = nullptr;
    bool always = false; ///< Drawn even when it took and moved nothing.
};

SpanStyle
spanStyle(TaskKind kind)
{
    switch (kind) {
    case TaskKind::GnnCompute: return {"engine", "gnn-compute"};
    case TaskKind::RnnCompute: return {"engine", "rnn-compute"};
    case TaskKind::SpatialComm: return {"noc", "spatial-comm"};
    case TaskKind::TemporalComm: return {"noc", "temporal-comm"};
    case TaskKind::DramStream: return {"dram", "dram-stream", true};
    case TaskKind::RelinkReconfig: return {};
    case TaskKind::ChipCompute: return {"cluster", "chip-compute"};
    case TaskKind::InterChipComm: return {"cluster", "interchip-comm"};
    }
    return {};
}

/** An event on `track` at virtual time `ts`; callers add the args. */
TraceEvent
event(char phase, const char *cat, std::string name, std::uint64_t track,
      Cycle ts, Cycle dur, std::uint64_t ord)
{
    TraceEvent e;
    e.phase = phase;
    e.cat = cat;
    e.name = std::move(name);
    e.track = track;
    e.ts = ts;
    e.dur = dur;
    e.ord = ord;
    return e;
}

/** Add a task's span args from its trace row; returns bytes moved. */
ByteCount
addSpanArgs(TraceEvent &e, const TaskNode &node, const SnapshotTrace &row)
{
    auto ll = [](auto v) { return static_cast<long long>(v); };
    switch (node.kind) {
    case TaskKind::SpatialComm:
        e.addArg("bytes", ll(row.spatialBytes))
            .addArg("messages", ll(row.spatialMessages));
        return row.spatialBytes;
    case TaskKind::TemporalComm:
        e.addArg("temporal_bytes", ll(row.temporalBytes))
            .addArg("reuse_bytes", ll(row.reuseBytes));
        return row.temporalBytes + row.reuseBytes;
    case TaskKind::DramStream:
        e.addArg("snapshot", node.snapshot)
            .addArg("requests", ll(row.dram.requests))
            .addArg("row_hits", ll(row.dram.rowHits))
            .addArg("row_misses", ll(row.dram.rowMisses))
            .addArg("row_conflicts", ll(row.dram.rowConflicts))
            .addArg("read_bytes", ll(row.dram.readBytes))
            .addArg("write_bytes", ll(row.dram.writeBytes));
        return row.dram.totalBytes();
    case TaskKind::InterChipComm:
        e.addArg("payload_bytes", ll(row.interchipPayloadBytes))
            .addArg("wire_bytes", ll(row.interchipWireBytes));
        return row.interchipPayloadBytes;
    default:
        return 0;
    }
}

} // namespace

void
writeFieldStats(RunResult &result)
{
    StatSet &s = result.stats;
    s.set("cycles.total", static_cast<double>(result.totalCycles));
    s.set("cycles.compute", static_cast<double>(result.computeCycles));
    s.set("cycles.onchip_comm",
          static_cast<double>(result.onChipCommCycles));
    s.set("cycles.offchip", static_cast<double>(result.offChipCycles));
    s.set("cycles.config", static_cast<double>(result.configCycles));
    s.set("pe.utilization", result.peUtilization);
    s.set("ops.total",
          static_cast<double>(result.ops.totalArithmetic()));
    s.set("dram.bytes", static_cast<double>(result.dramTraffic.total()));
    s.set("noc.bytes", static_cast<double>(result.nocBytes));
    auto overwrite = [&s](const StatSet &from) {
        for (const std::string &name : from.names())
            s.set(name, from.get(name));
    };
    overwrite(result.energy.toStats());
    if (result.resilience.enabled)
        overwrite(result.resilience.toStats());
}

void
emitRunTrace(const TaskGraph &graph, const ScheduleResult &sched,
             const RunResult &result)
{
    Tracer &tracer = Tracer::global();
    const bool cluster = !graph.lanes.empty() &&
        graph.lanes.front().kind == LaneKind::Chip;
    if (tracer.metricsEnabled() && !cluster) {
        tracer.addMetric("engine.runs", 1);
        tracer.addMetric("engine.snapshots",
                         static_cast<long long>(result.trace.size()));
        for (const auto &[path, key] : kRegistryFromStats)
            tracer.addMetric(path, static_cast<long long>(
                                       result.stats.get(key)));
        if (result.resilience.enabled) {
            tracer.addMetric("fault.recovery_events",
                             static_cast<long long>(
                                 result.resilience.events.size()));
        }
    }
    if (!tracer.traceEnabled())
        return;

    const std::uint64_t base = Tracer::trackBase();
    const std::uint64_t dram_track = base + Tracer::kDramTrack;
    const std::uint64_t noc_track = base + Tracer::kNocTrack;
    const std::uint64_t fault_track = base + Tracer::kFaultTrack;
    const std::string &an = result.acceleratorName;
    // Column (or, in a cluster, lane) tracks after the fixed ones,
    // clamped into the run's track group.
    auto slot_track = [&](int slot) {
        return base + Tracer::kColumnTrackBase +
            std::min<std::uint64_t>(static_cast<std::uint64_t>(slot),
                                    Tracer::kTracksPerRun -
                                        Tracer::kColumnTrackBase - 1);
    };
    auto start = [&](int id) {
        return sched.tasks[static_cast<std::size_t>(id)].start;
    };

    // Cluster rows are chip-major (chip c's snapshots, then c+1's);
    // a cluster task's lane index is its chip. Each lane gets a track.
    const auto chips = static_cast<std::size_t>(std::count_if(
        graph.lanes.begin(), graph.lanes.end(),
        [](const ResourceLane &l) { return l.kind == LaneKind::Chip; }));
    for (std::size_t li = 0; cluster && li < graph.lanes.size(); ++li)
        tracer.nameTrack(slot_track(static_cast<int>(li)),
                         an + ": " + graph.lanes[li].name());

    for (const TaskNode &node : graph.nodes) {
        const SpanStyle style = spanStyle(node.kind);
        if (style.cat == nullptr)
            continue;
        const auto t = static_cast<std::size_t>(node.snapshot);
        const auto lane = static_cast<std::size_t>(
            graph.lanes[static_cast<std::size_t>(node.lane)].index);
        const SnapshotTrace &row = result.trace[
            cluster ? lane * (result.trace.size() / chips) + t : t];
        const ScheduledTask &st =
            sched.tasks[static_cast<std::size_t>(node.id)];
        const std::uint64_t track = cluster ? slot_track(node.lane)
            : node.kind == TaskKind::DramStream ? dram_track
                                                : slot_track(row.column);
        TraceEvent e = event('X', style.cat, style.name, track, st.start,
                             st.finish - st.start, t);
        const ByteCount bytes = addSpanArgs(e, node, row);
        if (style.always || e.dur > 0 || bytes > 0)
            tracer.record(std::move(e));
    }
    if (cluster)
        return;

    // ---- Chip run: track names, per-snapshot parent spans, counters
    // and instants.
    tracer.nameTrack(dram_track, an + ": dram");
    tracer.nameTrack(noc_track, an + ": noc");
    tracer.nameTrack(base + Tracer::kCacheTrack, an + ": cache");
    if (result.resilience.enabled)
        tracer.nameTrack(fault_track, an + ": faults");
    for (std::size_t t = 0; t < result.trace.size(); ++t) {
        const SnapshotTrace &row = result.trace[t];
        const TaskGraph::SnapshotTasks &st = graph.bySnapshot[t];
        const std::uint64_t ct = slot_track(row.column);
        // Spatial-only mappings run the RNN phase on the tile grid.
        const auto rnn_lane = static_cast<std::size_t>(
            graph.nodes[static_cast<std::size_t>(st.rnn)].lane);
        tracer.nameTrack(
            ct, graph.lanes[rnn_lane].kind == LaneKind::TileColumn
                ? an + ": grid"
                : an + ": col " + std::to_string(row.column));
        const Cycle phase_start =
            std::min(start(st.gnn), start(st.spatial));
        const Cycle begin = std::min(
            phase_start, start(st.temporal != -1 ? st.temporal : st.rnn));
        TraceEvent snap = event('X', "engine",
                                "snapshot " + std::to_string(t), ct,
                                begin, row.rnnDone - begin, t);
        snap.addArg("snapshot", row.snapshot).addArg("column", row.column);
        tracer.record(std::move(snap));
        // Per-class traffic samples render as counter series.
        TraceEvent cls =
            event('C', "noc", "noc-bytes", noc_track, row.gnnDone, 0, t);
        cls.addArg("spatial", static_cast<long long>(row.spatialBytes))
            .addArg("temporal", static_cast<long long>(row.temporalBytes))
            .addArg("reuse", static_cast<long long>(row.reuseBytes));
        tracer.record(std::move(cls));
        if (row.relinkSpan > 0) {
            TraceEvent e = event('i', "noc", "relink-span", noc_track,
                                 phase_start, 0, t);
            e.addArg("span", row.relinkSpan);
            tracer.record(std::move(e));
        }
        if (row.dramRetryRequests > 0) {
            TraceEvent e = event('i', "dram", "dram-retry", dram_track,
                                 row.dramDone, 0, t);
            e.addArg("requests",
                     static_cast<long long>(row.dramRetryRequests))
                .addArg("bytes", static_cast<long long>(row.dramRetryBytes))
                .addArg("cycles",
                        static_cast<long long>(row.dramRetryCycles));
            tracer.record(std::move(e));
        }
    }
    std::uint64_t k = 0;
    for (const RecoveryEvent &ev : result.resilience.events) {
        TraceEvent e = event(
            'i', "fault", ev.kind, fault_track,
            result.trace[static_cast<std::size_t>(ev.snapshot)].rnnDone, 0,
            k++);
        e.addArg("snapshot", ev.snapshot).addArg("detail", ev.detail);
        tracer.record(std::move(e));
    }
}

} // namespace ditile::sim
