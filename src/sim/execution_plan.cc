/**
 * @file
 * ExecutionPlan assembly, JSON (de)serialization and content hashing.
 *
 * The serialization is canonical: field order is fixed, doubles are
 * emitted with %.17g (strtod round-trips them bit-exactly), and
 * integer-valued doubles print as integers. Two plans are semantically
 * identical iff their serializations are byte-identical, which is what
 * contentHash() keys on and what `ditile_inspect plan --diff` checks.
 */

#include "sim/execution_plan.hh"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "sim/plan_cache.hh"
#include "sim/task_graph.hh"
#include "workload/digest.hh"

namespace ditile::sim {

namespace {

// ---- Canonical enum spellings. ----

const char *
algoToken(model::AlgoKind kind)
{
    switch (kind) {
      case model::AlgoKind::ReAlg: return "re";
      case model::AlgoKind::RaceAlg: return "race";
      case model::AlgoKind::MegaAlg: return "mega";
      case model::AlgoKind::DiTileAlg: return "ditile";
    }
    return "ditile";
}

model::AlgoKind
algoFromToken(const std::string &token)
{
    if (token == "re")
        return model::AlgoKind::ReAlg;
    if (token == "race")
        return model::AlgoKind::RaceAlg;
    if (token == "mega")
        return model::AlgoKind::MegaAlg;
    if (token == "ditile")
        return model::AlgoKind::DiTileAlg;
    DITILE_THROW("unknown algo token '", token, "'");
}

const char *
aggregatorToken(model::GnnAggregator kind)
{
    switch (kind) {
      case model::GnnAggregator::GcnNormalized: return "gcn";
      case model::GnnAggregator::SageMean: return "sage";
      case model::GnnAggregator::GinSum: return "gin";
    }
    return "gcn";
}

model::GnnAggregator
aggregatorFromToken(const std::string &token)
{
    if (token == "gcn")
        return model::GnnAggregator::GcnNormalized;
    if (token == "sage")
        return model::GnnAggregator::SageMean;
    if (token == "gin")
        return model::GnnAggregator::GinSum;
    DITILE_THROW("unknown aggregator token '", token, "'");
}

const char *
rnnToken(model::RnnKind kind)
{
    return kind == model::RnnKind::Gru ? "gru" : "lstm";
}

model::RnnKind
rnnFromToken(const std::string &token)
{
    if (token == "lstm")
        return model::RnnKind::Lstm;
    if (token == "gru")
        return model::RnnKind::Gru;
    DITILE_THROW("unknown rnn token '", token, "'");
}

const char *
precisionToken(model::Precision precision)
{
    switch (precision) {
      case model::Precision::Fp32: return "fp32";
      case model::Precision::Fp16: return "fp16";
      case model::Precision::Int8: return "int8";
    }
    return "fp32";
}

model::Precision
precisionFromToken(const std::string &token)
{
    if (token == "fp32")
        return model::Precision::Fp32;
    if (token == "fp16")
        return model::Precision::Fp16;
    if (token == "int8")
        return model::Precision::Int8;
    DITILE_THROW("unknown precision token '", token, "'");
}

const char *
topologyToken(noc::TopologyKind kind)
{
    switch (kind) {
      case noc::TopologyKind::Mesh: return "mesh";
      case noc::TopologyKind::Ring: return "ring";
      case noc::TopologyKind::Crossbar: return "crossbar";
      case noc::TopologyKind::Reconfigurable: return "reconfigurable";
    }
    return "mesh";
}

noc::TopologyKind
topologyFromToken(const std::string &token)
{
    if (token == "mesh")
        return noc::TopologyKind::Mesh;
    if (token == "ring")
        return noc::TopologyKind::Ring;
    if (token == "crossbar")
        return noc::TopologyKind::Crossbar;
    if (token == "reconfigurable")
        return noc::TopologyKind::Reconfigurable;
    DITILE_THROW("unknown topology token '", token, "'");
}

// ---- Emission helpers. ----

/** %.17g double formatting; integral values print as integers. */
std::string
fmtDouble(double value)
{
    char buf[64];
    if (!std::isfinite(value))
        return "null";
    if (value == static_cast<double>(static_cast<long long>(value)) &&
        std::fabs(value) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(value));
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", value);
    }
    return buf;
}

/** Key-value stream with automatic comma placement. */
class Emitter
{
  public:
    explicit Emitter(std::ostringstream &out) : out_(out) {}

    void
    open(const char *key = nullptr)
    {
        comma();
        if (key)
            out_ << jsonQuote(key) << ":";
        out_ << "{";
        first_ = true;
    }

    void
    close()
    {
        out_ << "}";
        first_ = false;
    }

    void
    raw(const char *key, const std::string &value)
    {
        comma();
        out_ << jsonQuote(key) << ":" << value;
    }

    void kv(const char *key, const std::string &v)
    {
        raw(key, jsonQuote(v));
    }
    void kv(const char *key, const char *v) { raw(key, jsonQuote(v)); }
    void kv(const char *key, bool v) { raw(key, v ? "true" : "false"); }
    void kv(const char *key, double v) { raw(key, fmtDouble(v)); }
    void
    kv(const char *key, long long v)
    {
        raw(key, std::to_string(v));
    }
    void
    kvU(const char *key, std::uint64_t v)
    {
        raw(key, std::to_string(v));
    }

    template <typename T>
    void
    intArray(const char *key, const std::vector<T> &values)
    {
        comma();
        out_ << jsonQuote(key) << ":[";
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i)
                out_ << ",";
            out_ << static_cast<long long>(values[i]);
        }
        out_ << "]";
    }

    std::ostringstream &stream() { return out_; }

    void
    comma()
    {
        if (!first_)
            out_ << ",";
        first_ = false;
    }

  private:
    std::ostringstream &out_;
    bool first_ = true;
};

void
emitPartition(Emitter &e, const char *key,
              const graph::VertexPartition &partition)
{
    e.open(key);
    e.kv("parts", static_cast<long long>(partition.numParts()));
    std::vector<int> owners(
        static_cast<std::size_t>(partition.numVertices()));
    for (VertexId v = 0; v < partition.numVertices(); ++v)
        owners[static_cast<std::size_t>(v)] = partition.owner(v);
    e.intArray("owners", owners);
    e.close();
}

/** Parse a partition whose parts must fit `max_parts` compute slots. */
graph::VertexPartition
parsePartition(const JsonValue &v, long long max_parts)
{
    const auto &owners = v.at("owners").items();
    const long long parts = v.at("parts").asInt();
    if (parts < 0 || parts > max_parts)
        DITILE_THROW("plan partition parts ", parts, " not in [0, ",
                     max_parts, "]");
    // An unused partition (e.g. tilePartition of a temporal-parallel
    // mapping) serializes as zero parts; reconstruct it as default.
    if (parts == 0)
        return {};
    graph::VertexPartition partition(
        static_cast<VertexId>(owners.size()), static_cast<int>(parts));
    for (std::size_t i = 0; i < owners.size(); ++i) {
        const long long owner = owners[i].asInt();
        if (owner == kInvalidTile)
            continue;
        if (owner < 0 || owner >= parts)
            DITILE_THROW("plan partition owner ", owner, " not in [0, ",
                         parts, ")");
        partition.assign(static_cast<VertexId>(i),
                         static_cast<int>(owner));
    }
    return partition;
}

template <typename T>
std::vector<T>
parseIntArray(const JsonValue &v)
{
    std::vector<T> out;
    out.reserve(v.items().size());
    for (const auto &item : v.items())
        out.push_back(static_cast<T>(item.asInt()));
    return out;
}

/** An integer member of `obj` that must lie in [lo, hi]. */
int
intIn(const JsonValue &obj, const char *key, int lo, int hi)
{
    const long long value = obj.at(key).asInt();
    if (value < lo || value > hi)
        DITILE_THROW("plan ", key, " ", value, " not in [", lo, ", ",
                     hi, "]");
    return static_cast<int>(value);
}

/** A finite, strictly positive rate member of `obj`. */
double
positiveRate(const JsonValue &obj, const char *key)
{
    const double value = obj.at(key).asDouble();
    if (!(value > 0.0) || !std::isfinite(value))
        DITILE_THROW("plan ", key, " ", value, " must be positive");
    return value;
}

/** A fraction member of `obj` that must lie in [lo, 1]. */
double
fractionFrom(const JsonValue &obj, const char *key, double lo)
{
    const double value = obj.at(key).asDouble();
    if (!(value >= lo && value <= 1.0))
        DITILE_THROW("plan ", key, " ", value, " not in [", lo, ", 1]");
    return value;
}

/** A vertex-id array, each id range-checked against [0, vertices). */
std::vector<VertexId>
parseVertexIds(const JsonValue &v, VertexId vertices)
{
    for (const auto &item : v.items())
        if (item.asInt() < 0 || item.asInt() >= vertices)
            DITILE_THROW("plan vertex ", item.asInt(), " not in [0, ",
                         vertices, ")");
    return parseIntArray<VertexId>(v);
}

} // namespace

std::string
ExecutionPlan::toJson() const
{
    std::ostringstream out;
    Emitter e(out);
    e.open();
    // Format 2 added the "overlap" option and the derived "task_graph"
    // section; format-1 documents still load (overlap defaults off).
    // Format 3 adds the "scaleout" section for multi-chip plans;
    // single-chip plans keep serializing as format 2 byte-identically.
    e.kv("plan_format", scaleout.enabled() ? 3ll : 2ll);
    e.kv("accelerator", acceleratorName);
    e.kv("workload", workloadName);
    e.kvU("workload_digest", workloadDigest);

    // ---- Hardware. ----
    e.open("hw");
    e.kv("tile_rows", static_cast<long long>(hw.tileRows));
    e.kv("tile_cols", static_cast<long long>(hw.tileCols));
    e.kv("pes_per_tile", static_cast<long long>(hw.pesPerTile));
    e.kv("macs_per_pe", static_cast<long long>(hw.macsPerPe));
    e.kv("frequency_ghz", hw.frequencyGhz);
    e.kvU("dist_buffer_bytes", hw.distBufferBytes);
    e.kvU("reuse_fifo_bytes", hw.reuseFifoBytes);
    e.kvU("local_buffer_bytes", hw.localBufferBytes);
    e.kvU("per_snapshot_config_cycles", hw.perSnapshotConfigCycles);
    e.open("noc");
    e.kv("rows", static_cast<long long>(hw.noc.rows));
    e.kv("cols", static_cast<long long>(hw.noc.cols));
    e.kv("link_bytes_per_cycle",
         static_cast<long long>(hw.noc.linkBytesPerCycle));
    e.kvU("router_latency_cycles", hw.noc.routerLatencyCycles);
    e.kv("topology", topologyToken(hw.noc.topology));
    e.kv("relink_span", static_cast<long long>(hw.noc.reLinkSpan));
    e.close();
    e.open("dram");
    e.kv("channels", static_cast<long long>(hw.dram.channels));
    e.kv("banks_per_channel",
         static_cast<long long>(hw.dram.banksPerChannel));
    e.kvU("row_bytes", hw.dram.rowBytes);
    e.kvU("row_hit_cycles", hw.dram.rowHitCycles);
    e.kvU("row_miss_cycles", hw.dram.rowMissCycles);
    e.kvU("row_conflict_cycles", hw.dram.rowConflictCycles);
    e.kv("channel_bytes_per_cycle", hw.dram.channelBytesPerCycle);
    e.close();
    e.open("energy");
    e.kv("fp32_add_pj", hw.energyTable.fp32AddPj);
    e.kv("fp32_mul_pj", hw.energyTable.fp32MulPj);
    e.kv("fp32_mac_pj", hw.energyTable.fp32MacPj);
    e.kv("activation_pj", hw.energyTable.activationPj);
    e.kv("sram_small_pj", hw.energyTable.sramSmallPjPerByte);
    e.kv("sram_medium_pj", hw.energyTable.sramMediumPjPerByte);
    e.kv("sram_large_pj", hw.energyTable.sramLargePjPerByte);
    e.kv("noc_link_pj", hw.energyTable.nocLinkPjPerByte);
    e.kv("noc_router_pj", hw.energyTable.nocRouterPjPerByte);
    e.kv("dram_pj", hw.energyTable.dramPjPerByte);
    e.kv("dram_activate_pj", hw.energyTable.dramActivatePj);
    e.kv("reconfig_event_pj", hw.energyTable.reconfigEventPj);
    e.kv("control_per_op_pj", hw.energyTable.controlPerOpPj);
    e.kv("control_overhead_fraction",
         hw.energyTable.controlOverheadFraction);
    e.close();
    e.close();

    // ---- Model shape. ----
    e.open("model");
    e.intArray("gcn_dims", modelConfig.gcnDims);
    e.kv("lstm_hidden", static_cast<long long>(modelConfig.lstmHidden));
    e.kv("bytes_per_value",
         static_cast<long long>(modelConfig.bytesPerValue));
    e.kv("aggregator", aggregatorToken(modelConfig.aggregator));
    e.kv("rnn", rnnToken(modelConfig.rnn));
    e.kv("precision", precisionToken(modelConfig.precision));
    e.close();

    // ---- Mapping. ----
    e.open("mapping");
    e.kv("spatial_only", mapping.spatialOnly);
    emitPartition(e, "row_partition", mapping.rowPartition);
    e.intArray("snapshot_column", mapping.snapshotColumn);
    emitPartition(e, "tile_partition", mapping.tilePartition);
    e.close();

    // ---- Engine options. ----
    e.open("options");
    e.kv("algo", algoToken(options.algo));
    e.kv("cross_fetch_fraction",
         options.accounting.crossFetchFraction);
    e.kv("cached_intermediate_fraction",
         options.accounting.cachedIntermediateFraction);
    e.kv("uncached_intermediate_fraction",
         options.accounting.uncachedIntermediateFraction);
    e.kv("gnn_mac_fraction", options.gnnMacFraction);
    e.kv("rnn_mac_fraction", options.rnnMacFraction);
    e.kv("global_gnn_barrier", options.globalGnnBarrier);
    e.kv("reuse_fifo_forwarding", options.reuseFifoForwarding);
    e.kvU("reconfig_events_per_snapshot",
          options.reconfigEventsPerSnapshot);
    e.kv("dram_traffic_scale", options.dramTrafficScale);
    e.kv("compute_energy_scale", options.computeEnergyScale);
    e.kv("onchip_energy_scale", options.onChipEnergyScale);
    e.kv("offchip_energy_scale", options.offChipEnergyScale);
    e.kv("detailed_tile_timing", options.detailedTileTiming);
    e.kv("adaptive_relink", options.adaptiveRelink);
    e.kv("overlap", options.overlap);
    e.close();

    // ---- Algorithm-1 strategy. ----
    e.open("parallel");
    e.open("tiling");
    e.kv("tiling_factor",
         static_cast<long long>(parallel.tiling.tilingFactor));
    e.kv("dram_access_units", parallel.tiling.dramAccessUnits);
    e.kv("avg_subgraph_vertices",
         parallel.tiling.avgSubgraphVertices);
    e.kv("avg_subgraph_edges", parallel.tiling.avgSubgraphEdges);
    e.kv("refetch_factor", parallel.tiling.refetchFactor);
    e.kv("measured_cross", parallel.tiling.measuredCross);
    e.close();
    e.open("parallelism");
    e.kv("snapshot_groups",
         static_cast<long long>(parallel.parallelism.snapshotGroups));
    e.kv("vertex_parts",
         static_cast<long long>(parallel.parallelism.vertexParts));
    e.kv("snapshots_per_group",
         static_cast<long long>(
             parallel.parallelism.snapshotsPerGroup));
    e.kv("vertices_per_part",
         static_cast<long long>(parallel.parallelism.verticesPerPart));
    e.kv("tcomm", parallel.parallelism.tcomm);
    e.kv("rfscomm", parallel.parallelism.rfscomm);
    e.kv("recomm", parallel.parallelism.recomm);
    e.kv("total_comm_units", parallel.parallelism.totalCommUnits);
    e.close();
    e.close();

    // ---- Algorithm-2 BDW groups. ----
    e.comma();
    out << jsonQuote("groups") << ":[";
    for (std::size_t i = 0; i < groups.size(); ++i) {
        const auto &group = groups[i];
        if (i)
            out << ",";
        out << "{\"id\":" << group.groupId
            << ",\"snap_begin\":" << group.snapshotBegin
            << ",\"snap_end\":" << group.snapshotEnd
            << ",\"vertex_part\":" << group.vertexPart << "}";
    }
    out << "]";

    // ---- Re-Link reconfiguration schedule. ----
    e.open("relink");
    e.kv("adaptive", relink.adaptive);
    e.kvU("reconfig_events_per_snapshot",
          relink.reconfigEventsPerSnapshot);
    e.close();

    // ---- Fault-injection schedule. ----
    e.open("faults");
    e.kvU("seed", faults.seed);
    e.kv("dram_retry_fraction", faults.dramRetryFraction);
    e.kvU("noc_backoff", faults.nocBackoffCycles);
    e.kv("noc_retries", static_cast<long long>(faults.nocMaxRetries));
    e.comma();
    out << jsonQuote("events") << ":[";
    for (std::size_t i = 0; i < faults.events.size(); ++i) {
        const FaultEvent &ev = faults.events[i];
        if (i)
            out << ",";
        out << "{\"kind\":" << jsonQuote(faultKindToken(ev.kind))
            << ",\"snapshot\":" << ev.snapshot << ",\"row\":" << ev.row
            << ",\"col\":" << ev.col << ",\"channel\":" << ev.channel
            << "}";
    }
    out << "]";
    e.close();

    // ---- Multi-chip scale-out (format 3 only). ----
    if (scaleout.enabled()) {
        e.open("scaleout");
        e.kv("chips", static_cast<long long>(scaleout.chips));
        e.open("interchip");
        e.kv("bandwidth_gbps", scaleout.link.bandwidthGbps);
        e.kv("latency_ns", scaleout.link.latencyNs);
        e.kvU("packet_bytes", scaleout.link.packetBytes);
        e.kvU("packet_header_bytes", scaleout.link.packetHeaderBytes);
        e.close();
        e.kv("chunk_span", static_cast<long long>(scaleout.chunkSpan));
        e.intArray("chip_of_chunk", scaleout.chipOfChunk);
        e.close();
    }

    // ---- Task-graph skeleton (scheduler input). ----
    // Derived entirely from the fields above, re-derived on load
    // (fromJson ignores it): serialized so plan documents are
    // self-describing for external tooling and so the content hash
    // pins the DAG shape alongside the knobs that induce it.
    {
        const TaskGraph tg = buildTaskGraph(*this);
        e.open("task_graph");
        e.comma();
        out << jsonQuote("lanes") << ":[";
        for (std::size_t i = 0; i < tg.lanes.size(); ++i) {
            if (i)
                out << ",";
            out << jsonQuote(tg.lanes[i].name());
        }
        out << "]";
        e.comma();
        out << jsonQuote("nodes") << ":[";
        for (std::size_t i = 0; i < tg.nodes.size(); ++i) {
            const TaskNode &n = tg.nodes[i];
            if (i)
                out << ",";
            out << "{\"id\":" << n.id << ",\"kind\":"
                << jsonQuote(taskKindToken(n.kind))
                << ",\"snapshot\":" << n.snapshot
                << ",\"lane\":" << n.lane << "}";
        }
        out << "]";
        std::vector<int> flat_edges;
        flat_edges.reserve(tg.edges.size() * 2);
        for (const auto &[u, v] : tg.edges) {
            flat_edges.push_back(u);
            flat_edges.push_back(v);
        }
        e.intArray("edges", flat_edges);
        e.close();
    }

    // ---- Redundancy-free per-snapshot plans. ----
    e.comma();
    out << jsonQuote("snapshots") << ":[";
    const std::vector<model::SnapshotPlan> empty;
    const auto &snaps = snapshots ? *snapshots : empty;
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        const auto &snap = snaps[i];
        if (i)
            out << ",";
        Emitter se(out);
        se.open();
        se.kv("full_recompute", snap.fullRecompute);
        se.kvU("adjacency_updates",
               static_cast<std::uint64_t>(snap.adjacencyUpdates));
        se.intArray("rnn_vertices", snap.rnnVertices);
        se.comma();
        out << jsonQuote("gcn") << ":[";
        for (std::size_t l = 0; l < snap.gcn.size(); ++l) {
            const auto &layer = snap.gcn[l];
            if (l)
                out << ",";
            Emitter le(out);
            le.open();
            le.kv("gather_edges",
                  static_cast<long long>(layer.gatherEdges));
            le.kv("unique_inputs",
                  static_cast<long long>(layer.uniqueInputs));
            le.intArray("vertices", layer.vertices);
            le.close();
        }
        out << "]";
        se.close();
    }
    out << "]";
    e.close();
    return out.str();
}

ExecutionPlan
ExecutionPlan::fromJson(const std::string &text)
{
    const JsonValue doc = JsonValue::parse(text);
    const long long format = doc.at("plan_format").asInt();
    if (format != 1 && format != 2 && format != 3)
        DITILE_THROW("unsupported plan_format");

    ExecutionPlan plan;
    plan.acceleratorName = doc.at("accelerator").asString();
    plan.workloadName = doc.at("workload").asString();
    // Documents predating the digest field load with key 0.
    if (const JsonValue *digest = doc.find("workload_digest"))
        plan.workloadDigest = digest->asUint();

    // Hardware sizes become allocations, loop bounds and divisors:
    // each is bounded so a hostile document costs a typed error, not
    // a crash or an unbounded allocation. The caps sit far above any
    // modeled instance (the paper's chip is a 16x16 grid of 16x16-MAC
    // tiles).
    constexpr int kMaxGridSide = 128;
    constexpr int kMaxPerTile = 256;
    const JsonValue &hw = doc.at("hw");
    plan.hw.tileRows = intIn(hw, "tile_rows", 1, kMaxGridSide);
    plan.hw.tileCols = intIn(hw, "tile_cols", 1, kMaxGridSide);
    plan.hw.pesPerTile = intIn(hw, "pes_per_tile", 1, kMaxPerTile);
    plan.hw.macsPerPe = intIn(hw, "macs_per_pe", 1, kMaxPerTile);
    plan.hw.frequencyGhz = positiveRate(hw, "frequency_ghz");
    plan.hw.distBufferBytes = hw.at("dist_buffer_bytes").asUint();
    plan.hw.reuseFifoBytes = hw.at("reuse_fifo_bytes").asUint();
    plan.hw.localBufferBytes = hw.at("local_buffer_bytes").asUint();
    plan.hw.perSnapshotConfigCycles =
        hw.at("per_snapshot_config_cycles").asUint();
    const JsonValue &noc = hw.at("noc");
    plan.hw.noc.rows = intIn(noc, "rows", 1, kMaxGridSide);
    plan.hw.noc.cols = intIn(noc, "cols", 1, kMaxGridSide);
    plan.hw.noc.linkBytesPerCycle = intIn(
        noc, "link_bytes_per_cycle", 1, std::numeric_limits<int>::max());
    plan.hw.noc.routerLatencyCycles =
        noc.at("router_latency_cycles").asUint();
    plan.hw.noc.topology =
        topologyFromToken(noc.at("topology").asString());
    plan.hw.noc.reLinkSpan = intIn(noc, "relink_span", 1, kMaxGridSide);
    const JsonValue &dram = hw.at("dram");
    plan.hw.dram.channels = intIn(dram, "channels", 1, 1024);
    plan.hw.dram.banksPerChannel =
        intIn(dram, "banks_per_channel", 1, 1024);
    plan.hw.dram.rowBytes = static_cast<ByteCount>(
        intIn(dram, "row_bytes", 1, std::numeric_limits<int>::max()));
    plan.hw.dram.rowHitCycles = dram.at("row_hit_cycles").asUint();
    plan.hw.dram.rowMissCycles = dram.at("row_miss_cycles").asUint();
    plan.hw.dram.rowConflictCycles =
        dram.at("row_conflict_cycles").asUint();
    plan.hw.dram.channelBytesPerCycle =
        positiveRate(dram, "channel_bytes_per_cycle");
    const JsonValue &energy = hw.at("energy");
    auto &table = plan.hw.energyTable;
    table.fp32AddPj = energy.at("fp32_add_pj").asDouble();
    table.fp32MulPj = energy.at("fp32_mul_pj").asDouble();
    table.fp32MacPj = energy.at("fp32_mac_pj").asDouble();
    table.activationPj = energy.at("activation_pj").asDouble();
    table.sramSmallPjPerByte = energy.at("sram_small_pj").asDouble();
    table.sramMediumPjPerByte = energy.at("sram_medium_pj").asDouble();
    table.sramLargePjPerByte = energy.at("sram_large_pj").asDouble();
    table.nocLinkPjPerByte = energy.at("noc_link_pj").asDouble();
    table.nocRouterPjPerByte = energy.at("noc_router_pj").asDouble();
    table.dramPjPerByte = energy.at("dram_pj").asDouble();
    table.dramActivatePj = energy.at("dram_activate_pj").asDouble();
    table.reconfigEventPj = energy.at("reconfig_event_pj").asDouble();
    table.controlPerOpPj = energy.at("control_per_op_pj").asDouble();
    table.controlOverheadFraction =
        energy.at("control_overhead_fraction").asDouble();

    constexpr int kMaxWidth = 1 << 16;
    const JsonValue &mc = doc.at("model");
    const auto &dims = mc.at("gcn_dims").items();
    if (dims.empty() || dims.size() > 64)
        DITILE_THROW("plan model has ", dims.size(),
                     " GCN layers (want 1 to 64)");
    for (const JsonValue &dim : dims)
        if (dim.asInt() < 1 || dim.asInt() > kMaxWidth)
            DITILE_THROW("plan GCN width ", dim.asInt(), " not in [1, ",
                         kMaxWidth, "]");
    plan.modelConfig.gcnDims = parseIntArray<int>(mc.at("gcn_dims"));
    plan.modelConfig.lstmHidden = intIn(mc, "lstm_hidden", 1, kMaxWidth);
    plan.modelConfig.bytesPerValue = intIn(mc, "bytes_per_value", 1, 16);
    plan.modelConfig.aggregator =
        aggregatorFromToken(mc.at("aggregator").asString());
    plan.modelConfig.rnn = rnnFromToken(mc.at("rnn").asString());
    plan.modelConfig.precision =
        precisionFromToken(mc.at("precision").asString());

    // The mapping indexes the tile grid and the NoC, so it is
    // range-checked against the document's own hw and snapshot count:
    // a hostile document is rejected here, not by a device model.
    const long long tile_rows = plan.hw.tileRows;
    const long long tile_cols = plan.hw.tileCols;
    if (tile_rows * tile_cols > 1ll * plan.hw.noc.rows * plan.hw.noc.cols)
        DITILE_THROW("plan tile grid does not fit its NoC");
    const JsonValue &mapping = doc.at("mapping");
    plan.mapping.spatialOnly = mapping.at("spatial_only").asBool();
    plan.mapping.rowPartition =
        parsePartition(mapping.at("row_partition"), tile_rows);
    const auto &columns = mapping.at("snapshot_column").items();
    if (!plan.mapping.spatialOnly &&
        columns.size() != doc.at("snapshots").items().size())
        DITILE_THROW("plan snapshot_column does not cover every snapshot");
    for (const JsonValue &col : columns) {
        if (col.asInt() < 0 || col.asInt() >= tile_cols)
            DITILE_THROW("plan snapshot column ", col.asInt(),
                         " not in [0, ", tile_cols, ")");
    }
    plan.mapping.snapshotColumn =
        parseIntArray<int>(mapping.at("snapshot_column"));
    plan.mapping.tilePartition = parsePartition(
        mapping.at("tile_partition"), tile_rows * tile_cols);

    const JsonValue &options = doc.at("options");
    plan.options.algo = algoFromToken(options.at("algo").asString());
    plan.options.accounting.crossFetchFraction =
        fractionFrom(options, "cross_fetch_fraction", 0.0);
    plan.options.accounting.cachedIntermediateFraction =
        fractionFrom(options, "cached_intermediate_fraction", 0.0);
    plan.options.accounting.uncachedIntermediateFraction =
        fractionFrom(options, "uncached_intermediate_fraction", 0.0);
    // A kernel's share of a tile must keep at least one MAC unit.
    const double min_mac_fraction = 1.0 / plan.hw.macsPerTile();
    plan.options.gnnMacFraction =
        fractionFrom(options, "gnn_mac_fraction", min_mac_fraction);
    plan.options.rnnMacFraction =
        fractionFrom(options, "rnn_mac_fraction", min_mac_fraction);
    // "rnn_separate_resource" (a knob no timeline read) is ignored
    // when present, so documents written by earlier builds still load.
    plan.options.globalGnnBarrier =
        options.at("global_gnn_barrier").asBool();
    plan.options.reuseFifoForwarding =
        options.at("reuse_fifo_forwarding").asBool();
    plan.options.reconfigEventsPerSnapshot =
        options.at("reconfig_events_per_snapshot").asUint();
    plan.options.dramTrafficScale =
        options.at("dram_traffic_scale").asDouble();
    plan.options.computeEnergyScale =
        options.at("compute_energy_scale").asDouble();
    plan.options.onChipEnergyScale =
        options.at("onchip_energy_scale").asDouble();
    plan.options.offChipEnergyScale =
        options.at("offchip_energy_scale").asDouble();
    plan.options.detailedTileTiming =
        options.at("detailed_tile_timing").asBool();
    plan.options.adaptiveRelink =
        options.at("adaptive_relink").asBool();
    // Format-1 documents predate the task-graph scheduler: they load
    // with the staged timeline (overlap off).
    if (const JsonValue *overlap = options.find("overlap"))
        plan.options.overlap = overlap->asBool();

    const JsonValue &tiling = doc.at("parallel").at("tiling");
    plan.parallel.tiling.tilingFactor =
        static_cast<int>(tiling.at("tiling_factor").asInt());
    plan.parallel.tiling.dramAccessUnits =
        tiling.at("dram_access_units").asDouble();
    plan.parallel.tiling.avgSubgraphVertices =
        tiling.at("avg_subgraph_vertices").asDouble();
    plan.parallel.tiling.avgSubgraphEdges =
        tiling.at("avg_subgraph_edges").asDouble();
    plan.parallel.tiling.refetchFactor =
        tiling.at("refetch_factor").asDouble();
    plan.parallel.tiling.measuredCross =
        tiling.at("measured_cross").asDouble();
    const JsonValue &par = doc.at("parallel").at("parallelism");
    plan.parallel.parallelism.snapshotGroups =
        static_cast<int>(par.at("snapshot_groups").asInt());
    plan.parallel.parallelism.vertexParts =
        static_cast<int>(par.at("vertex_parts").asInt());
    plan.parallel.parallelism.snapshotsPerGroup =
        static_cast<int>(par.at("snapshots_per_group").asInt());
    plan.parallel.parallelism.verticesPerPart =
        static_cast<int>(par.at("vertices_per_part").asInt());
    plan.parallel.parallelism.tcomm = par.at("tcomm").asDouble();
    plan.parallel.parallelism.rfscomm = par.at("rfscomm").asDouble();
    plan.parallel.parallelism.recomm = par.at("recomm").asDouble();
    plan.parallel.parallelism.totalCommUnits =
        par.at("total_comm_units").asDouble();

    for (const auto &item : doc.at("groups").items()) {
        workload::BalancedGroup group;
        group.groupId = static_cast<int>(item.at("id").asInt());
        group.snapshotBegin =
            static_cast<SnapshotId>(item.at("snap_begin").asInt());
        group.snapshotEnd =
            static_cast<SnapshotId>(item.at("snap_end").asInt());
        group.vertexPart =
            static_cast<int>(item.at("vertex_part").asInt());
        plan.groups.push_back(group);
    }

    const JsonValue &relink = doc.at("relink");
    plan.relink.adaptive = relink.at("adaptive").asBool();
    plan.relink.reconfigEventsPerSnapshot =
        relink.at("reconfig_events_per_snapshot").asUint();

    // Plans serialized before the fault model existed carry no
    // "faults" key; they load as fault-free.
    if (const JsonValue *faults = doc.find("faults")) {
        plan.faults.seed = faults->at("seed").asUint();
        plan.faults.dramRetryFraction =
            faults->at("dram_retry_fraction").asDouble();
        plan.faults.nocBackoffCycles =
            faults->at("noc_backoff").asUint();
        plan.faults.nocMaxRetries =
            static_cast<int>(faults->at("noc_retries").asInt());
        for (const auto &item : faults->at("events").items()) {
            FaultEvent ev;
            ev.kind = faultKindFromToken(item.at("kind").asString());
            ev.snapshot =
                static_cast<SnapshotId>(item.at("snapshot").asInt());
            ev.row = static_cast<int>(item.at("row").asInt());
            ev.col = static_cast<int>(item.at("col").asInt());
            ev.channel = static_cast<int>(item.at("channel").asInt());
            plan.faults.events.push_back(ev);
        }
    }

    // Format-2 (and earlier) documents carry no "scaleout" key; they
    // load as single-chip plans.
    if (const JsonValue *so = doc.find("scaleout")) {
        plan.scaleout.chips = intIn(*so, "chips", 2, 1024);
        const JsonValue &link = so->at("interchip");
        plan.scaleout.link.bandwidthGbps =
            positiveRate(link, "bandwidth_gbps");
        plan.scaleout.link.latencyNs = link.at("latency_ns").asDouble();
        if (!(plan.scaleout.link.latencyNs >= 0.0) ||
            !std::isfinite(plan.scaleout.link.latencyNs))
            DITILE_THROW("plan latency_ns ", plan.scaleout.link.latencyNs,
                         " must be finite and nonnegative");
        plan.scaleout.link.packetBytes = static_cast<ByteCount>(intIn(
            link, "packet_bytes", 1, std::numeric_limits<int>::max()));
        plan.scaleout.link.packetHeaderBytes =
            link.at("packet_header_bytes").asUint();
        plan.scaleout.chunkSpan = intIn(
            *so, "chunk_span", 1, std::numeric_limits<VertexId>::max());
        plan.scaleout.chipOfChunk =
            parseIntArray<int>(so->at("chip_of_chunk"));
    }

    // Snapshot plans index per-vertex state and per-layer model
    // dimensions: every vertex id must lie in the partition's range and
    // every snapshot must plan each GCN layer of the model.
    const VertexId vertices = plan.mapping.spatialOnly
        ? plan.mapping.tilePartition.numVertices()
        : plan.mapping.rowPartition.numVertices();
    const std::size_t layers = plan.modelConfig.gcnDims.size();
    auto snaps = std::make_shared<std::vector<model::SnapshotPlan>>();
    for (const auto &item : doc.at("snapshots").items()) {
        model::SnapshotPlan snap;
        snap.fullRecompute = item.at("full_recompute").asBool();
        snap.adjacencyUpdates = static_cast<std::size_t>(
            item.at("adjacency_updates").asUint());
        snap.rnnVertices =
            parseVertexIds(item.at("rnn_vertices"), vertices);
        if (item.at("gcn").items().size() != layers)
            DITILE_THROW("plan snapshot has ",
                         item.at("gcn").items().size(),
                         " GCN layers, the model ", layers);
        for (const auto &layer_item : item.at("gcn").items()) {
            model::LayerWork layer;
            layer.gatherEdges = static_cast<EdgeId>(
                layer_item.at("gather_edges").asInt());
            layer.uniqueInputs = static_cast<VertexId>(
                layer_item.at("unique_inputs").asInt());
            layer.vertices =
                parseVertexIds(layer_item.at("vertices"), vertices);
            snap.gcn.push_back(std::move(layer));
        }
        snaps->push_back(std::move(snap));
    }
    plan.snapshots = std::move(snaps);
    return plan;
}

std::uint64_t
ExecutionPlan::contentHash() const
{
    // FNV-1a over the canonical serialization: equal hash <=>
    // byte-identical canonical form (modulo collisions).
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : toJson())
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    return h;
}

ExecutionPlan
buildEnginePlan(const graph::DynamicGraph &dg,
                const model::DgnnConfig &model_config,
                const AcceleratorConfig &hw, const MappingSpec &mapping,
                const EngineOptions &options,
                const std::string &accelerator_name, PlanCache *cache)
{
    Tracer &tracer = Tracer::global();
    const std::uint64_t plan_track =
        Tracer::trackBase() + Tracer::kPlanTrack;

    ExecutionPlan plan;
    plan.acceleratorName = accelerator_name;
    plan.workloadName = dg.name();
    // Pure content key (independent of whether digests are enabled),
    // so plan JSON is identical with and without the digest layer.
    plan.workloadDigest =
        workload::loadDigestKey(dg, model_config.numGcnLayers());
    {
        char key[24];
        std::snprintf(key, sizeof(key), "%016llx",
                      static_cast<unsigned long long>(
                          plan.workloadDigest));
        TraceEvent ev;
        ev.addArg("key", std::string(key));
        tracer.stepSpan("plan", "workload-digest-key", plan_track,
                        std::move(ev));
    }
    plan.hw = hw;
    plan.modelConfig = model_config;
    plan.mapping = mapping;
    plan.options = options;
    plan.relink.adaptive = options.adaptiveRelink;
    plan.relink.reconfigEventsPerSnapshot =
        options.reconfigEventsPerSnapshot;
    plan.snapshots = cache
        ? cache->obtain(dg, model_config, options.algo)
        : PlanCache::buildSnapshotPlans(dg, model_config,
                                        options.algo);
    if (tracer.traceEnabled()) {
        tracer.nameTrack(plan_track, accelerator_name + ": plan");
        TraceEvent ev;
        ev.addArg("snapshots", static_cast<long long>(
                      plan.snapshots ? plan.snapshots->size() : 0))
            .addArg("cached", std::string(cache ? "yes" : "no"));
        tracer.stepSpan("plan", "snapshot-planning", plan_track, std::move(ev));
    }
    if (tracer.metricsEnabled())
        tracer.addMetric("plan.builds", 1);
    return plan;
}

} // namespace ditile::sim
