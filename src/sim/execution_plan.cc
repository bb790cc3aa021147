/**
 * @file
 * ExecutionPlan assembly, JSON (de)serialization and content hashing.
 *
 * The document format is declared once, by planFields(): each key
 * with its member and its bounds, in emission order. PlanWriter walks
 * it to emit the canonical bytes; PlanReader walks it to parse them,
 * range-checking each value against the members already read.
 *
 * The serialization is canonical: field order is fixed, doubles are
 * emitted with %.17g (strtod round-trips them bit-exactly), and
 * integer-valued doubles print as integers. Two plans are semantically
 * identical iff their serializations are byte-identical, which is what
 * contentHash() keys on and what `ditile_inspect plan --diff` checks.
 */

#include "sim/execution_plan.hh"

#include <cmath>
#include <limits>
#include <type_traits>

#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "sim/plan_cache.hh"
#include "sim/task_graph.hh"
#include "workload/digest.hh"

namespace ditile::sim {

namespace {

/** One enum value and its canonical spelling. */
template <typename E>
struct Token
{
    E value;
    const char *token;
};

constexpr Token<model::AlgoKind> kAlgoTokens[] = {
    {model::AlgoKind::ReAlg, "re"},
    {model::AlgoKind::RaceAlg, "race"},
    {model::AlgoKind::MegaAlg, "mega"},
    {model::AlgoKind::DiTileAlg, "ditile"},
};

constexpr Token<model::GnnAggregator> kAggregatorTokens[] = {
    {model::GnnAggregator::GcnNormalized, "gcn"},
    {model::GnnAggregator::SageMean, "sage"},
    {model::GnnAggregator::GinSum, "gin"},
};

constexpr Token<model::RnnKind> kRnnTokens[] = {
    {model::RnnKind::Lstm, "lstm"},
    {model::RnnKind::Gru, "gru"},
};

constexpr Token<model::Precision> kPrecisionTokens[] = {
    {model::Precision::Fp32, "fp32"},
    {model::Precision::Fp16, "fp16"},
    {model::Precision::Int8, "int8"},
};

constexpr Token<noc::TopologyKind> kTopologyTokens[] = {
    {noc::TopologyKind::Mesh, "mesh"},
    {noc::TopologyKind::Ring, "ring"},
    {noc::TopologyKind::Crossbar, "crossbar"},
    {noc::TopologyKind::Reconfigurable, "reconfigurable"},
};

template <typename T>
constexpr long long kMinOf = std::numeric_limits<T>::min();
template <typename T>
constexpr long long kMaxOf = std::numeric_limits<T>::max();

/** Emits the canonical bytes of the fields it is walked over. */
class PlanWriter
{
  public:
    std::string take() { return std::move(out_); }

    template <typename Fn>
    void
    object(const char *key, Fn &&fields)
    {
        name(key);
        out_ += '{';
        first_ = true;
        fields();
        out_ += '}';
        first_ = false;
    }

    /** Writes every key; a section is written when `emit` is set. */
    bool has(const char *, bool emit = true) const { return emit; }

    void
    text(const char *key, const std::string &value)
    {
        name(key);
        out_ += jsonQuote(value);
    }

    void
    boolean(const char *key, bool value)
    {
        name(key);
        out_ += value ? "true" : "false";
    }

    void
    real(const char *key, double value)
    {
        name(key);
        out_ += jsonNumber(value);
    }

    void rate(const char *key, double value) { real(key, value); }

    void fraction(const char *key, double v, double) { real(key, v); }

    void
    u64(const char *key, std::uint64_t value)
    {
        name(key);
        out_ += std::to_string(value);
    }

    template <typename T>
    void
    integer(const char *key, T value, long long = 0, long long = 0)
    {
        static_assert(std::is_integral_v<T>);
        name(key);
        out_ += std::to_string(value);
    }

    /** An array of integers (or, emit-only, of strings). */
    template <typename T>
    void
    array(const char *key, const std::vector<T> &values, long long = 0,
          long long = 0)
    {
        name(key);
        out_ += '[';
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i)
                out_ += ',';
            if constexpr (std::is_same_v<T, std::string>)
                out_ += jsonQuote(values[i]);
            else
                out_ += std::to_string(values[i]);
        }
        out_ += ']';
    }

    template <typename E, std::size_t N>
    void
    token(const char *key, E value, const Token<E> (&table)[N])
    {
        for (const Token<E> &t : table)
            if (t.value == value)
                return text(key, t.token);
        DITILE_PANIC("no ", key, " token for value ",
                     static_cast<int>(value));
    }

    template <typename E>
    void
    token(const char *key, E value, const char *(*format)(E),
          E (*)(const std::string &))
    {
        text(key, format(value));
    }

    void
    partition(const char *key, const graph::VertexPartition &partition,
              long long)
    {
        std::vector<int> owners(
            static_cast<std::size_t>(partition.numVertices()));
        for (VertexId v = 0; v < partition.numVertices(); ++v)
            owners[static_cast<std::size_t>(v)] = partition.owner(v);
        object(key, [&] {
            integer("parts", partition.numParts());
            array("owners", owners);
        });
    }

    template <typename T, typename Fn>
    void
    list(const char *key, const std::vector<T> &items, Fn &&fields)
    {
        name(key);
        out_ += '[';
        first_ = true;
        for (const T &item : items)
            object(nullptr, [&] { fields(item); });
        out_ += ']';
        first_ = false;
    }

    template <typename T, typename Fn>
    void
    list(const char *key,
         const std::shared_ptr<const std::vector<T>> &items, Fn &&fields)
    {
        static const std::vector<T> empty;
        list(key, items ? *items : empty, fields);
    }

    /** A second copy of a fact already written. */
    template <typename T>
    void
    mirror(const char *key, T value, const char *)
    {
        if constexpr (std::is_same_v<T, bool>)
            boolean(key, value);
        else
            u64(key, value);
    }

    /** Reader-side checks are not evaluated on write. */
    template <typename Fn>
    void check(Fn &&) {}

    /** A section derived from the fields above, never read back. */
    template <typename Fn>
    void
    emitOnly(const char *key, Fn &&fields)
    {
        object(key, [&] { fields(*this); });
    }

  private:
    void
    name(const char *key)
    {
        if (!first_)
            out_ += ',';
        first_ = false;
        if (key) {
            out_ += jsonQuote(key);
            out_ += ':';
        }
    }

    std::string out_;
    bool first_ = true;
};

/** Parses and range-checks the fields it is walked over. */
class PlanReader
{
  public:
    explicit PlanReader(const JsonValue &doc) : obj_(&doc) {}

    template <typename Fn>
    void
    object(const char *key, Fn &&fields)
    {
        const JsonValue *outer = obj_;
        if (key)
            obj_ = &at(key);
        fields();
        obj_ = outer;
    }

    /** Whether an optional key is present in the document. */
    bool has(const char *key, bool = true) const { return obj_->has(key); }

    void text(const char *key, std::string &v) { v = at(key).asString(); }
    void boolean(const char *key, bool &v) { v = at(key).asBool(); }

    /** A finite number (the writer cannot emit NaN/Inf). */
    void
    real(const char *key, double &value)
    {
        value = at(key).asDouble();
        if (!std::isfinite(value))
            DITILE_THROW("plan ", key, " ", value, " is not finite");
    }

    /** A finite, strictly positive rate. */
    void
    rate(const char *key, double &value)
    {
        real(key, value);
        if (!(value > 0.0))
            DITILE_THROW("plan ", key, " ", value, " must be positive");
    }

    /** A fraction in [lo, 1]. */
    void
    fraction(const char *key, double &value, double lo)
    {
        value = at(key).asDouble();
        if (!(value >= lo && value <= 1.0))
            DITILE_THROW("plan ", key, " ", value, " not in [", lo, ", 1]");
    }

    template <typename T>
    void u64(const char *key, T &v) { v = at(key).asUint(); }

    /** An integer in [lo, hi] (by default, the range of T). */
    template <typename T>
    void
    integer(const char *key, T &value, long long lo = kMinOf<T>,
            long long hi = kMaxOf<T>)
    {
        value = static_cast<T>(checkedInt(key, at(key), lo, hi));
    }

    /** An integer array, each item in [lo, hi]. */
    template <typename T>
    void
    array(const char *key, std::vector<T> &values, long long lo = kMinOf<T>,
          long long hi = kMaxOf<T>)
    {
        const auto &items = at(key).items();
        values.clear();
        values.reserve(items.size());
        for (const JsonValue &item : items)
            values.push_back(static_cast<T>(checkedInt(key, item, lo, hi)));
    }

    template <typename E, std::size_t N>
    void
    token(const char *key, E &value, const Token<E> (&table)[N])
    {
        const std::string &token = at(key).asString();
        for (const Token<E> &t : table) {
            if (token == t.token) {
                value = t.value;
                return;
            }
        }
        DITILE_THROW("unknown ", key, " token '", token, "'");
    }

    template <typename E>
    void
    token(const char *key, E &value, const char *(*)(E),
          E (*parse)(const std::string &))
    {
        value = parse(at(key).asString());
    }

    /** A partition whose parts must fit `max_parts` compute slots. */
    void
    partition(const char *key, graph::VertexPartition &partition,
              long long max_parts)
    {
        const JsonValue &v = at(key);
        const auto &owners = v.at("owners").items();
        const long long parts = v.at("parts").asInt();
        if (parts < 0 || parts > max_parts)
            DITILE_THROW("plan partition parts ", parts, " not in [0, ",
                         max_parts, "]");
        // An unused partition (e.g. tilePartition of a temporal-parallel
        // mapping) serializes as zero parts; reconstruct it as default.
        if (parts == 0) {
            partition = {};
            return;
        }
        partition = graph::VertexPartition(
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
    }

    template <typename T, typename Fn>
    void
    list(const char *key, std::vector<T> &items, Fn &&fields)
    {
        const auto &src = at(key).items();
        const JsonValue *outer = obj_;
        items.clear();
        items.reserve(src.size());
        for (const JsonValue &item : src) {
            obj_ = &item;
            T value;
            fields(value);
            items.push_back(std::move(value));
        }
        obj_ = outer;
    }

    template <typename T, typename Fn>
    void
    list(const char *key, std::shared_ptr<const std::vector<T>> &items,
         Fn &&fields)
    {
        auto parsed = std::make_shared<std::vector<T>>();
        list(key, *parsed, fields);
        items = std::move(parsed);
    }

    /** A second copy of the option `source`: the two must agree. */
    template <typename T>
    void
    mirror(const char *key, const T &value, const char *source)
    {
        T copy;
        if constexpr (std::is_same_v<T, bool>)
            copy = at(key).asBool();
        else
            copy = at(key).asUint();
        if (copy != value)
            DITILE_THROW("plan ", key, " ", copy, " disagrees with option ",
                         source, " ", value);
    }

    template <typename Fn>
    void check(Fn &&fn) { fn(); }

    template <typename Fn>
    void emitOnly(const char *, Fn &&) {}

  private:
    const JsonValue &at(const char *key) const { return obj_->at(key); }

    static long long
    checkedInt(const char *key, const JsonValue &v, long long lo,
               long long hi)
    {
        const long long value = v.asInt();
        if (value < lo || value > hi)
            DITILE_THROW("plan ", key, " ", value, " not in [", lo, ", ",
                         hi, "]");
        return value;
    }

    const JsonValue *obj_;
};

/** The derived task-graph skeleton (scheduler input). */
void
taskGraphFields(PlanWriter &w, const TaskGraph &tg)
{
    std::vector<std::string> lanes;
    lanes.reserve(tg.lanes.size());
    for (const auto &lane : tg.lanes)
        lanes.push_back(lane.name());
    w.array("lanes", lanes);
    w.list("nodes", tg.nodes, [&](const TaskNode &n) {
        w.integer("id", n.id);
        w.text("kind", taskKindToken(n.kind));
        w.integer("snapshot", n.snapshot);
        w.integer("lane", n.lane);
    });
    std::vector<int> flat_edges;
    flat_edges.reserve(tg.edges.size() * 2);
    for (const auto &[u, v] : tg.edges) {
        flat_edges.push_back(u);
        flat_edges.push_back(v);
    }
    w.array("edges", flat_edges);
}

/**
 * The plan document, declared once: each key with its member and the
 * bounds the reader enforces, in emission order. A bound may read
 * members declared before it; the reader has filled those in.
 */
template <typename Io, typename Plan>
void
planFields(Io &io, Plan &plan)
{
    // Format 2 added the "overlap" option and the derived "task_graph"
    // section; format-1 documents still load (overlap defaults off).
    // Format 3 adds the "scaleout" section for multi-chip plans;
    // single-chip plans keep serializing as format 2. The writer
    // derives the format; the reader only range-checks it.
    int format = plan.scaleout.enabled() ? 3 : 2;
    io.integer("plan_format", format, 1, 3);
    io.text("accelerator", plan.acceleratorName);
    io.text("workload", plan.workloadName);
    // Documents predating the digest field load with key 0.
    if (io.has("workload_digest"))
        io.u64("workload_digest", plan.workloadDigest);

    // Hardware sizes become allocations, loop bounds and divisors:
    // each is bounded so a hostile document costs a typed error, not
    // a crash or an unbounded allocation. The caps sit far above any
    // modeled instance (the paper's chip is a 16x16 grid of 16x16-MAC
    // tiles).
    constexpr int kMaxGridSide = 128;
    constexpr int kMaxPerTile = 256;
    constexpr int kIntMax = std::numeric_limits<int>::max();
    auto &hw = plan.hw;
    io.object("hw", [&] {
        io.integer("tile_rows", hw.tileRows, 1, kMaxGridSide);
        io.integer("tile_cols", hw.tileCols, 1, kMaxGridSide);
        io.integer("pes_per_tile", hw.pesPerTile, 1, kMaxPerTile);
        io.integer("macs_per_pe", hw.macsPerPe, 1, kMaxPerTile);
        io.rate("frequency_ghz", hw.frequencyGhz);
        io.u64("dist_buffer_bytes", hw.distBufferBytes);
        io.u64("reuse_fifo_bytes", hw.reuseFifoBytes);
        io.u64("local_buffer_bytes", hw.localBufferBytes);
        io.u64("per_snapshot_config_cycles", hw.perSnapshotConfigCycles);
        io.object("noc", [&] {
            io.integer("rows", hw.noc.rows, 1, kMaxGridSide);
            io.integer("cols", hw.noc.cols, 1, kMaxGridSide);
            io.integer("link_bytes_per_cycle", hw.noc.linkBytesPerCycle,
                       1, kIntMax);
            io.u64("router_latency_cycles", hw.noc.routerLatencyCycles);
            io.token("topology", hw.noc.topology, kTopologyTokens);
            io.integer("relink_span", hw.noc.reLinkSpan, 1, kMaxGridSide);
        });
        io.object("dram", [&] {
            io.integer("channels", hw.dram.channels, 1, 1024);
            io.integer("banks_per_channel", hw.dram.banksPerChannel, 1,
                       1024);
            io.integer("row_bytes", hw.dram.rowBytes, 1, kIntMax);
            io.u64("row_hit_cycles", hw.dram.rowHitCycles);
            io.u64("row_miss_cycles", hw.dram.rowMissCycles);
            io.u64("row_conflict_cycles", hw.dram.rowConflictCycles);
            io.rate("channel_bytes_per_cycle",
                    hw.dram.channelBytesPerCycle);
        });
        auto &table = hw.energyTable;
        io.object("energy", [&] {
            io.real("fp32_add_pj", table.fp32AddPj);
            io.real("fp32_mul_pj", table.fp32MulPj);
            io.real("fp32_mac_pj", table.fp32MacPj);
            io.real("activation_pj", table.activationPj);
            io.real("sram_small_pj", table.sramSmallPjPerByte);
            io.real("sram_medium_pj", table.sramMediumPjPerByte);
            io.real("sram_large_pj", table.sramLargePjPerByte);
            io.real("noc_link_pj", table.nocLinkPjPerByte);
            io.real("noc_router_pj", table.nocRouterPjPerByte);
            io.real("dram_pj", table.dramPjPerByte);
            io.real("dram_activate_pj", table.dramActivatePj);
            io.real("reconfig_event_pj", table.reconfigEventPj);
            io.real("control_per_op_pj", table.controlPerOpPj);
            io.real("control_overhead_fraction",
                    table.controlOverheadFraction);
        });
    });

    constexpr int kMaxWidth = 1 << 16;
    auto &mc = plan.modelConfig;
    io.object("model", [&] {
        io.array("gcn_dims", mc.gcnDims, 1, kMaxWidth);
        io.check([&] {
            if (mc.gcnDims.empty() || mc.gcnDims.size() > 64)
                DITILE_THROW("plan model has ", mc.gcnDims.size(),
                             " GCN layers (want 1 to 64)");
        });
        io.integer("lstm_hidden", mc.lstmHidden, 1, kMaxWidth);
        io.integer("bytes_per_value", mc.bytesPerValue, 1, 16);
        io.token("aggregator", mc.aggregator, kAggregatorTokens);
        io.token("rnn", mc.rnn, kRnnTokens);
        io.token("precision", mc.precision, kPrecisionTokens);
    });

    // The mapping indexes the tile grid and the NoC, so it is
    // range-checked against the document's own hw (and, below the
    // snapshots, their count): a hostile document is rejected here,
    // not by a device model.
    io.check([&] {
        if (1ll * hw.tileRows * hw.tileCols >
            1ll * hw.noc.rows * hw.noc.cols)
            DITILE_THROW("plan tile grid does not fit its NoC");
    });
    auto &mapping = plan.mapping;
    io.object("mapping", [&] {
        io.boolean("spatial_only", mapping.spatialOnly);
        io.partition("row_partition", mapping.rowPartition, hw.tileRows);
        io.array("snapshot_column", mapping.snapshotColumn, 0,
                hw.tileCols - 1);
        io.partition("tile_partition", mapping.tilePartition,
                     1ll * hw.tileRows * hw.tileCols);
    });

    // A kernel's share of a tile must keep at least one MAC unit.
    const double min_mac_fraction = 1.0 / hw.macsPerTile();
    auto &options = plan.options;
    io.object("options", [&] {
        io.token("algo", options.algo, kAlgoTokens);
        io.fraction("cross_fetch_fraction",
                    options.accounting.crossFetchFraction, 0.0);
        io.fraction("cached_intermediate_fraction",
                    options.accounting.cachedIntermediateFraction, 0.0);
        io.fraction("uncached_intermediate_fraction",
                    options.accounting.uncachedIntermediateFraction, 0.0);
        io.fraction("gnn_mac_fraction", options.gnnMacFraction,
                    min_mac_fraction);
        io.fraction("rnn_mac_fraction", options.rnnMacFraction,
                    min_mac_fraction);
        // "rnn_separate_resource" (a knob no timeline read) is ignored
        // when present, so documents written by earlier builds load.
        io.boolean("global_gnn_barrier", options.globalGnnBarrier);
        io.boolean("reuse_fifo_forwarding", options.reuseFifoForwarding);
        io.u64("reconfig_events_per_snapshot",
               options.reconfigEventsPerSnapshot);
        io.real("dram_traffic_scale", options.dramTrafficScale);
        io.real("compute_energy_scale", options.computeEnergyScale);
        io.real("onchip_energy_scale", options.onChipEnergyScale);
        io.real("offchip_energy_scale", options.offChipEnergyScale);
        io.boolean("detailed_tile_timing", options.detailedTileTiming);
        io.boolean("adaptive_relink", options.adaptiveRelink);
        // Format-1 documents predate the task-graph scheduler: they
        // load with the staged timeline (overlap off).
        if (io.has("overlap"))
            io.boolean("overlap", options.overlap);
    });

    auto &tiling = plan.parallel.tiling;
    auto &par = plan.parallel.parallelism;
    io.object("parallel", [&] {
        io.object("tiling", [&] {
            io.integer("tiling_factor", tiling.tilingFactor);
            io.real("dram_access_units", tiling.dramAccessUnits);
            io.real("avg_subgraph_vertices", tiling.avgSubgraphVertices);
            io.real("avg_subgraph_edges", tiling.avgSubgraphEdges);
            io.real("refetch_factor", tiling.refetchFactor);
            io.real("measured_cross", tiling.measuredCross);
        });
        io.object("parallelism", [&] {
            io.integer("snapshot_groups", par.snapshotGroups);
            io.integer("vertex_parts", par.vertexParts);
            io.integer("snapshots_per_group", par.snapshotsPerGroup);
            io.integer("vertices_per_part", par.verticesPerPart);
            io.real("tcomm", par.tcomm);
            io.real("rfscomm", par.rfscomm);
            io.real("recomm", par.recomm);
            io.real("total_comm_units", par.totalCommUnits);
        });
    });

    io.list("groups", plan.groups, [&](auto &group) {
        io.integer("id", group.groupId);
        io.integer("snap_begin", group.snapshotBegin);
        io.integer("snap_end", group.snapshotEnd);
        io.integer("vertex_part", group.vertexPart);
    });

    // The Re-Link schedule (Figure-5 steps (8)-(9)) is written from
    // the options the engine reads, and must agree with them on load.
    io.object("relink", [&] {
        io.mirror("adaptive", options.adaptiveRelink, "adaptive_relink");
        io.mirror("reconfig_events_per_snapshot",
                  options.reconfigEventsPerSnapshot,
                  "reconfig_events_per_snapshot");
    });

    // Plans serialized before the fault model existed carry no
    // "faults" key; they load as fault-free.
    auto &faults = plan.faults;
    if (io.has("faults")) {
        io.object("faults", [&] {
            io.u64("seed", faults.seed);
            io.real("dram_retry_fraction", faults.dramRetryFraction);
            io.u64("noc_backoff", faults.nocBackoffCycles);
            io.integer("noc_retries", faults.nocMaxRetries);
            io.list("events", faults.events, [&](auto &ev) {
                io.token("kind", ev.kind, faultKindToken,
                         faultKindFromToken);
                io.integer("snapshot", ev.snapshot);
                io.integer("row", ev.row);
                io.integer("col", ev.col);
                io.integer("channel", ev.channel);
            });
        });
    }

    // Format-2 (and earlier) documents carry no "scaleout" key; they
    // load as single-chip plans.
    auto &so = plan.scaleout;
    if (io.has("scaleout", so.enabled())) {
        io.object("scaleout", [&] {
            io.integer("chips", so.chips, 2, 1024);
            io.object("interchip", [&] {
                io.real("bandwidth_gbps", so.link.bandwidthGbps);
                io.real("latency_ns", so.link.latencyNs);
                io.integer("packet_bytes", so.link.packetBytes, 1,
                           kIntMax);
                io.u64("packet_header_bytes", so.link.packetHeaderBytes);
                io.check([&] {
                    noc::checkInterChipLink(so.link, hw.frequencyGhz);
                });
            });
            io.integer("chunk_span", so.chunkSpan, 1, kMaxOf<VertexId>);
            io.array("chip_of_chunk", so.chipOfChunk);
        });
    }

    // Derived entirely from the fields above and ignored on load:
    // serialized so plan documents are self-describing for external
    // tooling and so the content hash pins the DAG shape alongside
    // the knobs that induce it.
    io.emitOnly("task_graph", [&](PlanWriter &w) {
        taskGraphFields(w, buildTaskGraph(plan));
    });

    // Snapshot plans index per-vertex state and per-layer model
    // dimensions: every vertex id must lie in the partition's range and
    // every snapshot must plan each GCN layer of the model.
    const long long vertices = mapping.spatialOnly
        ? mapping.tilePartition.numVertices()
        : mapping.rowPartition.numVertices();
    const std::size_t layers = mc.gcnDims.size();
    io.list("snapshots", plan.snapshots, [&](auto &snap) {
        io.boolean("full_recompute", snap.fullRecompute);
        io.u64("adjacency_updates", snap.adjacencyUpdates);
        io.array("rnn_vertices", snap.rnnVertices, 0, vertices - 1);
        io.list("gcn", snap.gcn, [&](auto &layer) {
            io.integer("gather_edges", layer.gatherEdges);
            io.integer("unique_inputs", layer.uniqueInputs);
            io.array("vertices", layer.vertices, 0, vertices - 1);
        });
        io.check([&] {
            if (snap.gcn.size() != layers)
                DITILE_THROW("plan snapshot has ", snap.gcn.size(),
                             " GCN layers, the model ", layers);
        });
    });
    io.check([&] {
        if (!mapping.spatialOnly &&
            mapping.snapshotColumn.size() !=
                static_cast<std::size_t>(plan.numSnapshots()))
            DITILE_THROW("plan snapshot_column does not cover every "
                         "snapshot");
    });
}

} // namespace

std::string
ExecutionPlan::toJson() const
{
    PlanWriter writer;
    writer.object(nullptr, [&] { planFields(writer, *this); });
    return writer.take();
}

ExecutionPlan
ExecutionPlan::fromJson(const std::string &text)
{
    const JsonValue doc = JsonValue::parse(text);
    ExecutionPlan plan;
    PlanReader reader(doc);
    reader.object(nullptr, [&] { planFields(reader, plan); });
    return plan;
}

std::uint64_t
ExecutionPlan::contentHash() const
{
    // Equal hash <=> byte-identical canonical form (modulo collisions).
    return fnv1a(toJson());
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
        TraceEvent ev;
        ev.addArg("key", hex64(plan.workloadDigest));
        tracer.stepSpan("plan", "workload-digest-key", plan_track,
                        std::move(ev));
    }
    plan.hw = hw;
    plan.modelConfig = model_config;
    plan.mapping = mapping;
    plan.options = options;
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
