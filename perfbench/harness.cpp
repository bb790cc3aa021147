/**
 * @file
 * perfbench_harness — run one benchmark workload once, in this
 * process, and report its host-time measurements as one JSON line.
 *
 *   perfbench_harness --workload=sweep_cold|serve_durable|scaleout_strong
 *                     --seed=N --workdir=DIR [--trace] [--dump=FILE]
 *
 * Every call into the simulator goes through the libraries' public
 * API, on one caller thread with a one-thread pool. The process-wide
 * caches (DigestCache, CommModelCache) start empty, exactly as in a
 * CLI invocation, which is why perfbench/run.py runs every repetition
 * in a fresh process.
 *
 * --trace times each call into a layer as a host-clock span
 * (steady_clock — never through Tracer, whose planes stay on modeled
 * time), turns the Tracer metrics plane on for the modeled counts, and
 * pre-warms the content-addressed caches in pipeline order, so each
 * piece of work still runs once and is timed at its own layer while
 * the later call hits the cache. Spans are kept in memory and written
 * to DIR/spans.jsonl at exit.
 *
 * --dump=FILE writes the modeled outputs in the exact format of the
 * matching CLI (the ditile_sweep CSV, the ditile_serve --script
 * responses; serve also writes the rendered script to FILE.script).
 * The reported output_hash is FNV-1a over the same text, so a change
 * that moves modeled numbers shows without failing any check.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "core/ditile_accelerator.hh"
#include "core/plan_batch.hh"
#include "graph/datasets.hh"
#include "graph/generator.hh"
#include "serve/checkpoint.hh"
#include "serve/loadgen.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/wal.hh"
#include "sim/baselines.hh"
#include "sim/execution_plan.hh"
#include "sim/plan_cache.hh"
#include "sim/scaleout.hh"
#include "tiling/comm_model.hh"
#include "workload/digest.hh"

using namespace ditile;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsOf(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
microsOf(Clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

std::uint64_t
nanosOf(Clock::duration d)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

/** Nearest-rank percentile of nanosecond samples, in microseconds. */
double
percentileUs(std::vector<std::uint64_t> samples, unsigned pct)
{
    std::sort(samples.begin(), samples.end());
    return static_cast<double>(serve::percentileNearestRank(samples, pct)) /
        1000.0;
}

// ---- Host-clock spans ---------------------------------------------

/** One host-clock interval around a call into a layer. */
struct Span
{
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;        ///< Enclosing span; -1 at top level.
    long long request = -1; ///< Serve script line; -1 elsewhere.
};

/**
 * In-memory span log. A disabled log never reads the clock, so the
 * untraced run pays nothing for the instrumentation sites.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    int
    open(std::string name, long long request = -1)
    {
        if (!enabled_)
            return -1;
        Span span;
        span.name = std::move(name);
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.request = request;
        spans_.push_back(std::move(span));
        const int id = static_cast<int>(spans_.size()) - 1;
        stack_.push_back(id);
        // Last, so the bookkeeping above stays outside the span.
        spans_.back().start = Clock::now();
        return id;
    }

    /** Close the innermost span, optionally naming it only now. */
    void
    close(int id, const char *name = nullptr)
    {
        if (id < 0)
            return;
        Span &span = spans_[static_cast<std::size_t>(id)];
        span.end = Clock::now();
        if (name != nullptr)
            span.name = name;
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span over one call. */
class Scope
{
  public:
    Scope(SpanLog &log, std::string name)
        : log_(log), id_(log.open(std::move(name)))
    {
    }
    ~Scope() { log_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &log_;
    int id_;
};

// ---- One run's measurements ---------------------------------------

struct Report
{
    Clock::time_point firstCall; ///< Start of the timed phase.
    double wallS = 0.0;          ///< Host time of the timed phase.
    double loopS = 0.0;          ///< Seconds the operations ran in.
    std::uint64_t ops = 0;       ///< Lines, grid points or configs.
    std::vector<std::uint64_t> opNs; ///< Latencies of the "query" op.

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    std::string modeled; ///< Modeled outputs in CLI format.
    std::string input;   ///< serve_durable: the rendered script.

    /** Traced-run layer values and RunResult.stats sums. */
    std::map<std::string, double> layer;
    std::map<std::string, double> runStats;
};

/** Count one attempted operation or check; record it when it failed. */
void
attempt(Report &rep, bool ok, const std::string &what)
{
    ++rep.attempted;
    if (ok)
        return;
    ++rep.failed;
    if (rep.failures.size() < 16)
        rep.failures.push_back(what);
}

/** Sum the counters a run reports with the metrics plane on. */
void
addRunStats(Report &rep, const sim::RunResult &r)
{
    static const char *const kKeys[] = {
        "noc.messages", "dram.requests", "dram.row_hits",
        "dram.row_misses", "dram.row_conflicts", "taskgraph.tasks",
        "engine.scratch_snapshots", "interchip.payload_bytes",
        "interchip.transfers", "scaleout.cross_adjacencies"};
    for (const char *key : kKeys)
        rep.runStats[key] += r.stats.get(key);
}

bool
nonzeroWork(const sim::RunResult &r)
{
    return r.totalCycles > 0 && r.ops.totalArithmetic() > 0;
}

// ---- sweep_cold ----------------------------------------------------

/** A fleet member and the update algorithm its plans use. */
struct FleetMember
{
    std::unique_ptr<sim::Accelerator> accel;
    model::AlgoKind algo;
};

/**
 * The ditile_sweep --all-accels fleet, in its order. The algorithms
 * mirror sim/baselines.cc and DiTileAccelerator; the traced run uses
 * them to pre-warm one snapshot-plan set per algorithm, and counts a
 * plan built with another algorithm as a failed check.
 */
std::vector<FleetMember>
makeFleet()
{
    std::vector<FleetMember> fleet;
    fleet.push_back({sim::makeReady(), model::AlgoKind::ReAlg});
    fleet.push_back({sim::makeDgnnBooster(), model::AlgoKind::ReAlg});
    fleet.push_back({sim::makeRace(), model::AlgoKind::RaceAlg});
    fleet.push_back({sim::makeMega(), model::AlgoKind::MegaAlg});
    fleet.push_back({std::make_unique<core::DiTileAccelerator>(),
                     model::AlgoKind::DiTileAlg});
    return fleet;
}

/**
 * Pre-warm the partition digest executePlan() will ask for, resolving
 * owners and slots from the plan exactly as sim/engine.cc does, and
 * only when its Stage-1 fast path would request the digest.
 */
void
warmPartitionDigest(const graph::DynamicGraph &dg,
                    const sim::ExecutionPlan &plan, SpanLog &log)
{
    if (!workload::digestEnabled())
        return;
    const VertexId n = dg.numVertices();
    const bool wanted = std::any_of(
        plan.snapshots->begin(), plan.snapshots->end(),
        [n](const model::SnapshotPlan &sp) {
            return sp.fullRecompute ||
                static_cast<VertexId>(sp.rnnVertices.size()) == n;
        });
    if (!wanted)
        return;
    const sim::MappingSpec &mapping = plan.mapping;
    const int slots = mapping.spatialOnly ? plan.hw.totalTiles()
                                          : plan.hw.tileRows;
    std::vector<int> owners(static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v) {
        owners[static_cast<std::size_t>(v)] = mapping.spatialOnly
            ? mapping.tilePartition.owner(v)
            : mapping.rowPartition.owner(v);
    }
    Scope span(log, "workload.partition_digest");
    workload::DigestCache::global().partition(dg, owners, slots);
}

/**
 * The in-process equivalent of
 *   ditile_sweep --dataset=WD --scale=0.5 --dis=0.02,0.06,0.10
 *                --snapshots=8,16 --all-accels --threads=1 --seed=S
 * One operation is one grid point: generate its graph, plan the fleet
 * against it (DiTile through a SharedFrontEnd, as the sweep's batch
 * planner does), then execute every plan.
 */
void
runSweep(std::uint64_t seed, SpanLog &log, Report &rep)
{
    const model::DgnnConfig mconfig;
    sim::PlanCache plan_cache;
    Table table("sweep");
    table.setHeader({"dataset", "dissimilarity", "snapshots",
                     "accelerator", "cycles", "ops", "dram_bytes",
                     "noc_bytes", "energy_pj", "pe_utilization"});

    rep.firstCall = Clock::now();
    for (const double dis : {0.02, 0.06, 0.10}) {
        for (const SnapshotId snaps : {SnapshotId{8}, SnapshotId{16}}) {
            const auto op_start = Clock::now();
            std::string what = "sweep point dis=" + Table::num(dis, 3) +
                " snapshots=" + std::to_string(snaps);
            bool ok = true;
            try {
                graph::DatasetOptions options;
                options.scale = 0.5;
                options.numSnapshots = snaps;
                options.dissimilarity = dis;
                options.seed = seed;
                graph::DynamicGraph dg;
                {
                    Scope span(log, "graph.generate");
                    dg = graph::makeDataset("WD", options);
                }
                if (log.enabled()) {
                    Scope span(log, "workload.load_digest");
                    workload::DigestCache::global().loads(
                        dg, mconfig.numGcnLayers());
                }
                auto fleet = makeFleet();
                core::SharedFrontEnd shared;
                std::vector<model::AlgoKind> warmed;
                std::vector<sim::ExecutionPlan> plans;
                for (FleetMember &member : fleet) {
                    auto *ditile = dynamic_cast<core::DiTileAccelerator *>(
                        member.accel.get());
                    if (log.enabled()) {
                        if (ditile != nullptr) {
                            {
                                Scope span(log, "workload.load_digest");
                                shared.loads(dg, mconfig);
                            }
                            Scope span(log, "tiling.alg1");
                            shared.strategy(
                                dg, mconfig, ditile->hardware(),
                                ditile->options().parallelismStrategy);
                        }
                        if (std::find(warmed.begin(), warmed.end(),
                                      member.algo) == warmed.end()) {
                            warmed.push_back(member.algo);
                            Scope span(log, "model.snapshot_plan");
                            plan_cache.obtain(dg, mconfig, member.algo);
                        }
                    }
                    sim::ExecutionPlan plan;
                    {
                        Scope span(log, "core.plan_tail");
                        plan = ditile != nullptr
                            ? ditile->plan(dg, mconfig, &plan_cache,
                                           &shared)
                            : member.accel->plan(dg, mconfig,
                                                 &plan_cache);
                    }
                    if (log.enabled()) {
                        // Otherwise the pre-warm built plans nobody
                        // uses and plan_tail paid the real planning.
                        attempt(rep, plan.options.algo == member.algo,
                                what + " " + member.accel->name() +
                                    ": plans with another algorithm "
                                    "than the one pre-warmed");
                    }
                    plan.options.overlap = true;
                    if (log.enabled())
                        warmPartitionDigest(dg, plan, log);
                    plans.push_back(std::move(plan));
                }
                for (const sim::ExecutionPlan &plan : plans) {
                    sim::RunResult r;
                    {
                        Scope span(log, "sim.execute.overlap");
                        r = sim::executePlan(dg, plan, &plan_cache);
                    }
                    if (!nonzeroWork(r)) {
                        ok = false;
                        what += " " + r.acceleratorName +
                            ": zero cycles or ops";
                    }
                    if (log.enabled())
                        addRunStats(rep, r);
                    table.addRow(
                        {"WD", Table::num(dis, 3),
                         Table::integer(static_cast<long long>(snaps)),
                         r.acceleratorName,
                         Table::integer(
                             static_cast<long long>(r.totalCycles)),
                         Table::integer(static_cast<long long>(
                             r.ops.totalArithmetic())),
                         Table::integer(static_cast<long long>(
                             r.dramTraffic.total())),
                         Table::integer(
                             static_cast<long long>(r.nocBytes)),
                         Table::num(r.energy.totalPj(), 0),
                         Table::num(r.peUtilization, 4)});
                }
            } catch (const std::exception &e) {
                ok = false;
                what += ": " + std::string(e.what());
            }
            rep.opNs.push_back(nanosOf(Clock::now() - op_start));
            ++rep.ops;
            attempt(rep, ok, what);
        }
    }
    rep.wallS = secondsOf(Clock::now() - rep.firstCall);
    rep.loopS = rep.wallS;
    rep.modeled = table.headerCsv() + table.rowsCsv();
    rep.layer["sim.plan_cache.hits"] =
        static_cast<double>(plan_cache.hits());
    rep.layer["sim.plan_cache.misses"] =
        static_cast<double>(plan_cache.misses());
}

// ---- scaleout_strong -----------------------------------------------

// bench_scaleout's strong-scaling graph (R-MAT, 8 snapshots, Dis 0.10,
// 128 features), doubled so the timed configs run about as long as
// the other workloads.
constexpr VertexId kScaleoutVertices = 48000;
constexpr EdgeId kScaleoutEdges = 384000;

/**
 * Generate and plan once (set-up), then run DiTile over chips
 * {1, 2, 4, 8} x {overlap, staged} on the default link, sharing one
 * PlanCache. One operation is one configuration.
 */
void
runScaleout(std::uint64_t seed, SpanLog &log, Report &rep)
{
    graph::EvolutionConfig config;
    config.name = "scaleout-strong";
    config.numVertices = kScaleoutVertices;
    config.numEdges = kScaleoutEdges;
    config.numSnapshots = 8;
    config.dissimilarity = 0.10;
    config.featureDim = 128;
    config.seed = seed;
    const graph::DynamicGraph dg = graph::generateDynamicGraph(config);
    const model::DgnnConfig mconfig;
    sim::PlanCache cache;
    core::DiTileAccelerator ditile;
    const sim::ExecutionPlan base = ditile.plan(dg, mconfig, &cache);
    const noc::InterChipLinkConfig link;

    std::string modeled = "chips,timeline,cycles,ops,dram_bytes,"
                          "noc_bytes,energy_pj,interchip_payload_bytes\n";
    std::map<int, Cycle> overlap_cycles;
    rep.firstCall = Clock::now();
    for (const int chips : {1, 2, 4, 8}) {
        for (const bool overlap : {true, false}) {
            const std::string timeline = overlap ? "overlap" : "staged";
            const auto op_start = Clock::now();
            std::string what = "scaleout chips=" + std::to_string(chips) +
                " " + timeline;
            bool ok = true;
            try {
                sim::ExecutionPlan plan = base;
                plan.options.overlap = overlap;
                if (chips > 1) {
                    Scope span(log, "workload.chunk_partition");
                    sim::applyScaleOut(plan, dg, chips, link);
                }
                sim::RunResult r;
                {
                    Scope span(log, (chips > 1 ? "sim.multichip_execute."
                                               : "sim.execute.") +
                                   timeline);
                    r = sim::executePlan(dg, plan, &cache);
                }
                if (!nonzeroWork(r)) {
                    ok = false;
                    what += ": zero cycles or ops";
                }
                if (overlap) {
                    overlap_cycles[chips] = r.totalCycles;
                } else if (overlap_cycles.count(chips) != 0 &&
                           overlap_cycles[chips] > r.totalCycles) {
                    ok = false;
                    what += ": overlap slower than staged";
                }
                if (log.enabled())
                    addRunStats(rep, r);
                modeled += std::to_string(chips) + "," + timeline + "," +
                    Table::integer(static_cast<long long>(r.totalCycles)) +
                    "," +
                    Table::integer(
                        static_cast<long long>(r.ops.totalArithmetic())) +
                    "," +
                    Table::integer(
                        static_cast<long long>(r.dramTraffic.total())) +
                    "," +
                    Table::integer(static_cast<long long>(r.nocBytes)) +
                    "," + Table::num(r.energy.totalPj(), 0) + "," +
                    Table::integer(static_cast<long long>(
                        r.stats.get("interchip.payload_bytes"))) +
                    "\n";
            } catch (const std::exception &e) {
                ok = false;
                what += ": " + std::string(e.what());
            }
            rep.opNs.push_back(nanosOf(Clock::now() - op_start));
            ++rep.ops;
            attempt(rep, ok, what);
        }
    }
    rep.wallS = secondsOf(Clock::now() - rep.firstCall);
    rep.loopS = rep.wallS;
    rep.modeled = modeled;
    rep.layer["sim.plan_cache.hits"] = static_cast<double>(cache.hits());
    rep.layer["sim.plan_cache.misses"] =
        static_cast<double>(cache.misses());
}

// ---- serve_durable -------------------------------------------------

constexpr std::uint64_t kCheckpointEvery = 1000;
// The WAL lives inside the benchmark's checkout, usually on a disk
// where one fsync costs 0.15-6 ms. Under the default `batch` policy
// every 32nd request would then pay the disk, and query p99 would
// measure the disk instead of the program, so the log stays
// OS-buffered (`--wal-sync=off`); checkpoints still fsync it first.
constexpr serve::WalSync kWalSync = serve::WalSync::Off;

double
fileKb(const std::string &path)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ec ? 0.0 : static_cast<double>(size) / 1024.0;
}

/**
 * The default LoadGen schedule rendered as a protocol script and fed
 * line by line through Server::handle() by one closed-loop client,
 * the way `ditile_serve --script --wal --checkpoint
 * --checkpoint-every=1000` runs it. After the last line a fresh server
 * recovers from the newest checkpoint plus the WAL suffix, the way
 * `ditile_serve --restore` does. One operation is one script line;
 * "query" latency is handle() on query lines.
 */
void
runServe(std::uint64_t seed, const std::string &workdir, SpanLog &log,
         Report &rep)
{
    serve::LoadGenConfig load;
    load.seed = seed;
    rep.input =
        serve::LoadGen::renderLines(serve::LoadGen(load).schedule());
    std::vector<std::string> lines;
    {
        std::istringstream in(rep.input);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    const auto hw = sim::AcceleratorConfig::defaults();
    const sim::AcceleratorFactory factory = [hw] {
        return std::unique_ptr<sim::Accelerator>(
            std::make_unique<core::DiTileAccelerator>(hw));
    };
    const serve::ServerOptions options;
    const std::string wal_path = workdir + "/serve.wal";
    const std::string checkpoint_path = workdir + "/serve.ckpt";
    serve::Server server(options, factory);
    server.attachWal(serve::WalWriter::openFresh(wal_path, kWalSync));

    std::vector<std::uint64_t> parse_ns;
    if (log.enabled()) {
        // Parse-only pre-pass: the protocol layer's share of handle().
        // It runs before the timed phase, so the traced run times the
        // same work as the untraced one.
        Scope span(log, "serve.parse");
        for (const std::string &line : lines) {
            if (serve::isNopLine(line))
                continue;
            const auto t0 = Clock::now();
            try {
                serve::parseRequest(line);
            } catch (const std::exception &) {
                // handle() answers the same line with `err parse`.
            }
            parse_ns.push_back(nanosOf(Clock::now() - t0));
        }
    }

    rep.firstCall = Clock::now();
    std::vector<std::uint64_t> hit_ns;
    std::vector<std::uint64_t> miss_ns;
    std::vector<std::uint64_t> event_ns;
    std::vector<std::uint64_t> roll_ns;
    std::vector<std::uint64_t> checkpoint_ns;
    std::uint64_t since_checkpoint = 0;
    const auto loop_start = Clock::now();
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        if (serve::isNopLine(line))
            continue;
        const std::string verb = line.substr(0, line.find(' '));
        const int span =
            log.open("serve." + verb, static_cast<long long>(i));
        const auto t0 = Clock::now();
        std::string response;
        bool ok = true;
        std::string what = "line " + std::to_string(i + 1);
        try {
            response = server.handle(line);
            ok = response.rfind("ok", 0) == 0;
            if (!ok)
                what += ": " + response;
        } catch (const std::exception &e) {
            ok = false;
            what += ": " + std::string(e.what());
        }
        const std::uint64_t ns = nanosOf(Clock::now() - t0);
        const bool hit = response.find(" plan=hit") != std::string::npos;
        if (verb == "query") {
            rep.opNs.push_back(ns);
            (hit ? hit_ns : miss_ns).push_back(ns);
        } else if (verb == "event") {
            event_ns.push_back(ns);
        } else if (verb == "roll") {
            roll_ns.push_back(ns);
        }
        log.close(span, verb != "query" ? nullptr
                        : hit           ? "serve.query_hit"
                                        : "serve.query_miss");
        if (!response.empty())
            rep.modeled += response + "\n";
        ++rep.ops;
        attempt(rep, ok, what);
        if (++since_checkpoint >= kCheckpointEvery && !server.stopped()) {
            since_checkpoint = 0;
            Scope cspan(log, "serve.checkpoint");
            const auto c0 = Clock::now();
            // As ditile_serve: the checkpoint names only fsynced WAL.
            server.wal()->flush(true);
            serve::writeCheckpointFile(checkpoint_path,
                                       server.checkpointState());
            checkpoint_ns.push_back(nanosOf(Clock::now() - c0));
        }
        if (server.stopped())
            break;
    }
    rep.loopS = secondsOf(Clock::now() - loop_start);
    {
        Scope span(log, "serve.wal_close");
        server.wal()->close();
    }

    // No final checkpoint: the recovery replays the WAL suffix past the
    // newest periodic one, as after a crash.
    const auto recover_start = Clock::now();
    const int recover_span = log.open("serve.recover");
    serve::Server recovered(options, factory);
    serve::ServerCheckpoint checkpoint;
    {
        Scope span(log, "serve.recover.load_checkpoint");
        checkpoint = serve::loadCheckpointFile(checkpoint_path);
    }
    serve::WalRecovery wal;
    {
        Scope span(log, "serve.recover.wal_scan");
        wal = serve::recoverWal(wal_path);
    }
    {
        Scope span(log, "serve.recover.restore");
        recovered.restoreState(checkpoint);
    }
    std::vector<serve::WalRecord> suffix;
    for (serve::WalRecord &record : wal.records)
        if (record.seq > checkpoint.walSeq)
            suffix.push_back(std::move(record));
    {
        Scope span(log, "serve.recover.replay");
        recovered.recover(suffix);
    }
    recovered.attachWal(serve::WalWriter::openContinue(
        wal_path, kWalSync,
        std::max(wal.nextSeq(), checkpoint.walSeq + 1)));
    log.close(recover_span);
    const double recover_ms =
        microsOf(Clock::now() - recover_start) / 1000.0;
    rep.wallS = secondsOf(Clock::now() - rep.firstCall);

    attempt(rep,
            serve::checkpointStateHash(recovered.checkpointState()) ==
                serve::checkpointStateHash(server.checkpointState()),
            "recovered state hash differs from the live server's");

    const sim::PlanCache &cache = server.runner().planCache();
    rep.layer["sim.plan_cache.hits"] = static_cast<double>(cache.hits());
    rep.layer["sim.plan_cache.misses"] =
        static_cast<double>(cache.misses());
    rep.layer["serve.parse_us"] = percentileUs(parse_ns, 50);
    rep.layer["serve.query_hit_us"] = percentileUs(hit_ns, 50);
    rep.layer["serve.query_miss_us"] = percentileUs(miss_ns, 50);
    rep.layer["serve.event_us"] = percentileUs(event_ns, 50);
    rep.layer["serve.roll_us"] = percentileUs(roll_ns, 50);
    rep.layer["serve.recover_ms"] = recover_ms;
    rep.layer["serve.checkpoint_ms"] =
        percentileUs(checkpoint_ns, 50) / 1000.0;
    rep.layer["serve.checkpoint_kb"] = fileKb(checkpoint_path);
    rep.layer["serve.wal_records"] =
        static_cast<double>(server.wal()->appended());
    rep.layer["serve.wal_syncs"] =
        static_cast<double>(server.wal()->syncs());
    rep.layer["serve.wal_kb"] = fileKb(wal_path);
}

// ---- Traced-run roll-up --------------------------------------------

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Per-layer self time (span duration minus its children's), coverage
 * of the timed phase, the cache ratios, and the modeled counters.
 * Spans opened before the timed phase (the serve parse pre-pass) are
 * set-up and count toward neither.
 */
void
rollUp(const SpanLog &log, Report &rep)
{
    const auto &spans = log.spans();
    std::vector<double> child(spans.size(), 0.0);
    double covered = 0.0;
    for (const Span &s : spans) {
        const double d = secondsOf(s.end - s.start);
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += d;
        else if (s.start >= rep.firstCall)
            covered += d;
    }
    std::map<std::string, double> spent;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].start >= rep.firstCall)
            spent[spans[i].name] +=
                secondsOf(spans[i].end - spans[i].start) - child[i];
    }
    const auto self = [&spent](const std::string &name) {
        const auto it = spent.find(name);
        return it == spent.end() ? 0.0 : it->second;
    };

    std::map<std::string, double> &m = rep.layer;
    for (const char *name :
         {"graph.generate", "workload.load_digest", "tiling.alg1",
          "model.snapshot_plan", "core.plan_tail",
          "workload.partition_digest", "workload.chunk_partition"})
        m[std::string(name) + "_s"] = self(name);
    m["sim.execute_s"] =
        self("sim.execute.overlap") + self("sim.execute.staged");
    m["sim.multichip_execute_s"] = self("sim.multichip_execute.overlap") +
        self("sim.multichip_execute.staged");
    m["sim.execute_overlap_s"] = self("sim.execute.overlap") +
        self("sim.multichip_execute.overlap");
    m["sim.execute_staged_s"] = self("sim.execute.staged") +
        self("sim.multichip_execute.staged");
    m["other_s"] = std::max(0.0, rep.wallS - covered);
    m["trace.coverage"] = ratio(covered, rep.wallS);

    const double plan_lookups =
        m["sim.plan_cache.hits"] + m["sim.plan_cache.misses"];
    m["sim.plan_cache.lookups"] = plan_lookups;
    m["sim.plan_cache.hit_ratio"] =
        ratio(m["sim.plan_cache.hits"], plan_lookups);
    const auto &digest = workload::DigestCache::global();
    const auto digest_lookups =
        static_cast<double>(digest.hits() + digest.misses());
    m["workload.digest_cache.lookups"] = digest_lookups;
    m["workload.digest_cache.hit_ratio"] =
        ratio(static_cast<double>(digest.hits()), digest_lookups);
    const auto &comm = tiling::CommModelCache::global();
    const auto comm_lookups =
        static_cast<double>(comm.hits() + comm.misses());
    m["tiling.comm_model_cache.lookups"] = comm_lookups;
    m["tiling.comm_model_cache.hit_ratio"] =
        ratio(static_cast<double>(comm.hits()), comm_lookups);

    // Serve layers read 0 on the workloads that never enter them.
    for (const char *name :
         {"serve.parse_us", "serve.query_hit_us", "serve.query_miss_us",
          "serve.event_us", "serve.roll_us", "serve.recover_ms",
          "serve.checkpoint_ms", "serve.checkpoint_kb",
          "serve.wal_records", "serve.wal_syncs", "serve.wal_kb"})
        m.emplace(name, 0.0);
    m["engine.runs"] = 0.0;
    for (const auto &[path, value] : Tracer::global().metrics())
        if (path == "engine.runs")
            m["engine.runs"] = static_cast<double>(value);
    std::map<std::string, double> &st = rep.runStats;
    m["noc.messages"] = st["noc.messages"];
    m["dram.requests"] = st["dram.requests"];
    m["dram.row_hit_ratio"] =
        ratio(st["dram.row_hits"], st["dram.row_hits"] +
                                       st["dram.row_misses"] +
                                       st["dram.row_conflicts"]);
    m["sim.taskgraph.tasks"] = st["taskgraph.tasks"];
    m["sim.engine.scratch_snapshots"] = st["engine.scratch_snapshots"];
    m["interchip.payload_bytes"] = st["interchip.payload_bytes"];
    m["interchip.transfers"] = st["interchip.transfers"];
    m["scaleout.cross_adjacencies"] = st["scaleout.cross_adjacencies"];

    // Human-readable breakdown on stderr: self time and share.
    std::fprintf(stderr, "%-34s %12s %8s\n", "span", "self_s", "share");
    for (const auto &[name, s] : spent)
        std::fprintf(stderr, "%-34s %12.6f %7.2f%%\n", name.c_str(), s,
                     100.0 * ratio(s, rep.wallS));
    std::fprintf(stderr, "%-34s %12.6f %7.2f%%\n", "(other)",
                 m["other_s"], 100.0 * ratio(m["other_s"], rep.wallS));
}

std::string
fnv1aHex(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/**
 * Spans as JSON lines, times in microseconds from the start of the
 * timed phase (negative for set-up spans).
 */
void
writeSpans(const SpanLog &log, Clock::time_point origin,
           const std::string &path)
{
    std::string text;
    for (const Span &s : log.spans()) {
        JsonObject line;
        line.add("name", s.name)
            .add("start_us", microsOf(s.start - origin))
            .add("end_us", microsOf(s.end - origin))
            .add("parent", static_cast<long long>(s.parent))
            .add("request", s.request);
        text += line.toCompactString() + "\n";
    }
    writeFile(path, text);
}

} // namespace

int
main(int argc, char **argv)
{
    const CliFlags flags = CliFlags::parse(argc, argv);
    try {
        ThreadPool::setGlobalThreads(1);
        const std::string workload = flags.getString("workload", "");
        const auto seed =
            static_cast<std::uint64_t>(flags.getInt("seed", 42));
        const std::string workdir = flags.getString("workdir", ".");
        const std::string dump = flags.getString("dump", "");
        SpanLog log(flags.getBool("trace", false));
        if (log.enabled()) {
            Tracer::global().reset();
            Tracer::global().enable(false, true);
        }

        Report rep;
        if (workload == "sweep_cold") {
            runSweep(seed, log, rep);
        } else if (workload == "serve_durable") {
            runServe(seed, workdir, log, rep);
        } else if (workload == "scaleout_strong") {
            runScaleout(seed, log, rep);
        } else {
            std::fprintf(stderr,
                         "perfbench_harness: unknown --workload '%s'\n",
                         workload.c_str());
            return 2;
        }
        if (log.enabled()) {
            rollUp(log, rep);
            writeSpans(log, rep.firstCall, workdir + "/spans.jsonl");
        }
        if (!dump.empty()) {
            writeFile(dump, rep.modeled);
            if (!rep.input.empty())
                writeFile(dump + ".script", rep.input);
        }

        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        JsonObject layers;
        for (const auto &[name, value] : rep.layer)
            layers.add(name, value);
        std::string failures = "[";
        for (std::size_t i = 0; i < rep.failures.size(); ++i) {
            if (i > 0)
                failures += ',';
            failures += jsonQuote(rep.failures[i]);
        }
        failures += "]";
        JsonObject out;
        out.add("workload", workload)
            .add("first_call_mono_s",
                 secondsOf(rep.firstCall.time_since_epoch()))
            .add("wall_s", rep.wallS)
            .add("loop_s", rep.loopS)
            .add("ops", static_cast<long long>(rep.ops))
            .add("op_p50_us", percentileUs(rep.opNs, 50))
            .add("op_p99_us", percentileUs(rep.opNs, 99))
            .add("peak_rss_mb",
                 static_cast<double>(usage.ru_maxrss) / 1024.0)
            .add("attempted", static_cast<long long>(rep.attempted))
            .add("failed", static_cast<long long>(rep.failed))
            .add("output_hash", fnv1aHex(rep.modeled))
            .addRaw("failures", failures)
            .addRaw("layers", layers.toCompactString());
        std::puts(out.toCompactString().c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
}
