/**
 * @file
 * ditile_sweep — grid sweeps to CSV for plotting.
 *
 * Runs DiTile-DGNN (and optionally every baseline) over the cross
 * product of dissimilarity rates and snapshot counts on one dataset,
 * emitting one CSV row per run.
 *
 *   ditile_sweep --dataset=WD --dis=0.02,0.06,0.10,0.14 \
 *                --snapshots=4,8,16 [--all-accels] [--scale=F] \
 *                [--threads=N] [--faults=SPEC] [--no-overlap] \
 *                [--chips=M] [--interchip-gbps=G] [--interchip-ns=L] \
 *                [--trace=FILE] [--metrics=FILE]
 *
 * --chips=M > 1 shards every run over an M-chip cluster through the
 * chunk partitioner and the inter-chip link model (sim/scaleout.hh);
 * the default M=1 is the unchanged single-chip path, byte-identical
 * to sweeps predating the flag.
 *
 * Runs execute with the overlap task graph by default; --no-overlap
 * selects the staged one, which adds the legacy barrier edges (the
 * byte-identity reference, never faster than overlap on fault-free
 * points).
 *
 * --trace=FILE captures a structured Chrome trace across the whole
 * sweep (each grid point on its own track group); --metrics=FILE
 * writes a per-point rollup CSV sidecar with the extended per-run
 * observability stats. The sweep CSV and the metrics sidecar are
 * bit-identical at any --threads width; in the trace, only the
 * shared-cache hit/miss instants can shift with thread contention
 * (which racing grid point pays the miss), every modeled span is
 * width-independent.
 *
 * Config points are independent: each generates its graph, plans the
 * fleet and executes the plans. With --threads=N they fan out across
 * the process-wide thread pool; rows are still emitted in grid order
 * and every number is bit-identical to --threads=1. Points whose
 * graphs share a structure hash share snapshot plans, workload
 * digests and comm-model results through the process-wide caches.
 *
 * A failing grid point (bad input, unsatisfiable fault schedule, ...)
 * does not abort the sweep: the rows of every successful point are
 * still flushed to stdout in grid order, the failing point and its
 * error are reported on stderr, and the process exits nonzero.
 *
 * SIGINT/SIGTERM interrupt the sweep gracefully: not-yet-run grid
 * points are skipped, and the rows of every completed point — plus
 * the metrics sidecar and trace file, when requested — are still
 * flushed before the process exits with status 130. A second signal
 * kills the process immediately.
 */

#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/shutdown.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "core/ditile_accelerator.hh"
#include "graph/datasets.hh"
#include "sim/baselines.hh"
#include "sim/fault_model.hh"
#include "sim/plan_cache.hh"
#include "sim/scaleout.hh"

using namespace ditile;

namespace {

std::vector<double>
parseList(const std::string &csv, double fallback)
{
    std::vector<double> values;
    std::stringstream stream(csv);
    std::string item;
    while (std::getline(stream, item, ',')) {
        if (item.empty())
            continue;
        char *endp = nullptr;
        const double v = std::strtod(item.c_str(), &endp);
        if (endp != item.c_str() + item.size())
            DITILE_THROW("invalid number '", item, "' in list '", csv,
                         "'");
        values.push_back(v);
    }
    if (values.empty())
        values.push_back(fallback);
    return values;
}

int
runTool(const CliFlags &flags)
{
    const auto dataset = flags.getString("dataset", "WD");
    const auto dis_list = parseList(flags.getString("dis", ""), 0.10);
    const auto snap_list = parseList(flags.getString("snapshots", ""),
                                     8.0);
    const bool all_accels = flags.getBool("all-accels", false);
    const bool overlap = !flags.getBool("no-overlap", false);
    const bool have_faults = flags.has("faults");
    const auto fault_spec =
        sim::FaultSpec::parse(flags.getString("faults", ""));
    const int chips = static_cast<int>(flags.getInt("chips", 1));
    // Tracks one run spans: a scale-out run takes a group per chip
    // plus the cluster's.
    const std::uint64_t run_tracks =
        static_cast<std::uint64_t>(sim::traceTrackGroups(chips)) *
        Tracer::kTracksPerRun;
    noc::InterChipLinkConfig interchip;
    interchip.bandwidthGbps =
        flags.getDouble("interchip-gbps", interchip.bandwidthGbps);
    interchip.latencyNs =
        flags.getDouble("interchip-ns", interchip.latencyNs);
    ThreadPool::setGlobalThreads(
        static_cast<int>(flags.getInt("threads", 1)));
    const auto trace_file = flags.getString("trace", "");
    const auto metrics_file = flags.getString("metrics", "");
    if (trace_file == "1" || metrics_file == "1")
        DITILE_FATAL("--trace and --metrics need =FILE in ditile_sweep");
    Tracer &tracer = Tracer::global();
    if (!trace_file.empty() || !metrics_file.empty()) {
        tracer.reset();
        tracer.enable(!trace_file.empty(), !metrics_file.empty());
    }

    // One job per (dissimilarity, snapshot-count) grid point; each
    // job owns its row block, so jobs merge back in grid order. A job
    // that throws records the error instead of its rows.
    struct Job
    {
        double dis = 0.0;
        double snaps = 0.0;
        std::vector<std::vector<std::string>> rows;
        std::vector<std::vector<std::string>> metricRows;
        std::string error;
        bool interrupted = false;
    };
    installShutdownHandler();
    std::vector<Job> jobs;
    for (double dis : dis_list)
        for (double snaps : snap_list)
            jobs.push_back({dis, snaps, {}, {}, {}});

    // One process-wide plan cache: accelerators sharing an update
    // algorithm on the same grid point (ReaDy and DGNN-Booster both
    // run Re-Alg) reuse one snapshot-plan set instead of replanning.
    sim::PlanCache plan_cache;

    const auto runPoint = [&](std::size_t j, Job &job) {
        if (shutdownRequested()) {
            // Skip cleanly; already-finished points still flush below.
            job.interrupted = true;
            return;
        }
        try {
            graph::DatasetOptions options;
            options.scale = flags.getDouble("scale", 0.0);
            options.numSnapshots = static_cast<SnapshotId>(job.snaps);
            options.dissimilarity = job.dis;
            options.seed = static_cast<std::uint64_t>(
                flags.getInt("seed", 0));
            const graph::DynamicGraph dg =
                graph::makeDataset(dataset, options);
            const model::DgnnConfig mconfig;

            std::vector<std::unique_ptr<sim::Accelerator>> fleet;
            if (all_accels) {
                fleet.push_back(sim::makeReady());
                fleet.push_back(sim::makeDgnnBooster());
                fleet.push_back(sim::makeRace());
                fleet.push_back(sim::makeMega());
            }
            fleet.push_back(
                std::make_unique<core::DiTileAccelerator>());
            // Disjoint track groups per (grid point, accelerator) so
            // concurrent jobs never share a trace track.
            const auto setTrack = [&](std::size_t a) {
                Tracer::setTrackBase(
                    (static_cast<std::uint64_t>(j) * fleet.size() + a) *
                    run_tracks);
            };
            std::vector<sim::ExecutionPlan> plans;
            for (std::size_t a = 0; a < fleet.size(); ++a) {
                setTrack(a);
                sim::ExecutionPlan plan =
                    fleet[a]->plan(dg, mconfig, &plan_cache);
                if (have_faults)
                    plan.faults = fault_spec;
                plan.options.overlap = overlap;
                if (chips > 1)
                    sim::applyScaleOut(plan, dg, chips, interchip);
                plans.push_back(std::move(plan));
            }
            for (std::size_t a = 0; a < plans.size(); ++a) {
                setTrack(a);
                const auto r =
                    sim::executePlan(dg, plans[a], &plan_cache);
                job.rows.push_back(
                    {dataset, Table::num(job.dis, 3),
                     Table::integer(static_cast<long long>(job.snaps)),
                     r.acceleratorName,
                     Table::integer(static_cast<long long>(
                         r.totalCycles)),
                     Table::integer(static_cast<long long>(
                         r.ops.totalArithmetic())),
                     Table::integer(static_cast<long long>(
                         r.dramTraffic.total())),
                     Table::integer(static_cast<long long>(
                         r.nocBytes)),
                     Table::num(r.energy.totalPj(), 0),
                     Table::num(r.peUtilization, 4)});
                if (!metrics_file.empty()) {
                    auto stat = [&](const char *name) {
                        return Table::integer(static_cast<long long>(
                            r.stats.get(name)));
                    };
                    job.metricRows.push_back(
                        {dataset, Table::num(job.dis, 3),
                         Table::integer(static_cast<long long>(
                             job.snaps)),
                         r.acceleratorName,
                         stat("noc.spatial_bytes"),
                         stat("noc.temporal_bytes"),
                         stat("noc.reuse_bytes"),
                         stat("dram.requests"),
                         stat("dram.row_hits"),
                         stat("dram.row_misses"),
                         stat("dram.row_conflicts"),
                         stat("engine.digest_full_fastpath"),
                         stat("engine.digest_rnn_fastpath"),
                         stat("relink.engaged_snapshots")});
                }
            }
        } catch (const std::exception &e) {
            job.rows.clear();
            job.metricRows.clear();
            job.error = e.what();
        }
    };

    // The CSV header goes out (and is flushed) before any point runs:
    // a sweep that dies mid-grid — or whose very first point fails —
    // still leaves a machine-readable CSV behind.
    Table table("sweep");
    table.setHeader({"dataset", "dissimilarity", "snapshots",
                     "accelerator", "cycles", "ops", "dram_bytes",
                     "noc_bytes", "energy_pj", "pe_utilization"});
    std::fputs(table.headerCsv().c_str(), stdout);
    std::fflush(stdout);

    parallelFor(jobs.size(),
                [&](std::size_t j) { runPoint(j, jobs[j]); });

    // Flush every successful point in grid order even when some
    // points failed, so a long sweep's partial CSV survives.
    int failed = 0;
    for (const auto &job : jobs)
        for (const auto &row : job.rows)
            table.addRow(row);
    std::fputs(table.rowsCsv().c_str(), stdout);
    std::fflush(stdout);
    // Stderr so the CSV on stdout stays byte-identical to the
    // uncached runs.
    for (const auto &job : jobs) {
        if (job.error.empty())
            continue;
        ++failed;
        std::fprintf(stderr,
                     "sweep point failed: dataset=%s dis=%.3f "
                     "snapshots=%d: %s\n",
                     dataset.c_str(), job.dis,
                     static_cast<int>(job.snaps), job.error.c_str());
    }
    if (!metrics_file.empty()) {
        Table sidecar("sweep metrics");
        sidecar.setHeader({"dataset", "dissimilarity", "snapshots",
                           "accelerator", "noc_spatial_bytes",
                           "noc_temporal_bytes", "noc_reuse_bytes",
                           "dram_requests", "dram_row_hits",
                           "dram_row_misses", "dram_row_conflicts",
                           "digest_full_fastpath",
                           "digest_rnn_fastpath",
                           "relink_engaged_snapshots"});
        for (const auto &job : jobs)
            for (const auto &row : job.metricRows)
                sidecar.addRow(row);
        std::FILE *out = std::fopen(metrics_file.c_str(), "w");
        if (!out)
            DITILE_FATAL("cannot write --metrics '", metrics_file, "'");
        std::fputs(sidecar.toCsv().c_str(), out);
        std::fclose(out);
        std::fprintf(stderr, "wrote metrics sidecar to %s\n",
                     metrics_file.c_str());
    }
    if (!trace_file.empty()) {
        tracer.writeChromeJson(trace_file);
        std::fprintf(stderr, "wrote Chrome trace to %s\n",
                     trace_file.c_str());
    }
    sim::printCacheStats(stderr, plan_cache);
    int interrupted = 0;
    for (const auto &job : jobs)
        if (job.interrupted)
            ++interrupted;
    if (interrupted > 0) {
        std::fprintf(stderr,
                     "sweep interrupted: %d of %zu point(s) skipped; "
                     "partial results flushed\n",
                     interrupted, jobs.size());
        return 130;
    }
    if (failed > 0) {
        std::fprintf(stderr, "%d of %zu sweep point(s) failed\n",
                     failed, jobs.size());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliFlags flags = CliFlags::parse(argc, argv);
    try {
        return runTool(flags);
    } catch (const std::exception &e) {
        DITILE_FATAL(e.what());
    }
}
