/**
 * @file
 * ditile_serve — the streaming inference service front end.
 *
 * Runs the serve tier as a long-lived process speaking the line
 * protocol documented in serve/protocol.hh, or as a self-driving
 * load-generator replay for capacity studies.
 *
 *   ditile_serve                          # interactive, stdin/stdout
 *   ditile_serve --script=session.txt    # replay a canned session
 *   ditile_serve --loadgen --requests=10000 --tenants=10 --threads=4
 *   ditile_serve --script=s.txt --wal=s.wal --checkpoint=s.ckpt \
 *                --checkpoint-every=100   # crash-safe session
 *   ditile_serve --script=s.txt --wal=s.wal --checkpoint=s.ckpt \
 *                --restore                # resume after a crash
 *
 * Modes:
 *   default          Read requests line-by-line from stdin (or
 *                    --script=FILE), answer each on stdout. Protocol
 *                    errors come back as `err <code>:` responses;
 *                    the process never aborts on bad input.
 *   --loadgen        Synthesize a seeded Zipf-over-tenants bursty
 *                    request schedule (serve/loadgen.hh) and replay
 *                    it through the batching server under the
 *                    virtual clock, then print the summary table.
 *   --script-out=F   Render the loadgen schedule (chaos included)
 *                    into a protocol script at F and exit. The
 *                    bridge between the generator and the crash-safe
 *                    --script path.
 *
 * Server flags:
 *   --queue-capacity=N --batch-max=N --max-tenants=N
 *   --cycles-per-us=N     (virtual service-time conversion)
 *   --batch-overhead-us=N
 *   --deadline-us=N       (queued queries waiting longer answer
 *                          `err busy`; 0 = no deadline)
 *   --breaker-threshold=N --breaker-backoff-us=N
 *   --breaker-max-backoff-us=N
 *                         (per-tenant circuit breaker; see
 *                          serve/breaker.hh)
 *   --plan-cache-capacity=N  (bound the plan cache, LRU; 0 = off)
 *   --threads=N           (batch-execution width; summaries are
 *                          byte-identical at any width under the
 *                          virtual clock)
 *   --variant=...         (DiTile ablation variant, as ditile_run)
 *   --rnn=lstm|gru --aggregator=gcn|sage|gin
 *
 * Durability flags:
 *   --wal=FILE            (write-ahead log; every non-comment line is
 *                          logged before it is acknowledged)
 *   --wal-sync=always|batch|off   (group-commit policy; default batch)
 *   --wal-batch=N         (records per fsync under batch; default 32)
 *   --checkpoint=FILE     (atomic state snapshots; written every
 *                          --checkpoint-every lines and at exit)
 *   --checkpoint-every=N
 *   --restore             (recover: newest valid checkpoint + WAL
 *                          suffix replay, then skip the recovered
 *                          prefix of --script and continue)
 *   --chaos-kill-after=N  (simulate SIGKILL — std::_Exit, no flush —
 *                          after N lines handled this session; the
 *                          chaos harness's crash trigger)
 *
 * LoadGen flags (with --loadgen / --script-out):
 *   --tenants=N --requests=N --seed=S --zipf=EXP
 *   --event-fraction=F --roll-fraction=F
 *   --mean-gap-us=N --burst-toggle=P --burst-speedup=N
 *   --vertices=N --edges=M --window=W --features=F --roll-every=K
 *   --responses           (also print every response line)
 *   --chaos               (seeded adversarial substitutions: garbage
 *                          lines, bad events, live fault splices,
 *                          overload bursts)
 *   --chaos-seed=S --chaos-malformed=F --chaos-bad-event=F
 *   --chaos-fault=F --chaos-overload=F
 *
 * Output / instrumentation:
 *   --summary             (print the summary table in script/stdin
 *                          mode; loadgen mode always prints it)
 *   --trace=FILE          (Chrome trace of request spans + engine
 *                          activity) and --metrics (counter registry
 *                          incl. serve.*) as in ditile_run
 *
 * SIGINT/SIGTERM request a graceful stop: the current batch drains,
 * the WAL is flushed and closed, a final checkpoint is written, the
 * summary, metrics registry, and trace file are still written, and a
 * second signal kills the process immediately.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/shutdown.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "core/catalog.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "workload_flags.hh"

using namespace ditile;

namespace {

/** Every flag this tool reads; any other is an error. */
constexpr std::string_view kFlags[] = {
    "threads", "variant", "seed", "vertices", "edges", "features",
    "plan-cache-capacity", "queue-capacity", "deadline-us", "batch-max",
    "batch-overhead-us", "cycles-per-us", "max-tenants", "window",
    "roll-every", "roll-fraction", "breaker-threshold",
    "breaker-backoff-us", "breaker-max-backoff-us", "wal", "wal-sync",
    "wal-batch", "checkpoint", "checkpoint-every", "restore", "script",
    "script-out", "loadgen", "requests", "tenants", "zipf", "mean-gap-us",
    "event-fraction", "burst-toggle", "burst-speedup", "chaos",
    "chaos-seed", "chaos-malformed", "chaos-bad-event", "chaos-overload",
    "chaos-fault", "chaos-kill-after", "summary", "responses", "metrics",
    "trace"};

serve::ServerOptions
buildServerOptions(const CliFlags &flags)
{
    serve::ServerOptions options;
    options.queueCapacity = static_cast<std::size_t>(
        flags.getInt("queue-capacity",
                     static_cast<long long>(options.queueCapacity)));
    options.batchMax = static_cast<std::size_t>(
        flags.getInt("batch-max",
                     static_cast<long long>(options.batchMax)));
    options.maxTenants = static_cast<std::size_t>(
        flags.getInt("max-tenants",
                     static_cast<long long>(options.maxTenants)));
    options.serviceCyclesPerUs = static_cast<std::uint64_t>(
        flags.getInt("cycles-per-us", static_cast<long long>(
                                          options.serviceCyclesPerUs)));
    options.batchOverheadUs = static_cast<std::uint64_t>(
        flags.getInt("batch-overhead-us", static_cast<long long>(
                                              options.batchOverheadUs)));
    options.deadlineUs = static_cast<std::uint64_t>(
        flags.getInt("deadline-us",
                     static_cast<long long>(options.deadlineUs)));
    options.breaker.threshold = static_cast<int>(
        flags.getInt("breaker-threshold", options.breaker.threshold));
    options.breaker.baseBackoffUs = static_cast<std::uint64_t>(
        flags.getInt("breaker-backoff-us", static_cast<long long>(
                                               options.breaker.baseBackoffUs)));
    options.breaker.maxBackoffUs = static_cast<std::uint64_t>(
        flags.getInt("breaker-max-backoff-us",
                     static_cast<long long>(
                         options.breaker.maxBackoffUs)));
    options.planCacheCapacity = static_cast<std::size_t>(
        flags.getInt("plan-cache-capacity", static_cast<long long>(
                                                options.planCacheCapacity)));
    options.model = tools::buildModel(flags);
    return options;
}

serve::LoadGenConfig
buildLoadGenConfig(const CliFlags &flags)
{
    serve::LoadGenConfig config;
    config.tenants = static_cast<std::size_t>(
        flags.getInt("tenants",
                     static_cast<long long>(config.tenants)));
    config.requests = static_cast<std::size_t>(
        flags.getInt("requests",
                     static_cast<long long>(config.requests)));
    config.zipfExponent = flags.getDouble("zipf", config.zipfExponent);
    config.seed = static_cast<std::uint64_t>(
        flags.getInt("seed", static_cast<long long>(config.seed)));
    config.eventFraction =
        flags.getDouble("event-fraction", config.eventFraction);
    config.rollFraction =
        flags.getDouble("roll-fraction", config.rollFraction);
    config.meanGapUs = static_cast<std::uint64_t>(
        flags.getInt("mean-gap-us",
                     static_cast<long long>(config.meanGapUs)));
    config.burstToggleProb =
        flags.getDouble("burst-toggle", config.burstToggleProb);
    config.burstSpeedup = static_cast<std::uint64_t>(
        flags.getInt("burst-speedup",
                     static_cast<long long>(config.burstSpeedup)));
    config.vertices = static_cast<VertexId>(
        flags.getInt("vertices",
                     static_cast<long long>(config.vertices)));
    config.edges = flags.getInt("edges", config.edges);
    config.window = static_cast<SnapshotId>(
        flags.getInt("window", config.window));
    config.features = static_cast<int>(
        flags.getInt("features", config.features));
    config.rollEvery = static_cast<std::uint64_t>(
        flags.getInt("roll-every",
                     static_cast<long long>(config.rollEvery)));
    config.chaos = flags.getBool("chaos", false);
    config.chaosSeed = static_cast<std::uint64_t>(
        flags.getInt("chaos-seed",
                     static_cast<long long>(config.chaosSeed)));
    config.chaosMalformed =
        flags.getDouble("chaos-malformed", config.chaosMalformed);
    config.chaosBadEvent =
        flags.getDouble("chaos-bad-event", config.chaosBadEvent);
    config.chaosFault = flags.getDouble("chaos-fault", config.chaosFault);
    config.chaosOverload =
        flags.getDouble("chaos-overload", config.chaosOverload);
    return config;
}

/** Durability knobs shared by both serving modes. */
struct DurabilityFlags
{
    std::string walPath;
    serve::WalSync walSync = serve::WalSync::Batch;
    std::size_t walBatch = 32;
    std::string checkpointPath;
    std::uint64_t checkpointEvery = 0;
    bool restore = false;
    std::uint64_t killAfter = 0;
};

DurabilityFlags
buildDurabilityFlags(const CliFlags &flags)
{
    DurabilityFlags dur;
    dur.walPath = flags.getString("wal", "");
    if (dur.walPath == "1")
        DITILE_FATAL("--wal needs =FILE in ditile_serve");
    dur.walSync =
        serve::walSyncFromToken(flags.getString("wal-sync", "batch"));
    dur.walBatch =
        static_cast<std::size_t>(flags.getInt("wal-batch", 32));
    if (dur.walBatch < 1)
        dur.walBatch = 1;
    dur.checkpointPath = flags.getString("checkpoint", "");
    if (dur.checkpointPath == "1")
        DITILE_FATAL("--checkpoint needs =FILE in ditile_serve");
    dur.checkpointEvery = static_cast<std::uint64_t>(
        flags.getInt("checkpoint-every", 0));
    dur.restore = flags.getBool("restore", false);
    dur.killAfter = static_cast<std::uint64_t>(
        flags.getInt("chaos-kill-after", 0));
    if (dur.restore && dur.walPath.empty())
        DITILE_FATAL("--restore needs --wal=FILE");
    return dur;
}

/**
 * Crash-recovery startup: newest valid checkpoint (when given and
 * loadable — anything less falls back, with a warning, to full-WAL
 * replay) plus the WAL suffix with seq > checkpoint.walSeq, then
 * reopen the log for appending where the valid prefix ends.
 */
void
restoreServer(serve::Server &server, const DurabilityFlags &dur)
{
    serve::ServerCheckpoint checkpoint;
    bool have_checkpoint = false;
    if (!dur.checkpointPath.empty()) {
        try {
            checkpoint = serve::loadCheckpointFile(dur.checkpointPath);
            have_checkpoint = true;
        } catch (const InputError &e) {
            warn("restore: ", e.what(),
                 "; falling back to full WAL replay");
        }
    }
    serve::WalRecovery recovery = serve::recoverWal(dur.walPath);
    if (have_checkpoint)
        server.restoreState(checkpoint);
    std::vector<serve::WalRecord> suffix;
    suffix.reserve(recovery.records.size());
    for (auto &record : recovery.records)
        if (!have_checkpoint || record.seq > checkpoint.walSeq)
            suffix.push_back(std::move(record));
    const std::uint64_t replayed = server.recover(suffix);
    std::uint64_t next_seq = recovery.nextSeq();
    if (have_checkpoint && checkpoint.walSeq + 1 > next_seq)
        next_seq = checkpoint.walSeq + 1;
    server.attachWal(serve::WalWriter::openContinue(
        dur.walPath, dur.walSync, next_seq, dur.walBatch));
    std::fprintf(
        stderr,
        "restored %llu acknowledged line(s) "
        "(checkpoint: %s, wal replay: %llu line(s))\n",
        static_cast<unsigned long long>(server.acknowledgedLines()),
        have_checkpoint ? "yes" : "no",
        static_cast<unsigned long long>(replayed));
}

/**
 * Write a checkpoint covering exactly the durable WAL prefix: the log
 * is fsynced first so checkpoint.walSeq never names a record a crash
 * could still lose.
 */
void
writeCheckpointNow(serve::Server &server, const std::string &path)
{
    if (server.wal())
        server.wal()->flush(true);
    serve::writeCheckpointFile(path, server.checkpointState());
}

/** Graceful-exit durability: final checkpoint, then close the WAL. */
void
finalizeDurability(serve::Server &server, const DurabilityFlags &dur)
{
    if (!dur.checkpointPath.empty())
        writeCheckpointNow(server, dur.checkpointPath);
    if (server.wal())
        server.wal()->close();
}

/** Trace file + metrics registry, shared by every exit path. */
void
flushInstrumentation(const std::string &trace_file, bool metrics)
{
    Tracer &tracer = Tracer::global();
    if (!trace_file.empty()) {
        tracer.writeChromeJson(trace_file);
        std::fprintf(stderr, "wrote Chrome trace to %s\n",
                     trace_file.c_str());
    }
    if (metrics) {
        Table registry("metrics registry");
        registry.setHeader({"Metric", "Value"});
        for (const auto &[path, value] : tracer.metrics())
            registry.addRow({path, Table::integer(value)});
        std::fputs(registry.toString().c_str(), stdout);
    }
}

int
runTool(const CliFlags &flags)
{
    ThreadPool::setGlobalThreads(
        static_cast<int>(flags.getInt("threads", 1)));
    installShutdownHandler();

    const auto trace_file = flags.getString("trace", "");
    if (trace_file == "1")
        DITILE_FATAL("--trace needs =FILE in ditile_serve");
    const bool metrics = flags.getBool("metrics", false);
    Tracer &tracer = Tracer::global();
    if (!trace_file.empty() || metrics) {
        tracer.reset();
        tracer.enable(!trace_file.empty(), metrics);
    }

    const auto script_out = flags.getString("script-out", "");
    if (!script_out.empty()) {
        if (script_out == "1")
            DITILE_FATAL("--script-out needs =FILE in ditile_serve");
        const serve::LoadGen generator(buildLoadGenConfig(flags));
        const std::string lines =
            serve::LoadGen::renderLines(generator.schedule());
        std::ofstream out(script_out, std::ios::binary);
        if (!out)
            DITILE_FATAL("cannot open --script-out '", script_out,
                         "'");
        out << lines;
        out.close();
        if (!out)
            DITILE_FATAL("short write to --script-out '", script_out,
                         "'");
        std::fprintf(stderr, "wrote %lld-line script to %s\n",
                     static_cast<long long>(std::count(
                         lines.begin(), lines.end(), '\n')),
                     script_out.c_str());
        return 0;
    }

    const DurabilityFlags dur = buildDurabilityFlags(flags);

    const auto variant = core::DiTileOptions::fromVariant(
        flags.getString("variant", "full"));
    sim::AcceleratorFactory factory = [variant] {
        return core::makeAccelerator(
            "ditile", sim::AcceleratorConfig::defaults(), variant);
    };
    serve::Server server(buildServerOptions(flags),
                         std::move(factory));

    if (flags.getBool("loadgen", false)) {
        if (dur.restore)
            DITILE_FATAL("--restore only works in script/stdin mode; "
                         "use --script-out to turn a loadgen "
                         "schedule into a resumable script");
        if (dur.killAfter > 0)
            DITILE_FATAL("--chaos-kill-after only works in "
                         "script/stdin mode (use --script-out)");
        if (!dur.walPath.empty())
            server.attachWal(serve::WalWriter::openFresh(
                dur.walPath, dur.walSync, dur.walBatch));
        const serve::LoadGen generator(buildLoadGenConfig(flags));
        const auto schedule = generator.schedule();
        const bool echo = flags.getBool("responses", false);
        std::vector<std::string> responses;
        server.replay(schedule, echo ? &responses : nullptr);
        if (echo) {
            for (const auto &response : responses)
                if (!response.empty())
                    std::printf("%s\n", response.c_str());
        }
        finalizeDurability(server, dur);
        std::fputs(server.summary().toTable().c_str(), stdout);
        std::fflush(stdout);
        flushInstrumentation(trace_file, metrics);
        return shutdownRequested() ? 130 : 0;
    }

    std::ifstream script_stream;
    std::istream *in = &std::cin;
    const auto script = flags.getString("script", "");
    if (!script.empty()) {
        script_stream.open(script);
        if (!script_stream)
            DITILE_FATAL("cannot open --script '", script, "'");
        in = &script_stream;
    }
    if (dur.restore)
        restoreServer(server, dur);
    else if (!dur.walPath.empty())
        server.attachWal(serve::WalWriter::openFresh(
            dur.walPath, dur.walSync, dur.walBatch));
    // Lines the recovered server already acknowledged: skip exactly
    // that prefix of the (re-fed) script so every line runs once.
    std::uint64_t skip = server.acknowledgedLines();

    std::string line;
    std::uint64_t handled = 0; // Non-Nop lines this session.
    std::uint64_t since_checkpoint = 0;
    while (!shutdownRequested() && !server.stopped() &&
           std::getline(*in, line)) {
        if (serve::isNopLine(line))
            continue;
        if (skip > 0) {
            --skip;
            continue;
        }
        const std::string response = server.handle(line);
        if (!response.empty()) {
            std::printf("%s\n", response.c_str());
            std::fflush(stdout);
        }
        ++handled;
        if (dur.killAfter > 0 && handled >= dur.killAfter) {
            // Simulated SIGKILL: the WAL keeps only what commit()
            // already made durable — no flush, close, or checkpoint.
            std::fflush(stdout);
            std::_Exit(137);
        }
        if (!dur.checkpointPath.empty() && dur.checkpointEvery > 0 &&
            ++since_checkpoint >= dur.checkpointEvery &&
            !server.stopped()) {
            since_checkpoint = 0;
            writeCheckpointNow(server, dur.checkpointPath);
        }
    }
    finalizeDurability(server, dur);
    if (flags.getBool("summary", false))
        std::fputs(server.summary().toTable().c_str(), stdout);
    std::fflush(stdout);
    flushInstrumentation(trace_file, metrics);
    return shutdownRequested() ? 130 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliFlags flags = CliFlags::parse(argc, argv);
    flags.requireKnown({kFlags, tools::kModelFlags});
    try {
        return runTool(flags);
    } catch (const std::exception &e) {
        DITILE_FATAL(e.what());
    }
}
