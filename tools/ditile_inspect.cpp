/**
 * @file
 * ditile_inspect — introspection into the simulator's data
 * structures: snapshot statistics, incremental plans, the Algorithm-1
 * strategy + Algorithm-2 mapping, and generated tile programs.
 *
 *   ditile_inspect dataset --dataset=WD
 *   ditile_inspect plan --dataset=WD --algo=ditile
 *   ditile_inspect plan --dump[=FILE] --accel=ditile [--variant=V]
 *   ditile_inspect plan --diff a.json b.json
 *   ditile_inspect plan --tasks[=FILE] [--accel=A] [--threads=N]
 *   ditile_inspect mapping --dataset=WD
 *   ditile_inspect program --dataset=WD [--verbose]
 *   ditile_inspect resilience --faults=SPEC [--accel=ditile]
 *   ditile_inspect trace out.json
 *
 * `trace FILE` loads a Chrome trace written by ditile_run/ditile_sweep
 * --trace=FILE and prints the per-stage rollup (count, total span
 * duration, first/last virtual timestamp per category+name).
 *
 * `plan --dump` serializes the full ExecutionPlan (Figure-5 front-end
 * output) of the chosen accelerator to stdout or FILE; `plan --diff`
 * compares two dumped plans field by field and exits 1 if they
 * differ. `plan --tasks` executes the plan through the task-graph
 * overlap scheduler and dumps the canonical schedule as JSON (lanes,
 * every task with start/finish and its critical-path flag, the
 * makespan) to stdout or FILE; the dump is bit-identical at any
 * --threads width, which CI exercises. `resilience` injects the given
 * fault schedule (grammar in sim/fault_model.hh), executes in degraded
 * mode, and prints the resolved schedule, the recovery log, and the
 * fault-free vs faulted headline numbers. Shared workload flags match
 * ditile_run (--scale, --snapshots, --seed, --vertices/--edges for
 * synthetic graphs).
 */

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "core/catalog.hh"
#include "graph/metrics.hh"
#include "model/incremental.hh"
#include "sim/execution_plan.hh"
#include "sim/fault_model.hh"
#include "sim/isa.hh"
#include "workload/balance.hh"
#include "workload_flags.hh"

using namespace ditile;

namespace {

/** Every flag this tool reads; any other is an error. */
constexpr std::string_view kFlags[] = {
    "accel", "variant", "algo", "threads", "faults", "dump", "diff",
    "tasks", "verbose"};

model::AlgoKind
algoFromFlag(const CliFlags &flags)
{
    const auto name = flags.getString("algo", "ditile");
    if (name == "re")
        return model::AlgoKind::ReAlg;
    if (name == "race")
        return model::AlgoKind::RaceAlg;
    if (name == "mega")
        return model::AlgoKind::MegaAlg;
    if (name == "ditile")
        return model::AlgoKind::DiTileAlg;
    DITILE_FATAL("unknown --algo '", name,
                 "' (expected re|race|mega|ditile)");
}

void
inspectDataset(const graph::DynamicGraph &dg)
{
    Table table("Snapshots of " + dg.name());
    table.setHeader({"t", "Vertices", "Edges", "Avg deg", "Max deg",
                     "Changes", "Dissimilarity"});
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        const auto &g = dg.snapshot(t);
        table.addRow({Table::integer(t),
                      Table::integer(g.numVertices()),
                      Table::integer(static_cast<long long>(
                          g.numEdges())),
                      Table::num(g.avgDegree(), 1),
                      Table::integer(g.maxDegree()),
                      t == 0 ? "-" : Table::integer(
                          static_cast<long long>(
                              dg.delta(t).numChanges())),
                      t == 0 ? "-" : Table::percent(
                          dg.dissimilarity(t))});
    }
    table.print();
    std::printf("feature dim %d, avg dissimilarity %.1f%%\n",
                dg.featureDim(), dg.avgDissimilarity() * 100.0);
}

void
inspectStats(const graph::DynamicGraph &dg)
{
    Table table("Structural metrics of " + dg.name());
    table.setHeader({"t", "Mean deg", "Median", "P99", "Max", "CV",
                     "Gini", "Clustering", "Jaccard vs prev"});
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        const auto &g = dg.snapshot(t);
        const auto stats = graph::degreeStats(g);
        table.addRow({Table::integer(t), Table::num(stats.mean, 1),
                      Table::num(stats.median, 0),
                      Table::num(stats.p99, 0),
                      Table::integer(stats.max),
                      Table::num(stats.cv, 2),
                      Table::num(stats.gini, 3),
                      Table::num(
                          graph::averageClusteringCoefficient(g), 4),
                      t == 0 ? "-" : Table::num(
                          graph::edgeJaccard(dg.snapshot(t - 1), g),
                          3)});
    }
    table.print();
}

void
inspectPlan(const graph::DynamicGraph &dg, model::AlgoKind algo)
{
    const model::DgnnConfig mconfig;
    model::IncrementalPlanner planner(dg, mconfig, algo);
    Table table(std::string("Execution plan: ") +
                model::algoName(algo));
    table.setHeader({"t", "Full?", "L0 verts", "L0 gathers",
                     "L1 verts", "L1 gathers", "RNN verts",
                     "Adj updates"});
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        const auto &p = planner.plan(t);
        table.addRow({Table::integer(t),
                      p.fullRecompute ? "yes" : "no",
                      Table::integer(static_cast<long long>(
                          p.gcn[0].vertices.size())),
                      Table::integer(static_cast<long long>(
                          p.gcn[0].gatherEdges)),
                      Table::integer(static_cast<long long>(
                          p.gcn[1].vertices.size())),
                      Table::integer(static_cast<long long>(
                          p.gcn[1].gatherEdges)),
                      Table::integer(static_cast<long long>(
                          p.rnnVertices.size())),
                      Table::integer(static_cast<long long>(
                          p.adjacencyUpdates))});
    }
    table.print();
}

std::unique_ptr<sim::Accelerator>
buildAccelerator(const CliFlags &flags)
{
    return core::makeAccelerator(
        flags.getString("accel", "ditile"),
        sim::AcceleratorConfig::defaults(),
        core::DiTileOptions::fromVariant(
            flags.getString("variant", "full")));
}

void
dumpPlan(const graph::DynamicGraph &dg, const CliFlags &flags)
{
    const model::DgnnConfig mconfig;
    auto accel = buildAccelerator(flags);
    const auto plan = accel->plan(dg, mconfig);
    const std::string json = plan.toJson();
    const auto target = flags.getString("dump", "1");
    if (target == "1") { // Bare --dump: stdout.
        std::printf("%s\n", json.c_str());
        return;
    }
    std::ofstream out(target);
    if (!out)
        DITILE_FATAL("cannot write plan dump '", target, "'");
    out << json << "\n";
    std::fprintf(stderr,
                 "wrote %s plan (%zu bytes, content hash %016llx)\n",
                 plan.acceleratorName.c_str(), json.size(),
                 static_cast<unsigned long long>(plan.contentHash()));
}

/**
 * Execute through the overlap scheduler and dump the canonical task
 * schedule as JSON. Everything comes out of the deterministic
 * scheduler, so the dump is byte-identical at any thread width.
 */
void
dumpTasks(const graph::DynamicGraph &dg, const CliFlags &flags)
{
    const model::DgnnConfig mconfig;
    auto accel = buildAccelerator(flags);
    auto plan = accel->plan(dg, mconfig);
    plan.options.overlap = true;
    const auto r = sim::executePlan(dg, plan);
    const auto &tg = r.taskGraph;
    std::ostringstream out;
    out << "{\"accelerator\":" << jsonQuote(r.acceleratorName)
        << ",\"workload\":" << jsonQuote(r.workloadName)
        << ",\"makespan\":" << tg.makespan
        << ",\"tasks\":" << tg.numTasks
        << ",\"edges\":" << tg.numEdges << ",\"lanes\":[";
    for (std::size_t i = 0; i < tg.lanes.size(); ++i) {
        const auto &lane = tg.lanes[i];
        if (i)
            out << ",";
        out << "{\"name\":" << jsonQuote(lane.name)
            << ",\"tasks\":" << lane.tasks
            << ",\"busy_cycles\":" << lane.busyCycles << "}";
    }
    out << "],\"schedule\":[";
    for (std::size_t i = 0; i < tg.tasks.size(); ++i) {
        const auto &task = tg.tasks[i];
        if (i)
            out << ",";
        out << "{\"id\":" << task.id << ",\"kind\":"
            << jsonQuote(task.kind)
            << ",\"snapshot\":" << task.snapshot
            << ",\"lane\":" << jsonQuote(task.lane)
            << ",\"start\":" << task.start
            << ",\"finish\":" << task.finish << ",\"critical\":"
            << (task.critical ? "true" : "false") << "}";
    }
    out << "]}";
    const auto target = flags.getString("tasks", "1");
    if (target == "1") { // Bare --tasks: stdout.
        std::printf("%s\n", out.str().c_str());
        return;
    }
    std::ofstream file(target);
    if (!file)
        DITILE_FATAL("cannot write task dump '", target, "'");
    file << out.str() << "\n";
    std::fprintf(stderr,
                 "wrote %s task schedule (%llu tasks, makespan %llu)\n",
                 r.acceleratorName.c_str(),
                 static_cast<unsigned long long>(tg.numTasks),
                 static_cast<unsigned long long>(tg.makespan));
}

/** Recursive field-level JSON diff; returns the difference count. */
int
diffJson(const std::string &path, const JsonValue &a,
         const JsonValue &b, int printed_limit, int &printed)
{
    auto report = [&](const std::string &what) {
        if (printed < printed_limit)
            std::printf("  %s: %s\n", path.empty() ? "." : path.c_str(),
                        what.c_str());
        else if (printed == printed_limit)
            std::printf("  ... further differences suppressed\n");
        ++printed;
        return 1;
    };
    if (a.kind() != b.kind())
        return report("kind differs");
    switch (a.kind()) {
      case JsonValue::Kind::Null:
        return 0;
      case JsonValue::Kind::Bool:
        return a.asBool() == b.asBool() ? 0 : report("bool differs");
      case JsonValue::Kind::Number:
        // Canonical emission: equal values have equal tokens.
        return a.asDouble() == b.asDouble() && a.asInt() == b.asInt()
            ? 0 : report("number differs");
      case JsonValue::Kind::String:
        return a.asString() == b.asString()
            ? 0 : report("string differs");
      case JsonValue::Kind::Array: {
        if (a.size() != b.size())
            return report("array length differs (" +
                          std::to_string(a.size()) + " vs " +
                          std::to_string(b.size()) + ")");
        int diffs = 0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            diffs += diffJson(path + "[" + std::to_string(i) + "]",
                              a.items()[i], b.items()[i],
                              printed_limit, printed);
        }
        return diffs;
      }
      case JsonValue::Kind::Object: {
        int diffs = 0;
        for (const auto &[key, value] : a.members()) {
            const std::string sub =
                path.empty() ? key : path + "." + key;
            if (const JsonValue *other = b.find(key)) {
                diffs += diffJson(sub, value, *other, printed_limit,
                                  printed);
            } else {
                if (printed++ < printed_limit)
                    std::printf("  %s: only in first plan\n",
                                sub.c_str());
                ++diffs;
            }
        }
        for (const auto &[key, value] : b.members()) {
            if (!a.find(key)) {
                const std::string sub =
                    path.empty() ? key : path + "." + key;
                if (printed++ < printed_limit)
                    std::printf("  %s: only in second plan\n",
                                sub.c_str());
                ++diffs;
            }
        }
        return diffs;
      }
    }
    return 0;
}

int
diffPlans(const std::string &path_a, const std::string &path_b)
{
    auto load = [](const std::string &path) {
        std::ifstream in(path);
        if (!in)
            DITILE_FATAL("cannot open plan '", path, "'");
        std::ostringstream buffer;
        buffer << in.rdbuf();
        try {
            return JsonValue::parse(buffer.str());
        } catch (const std::runtime_error &e) {
            DITILE_FATAL("failed to parse '", path, "': ", e.what());
        }
    };
    const JsonValue a = load(path_a);
    const JsonValue b = load(path_b);
    int printed = 0;
    const int diffs = diffJson("", a, b, 20, printed);
    if (diffs == 0) {
        std::printf("plans identical\n");
        return 0;
    }
    std::printf("%d field(s) differ\n", diffs);
    return 1;
}

void
inspectMapping(const graph::DynamicGraph &dg)
{
    const model::DgnnConfig mconfig;
    const auto plan = core::DiTileAccelerator().plan(dg, mconfig);
    const auto &tiling = plan.parallel.tiling;
    const auto &par = plan.parallel.parallelism;
    const auto loads =
        workload::computeVertexLoads(dg, mconfig.numGcnLayers());

    std::printf("Algorithm 1: tiling factor a=%d (DRAM model %.3e "
                "units, cross-fetch %.3f)\n",
                tiling.tilingFactor, tiling.dramAccessUnits,
                tiling.crossFetchFraction());
    std::printf("parallel factors: Gs=%d snapshot groups (Ps=%d), "
                "Gv=%d vertex parts (Pv=%d), TotalComm %.3e units\n",
                par.snapshotGroups, par.snapshotsPerGroup,
                par.vertexParts, par.verticesPerPart,
                par.totalCommUnits);
    std::printf("Algorithm 2: load imbalance %.3f (1.0 = perfect)\n",
                plan.mapping.rowPartition.imbalance(loads));
    std::printf("snapshot -> column:");
    const auto &columns = plan.mapping.snapshotColumn;
    for (std::size_t t = 0; t < columns.size(); ++t)
        std::printf(" %d:%d", static_cast<int>(t), columns[t]);
    std::printf("\nBDW groups: %zu\n", plan.groups.size());
}

void
inspectResilience(const graph::DynamicGraph &dg, const CliFlags &flags)
{
    const auto spec =
        sim::FaultSpec::parse(flags.getString("faults", ""));
    if (spec.empty()) {
        DITILE_FATAL("resilience needs a non-empty --faults=SPEC "
                     "(grammar in sim/fault_model.hh)");
    }
    const model::DgnnConfig mconfig;
    auto accel = buildAccelerator(flags);

    auto plan = accel->plan(dg, mconfig);
    const auto baseline = accel->execute(dg, plan);
    plan.faults = spec;
    const auto faulted = accel->execute(dg, plan);
    const auto &rr = faulted.resilience;

    std::printf("fault schedule: %s\n", spec.toString().c_str());
    std::printf("plan content hash: %016llx\n",
                static_cast<unsigned long long>(plan.contentHash()));

    Table table("resilience: " + faulted.acceleratorName + " on " +
                dg.name());
    table.setHeader({"Metric", "Fault-free", "Faulted"});
    auto row = [&](const char *name, double a, double b) {
        table.addRow({name, Table::sci(a), Table::sci(b)});
    };
    row("total cycles", static_cast<double>(baseline.totalCycles),
        static_cast<double>(faulted.totalCycles));
    row("on-chip comm cycles",
        static_cast<double>(baseline.onChipCommCycles),
        static_cast<double>(faulted.onChipCommCycles));
    row("off-chip cycles", static_cast<double>(baseline.offChipCycles),
        static_cast<double>(faulted.offChipCycles));
    row("NoC bytes", static_cast<double>(baseline.nocBytes),
        static_cast<double>(faulted.nocBytes));
    row("energy (pJ)", baseline.energy.totalPj(),
        faulted.energy.totalPj());
    table.addRow({"PE utilization",
                  Table::percent(baseline.peUtilization),
                  Table::percent(faulted.peUtilization)});
    table.print();

    Table injected("injected faults and recovery totals");
    injected.setHeader({"Metric", "Value"});
    auto count = [&](const char *name, std::uint64_t v) {
        injected.addRow({name,
                         Table::integer(static_cast<long long>(v))});
    };
    count("tile faults", rr.injectedTileFaults);
    count("link faults", rr.injectedLinkFaults);
    count("bypass faults", rr.injectedBypassFaults);
    count("DRAM faults", rr.injectedDramFaults);
    count("degraded snapshots", rr.degradedSnapshots);
    count("remapped vertices", rr.remappedVertices);
    count("rerouted messages", rr.reroutedMessages);
    count("retried messages", rr.retriedMessages);
    count("NoC retry backoff cycles", rr.nocRetryBackoffCycles);
    count("DRAM retry requests", rr.dramRetryRequests);
    count("DRAM retry bytes", rr.dramRetryBytes);
    count("DRAM retry cycles", rr.dramRetryCycles);
    injected.addRow({"degraded capacity fraction",
                     Table::percent(rr.degradedCapacityFraction)});
    injected.print();

    if (!rr.events.empty()) {
        Table events("recovery log");
        events.setHeader({"t", "Kind", "Detail"});
        for (const auto &e : rr.events)
            events.addRow({Table::integer(e.snapshot), e.kind,
                           e.detail});
        events.print();
    }
    const double slowdown = baseline.totalCycles > 0
        ? static_cast<double>(faulted.totalCycles) /
            static_cast<double>(baseline.totalCycles)
        : 1.0;
    std::printf("degraded-mode slowdown: %.3fx\n", slowdown);
}

void
inspectProgram(const graph::DynamicGraph &dg, bool verbose)
{
    const model::DgnnConfig mconfig;
    model::IncrementalPlanner planner(dg, mconfig,
                                      model::AlgoKind::DiTileAlg);
    const auto &plan = planner.plan(
        std::min<SnapshotId>(1, dg.numSnapshots() - 1));
    // A representative tile worklist: the first 16th of the layer-0
    // set.
    std::vector<VertexId> worklist;
    std::size_t i = 0;
    plan.gcn[0].vertices.forEach([&](VertexId v) {
        if (i++ % 16 == 0)
            worklist.push_back(v);
    });
    const auto program = sim::buildGnnLayerProgram(
        dg.snapshot(0), mconfig, 0, dg.featureDim(), worklist, {},
        128);
    std::printf("tile program: %zu instructions for %zu vertices\n",
                program.size(), worklist.size());
    const auto totals = sim::operandTotals(program);
    std::printf("operand totals: MAC=%llu GLD=%llu ACT=%llu STO=%llu "
                "SND=%llu\n",
                static_cast<unsigned long long>(totals[
                    static_cast<std::size_t>(sim::Opcode::Mac)]),
                static_cast<unsigned long long>(totals[
                    static_cast<std::size_t>(
                        sim::Opcode::GatherLoad)]),
                static_cast<unsigned long long>(totals[
                    static_cast<std::size_t>(sim::Opcode::Activate)]),
                static_cast<unsigned long long>(totals[
                    static_cast<std::size_t>(
                        sim::Opcode::StoreOutput)]),
                static_cast<unsigned long long>(totals[
                    static_cast<std::size_t>(sim::Opcode::SendMsg)]));
    if (verbose)
        std::fputs(sim::disassemble(program).c_str(), stdout);
}

int
inspectTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        DITILE_FATAL("cannot open trace '", path, "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::vector<TraceEvent> events;
    try {
        events = Tracer::parseChromeJson(buffer.str());
    } catch (const std::runtime_error &e) {
        DITILE_FATAL("failed to parse trace '", path, "': ", e.what());
    }
    Table table("trace rollup: " + path);
    table.setHeader({"Category", "Name", "Count", "Total dur",
                     "First ts", "Last end"});
    for (const auto &row : Tracer::rollupEvents(events)) {
        table.addRow({row.cat, row.name,
                      Table::integer(static_cast<long long>(row.count)),
                      Table::integer(static_cast<long long>(
                          row.totalDur)),
                      Table::integer(static_cast<long long>(
                          row.firstTs)),
                      Table::integer(static_cast<long long>(
                          row.lastEnd))});
    }
    table.print();
    std::printf("%zu events\n", events.size());
    return 0;
}

int
runTool(const CliFlags &flags)
{
    if (flags.positional().empty()) {
        DITILE_FATAL("usage: ditile_inspect dataset|stats|plan|"
                     "mapping|program|resilience|trace [flags]");
    }
    const auto &command = flags.positional().front();
    ThreadPool::setGlobalThreads(
        static_cast<int>(flags.getInt("threads", 1)));
    if (command == "trace") {
        if (flags.positional().size() != 2)
            DITILE_FATAL("usage: ditile_inspect trace FILE");
        return inspectTrace(flags.positional()[1]);
    }
    if (command == "plan" && flags.has("diff")) {
        if (flags.positional().size() != 3) {
            DITILE_FATAL("usage: ditile_inspect plan --diff "
                         "a.json b.json");
        }
        return diffPlans(flags.positional()[1],
                         flags.positional()[2]);
    }
    // The first positional argument is the command, not a snapshot
    // file.
    const auto dg = tools::buildWorkload(flags, {});
    if (command == "dataset") {
        inspectDataset(dg);
    } else if (command == "stats") {
        inspectStats(dg);
    } else if (command == "plan") {
        if (flags.has("dump"))
            dumpPlan(dg, flags);
        else if (flags.has("tasks"))
            dumpTasks(dg, flags);
        else
            inspectPlan(dg, algoFromFlag(flags));
    } else if (command == "mapping") {
        inspectMapping(dg);
    } else if (command == "program") {
        inspectProgram(dg, flags.getBool("verbose", false));
    } else if (command == "resilience") {
        inspectResilience(dg, flags);
    } else {
        DITILE_FATAL("unknown command '", command, "'");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliFlags flags = CliFlags::parse(argc, argv);
    flags.requireKnown({kFlags, tools::kWorkloadFlags});
    try {
        return runTool(flags);
    } catch (const std::exception &e) {
        DITILE_FATAL(e.what());
    }
}
