/**
 * @file
 * One observability path for chip and cluster runs.
 *
 * Both timelines (a chip's task graph and a scale-out cluster's, each
 * timed by schedule()) hand their duration-annotated graph, its
 * schedule and the finished RunResult to emitRunTrace(). It draws one
 * span per scheduled task at the task's scheduled start, so a trace
 * shows each phase where the model ran it, in the overlap and the
 * staged timeline alike. Counters are computed once, into
 * RunResult.stats; the metrics registry is published from there
 * through kRegistryFromStats.
 *
 * Everything is emitted from serial program points out of data the
 * ordered reductions already pinned, so traces and registry totals
 * are bit-identical at any --threads width (see common/trace.hh).
 */

#ifndef DITILE_SIM_RUN_TRACE_HH
#define DITILE_SIM_RUN_TRACE_HH

#include <utility>

#include "sim/run_result.hh"
#include "sim/scheduler.hh"
#include "sim/task_graph.hh"

namespace ditile::sim {

/**
 * Registry path <- RunResult.stats key, published once per chip run.
 * A cluster run publishes nothing: its chip runs already did.
 */
inline constexpr std::pair<const char *, const char *>
    kRegistryFromStats[] = {
        {"engine.digest_full_fastpath", "engine.digest_full_fastpath"},
        {"engine.digest_rnn_fastpath", "engine.digest_rnn_fastpath"},
        {"engine.scratch_snapshots", "engine.scratch_snapshots"},
        {"noc.spatial_bytes", "noc.spatial_bytes"},
        {"noc.temporal_bytes", "noc.temporal_bytes"},
        {"noc.reuse_bytes", "noc.reuse_bytes"},
        {"dram.row_hits", "dram.row_hits"},
        {"dram.row_misses", "dram.row_misses"},
        {"dram.row_conflicts", "dram.row_conflicts"},
        {"relink.engaged_snapshots", "relink.engaged_snapshots"},
        {"taskgraph.scheduled_tasks", "taskgraph.tasks"},
};

/**
 * Write every stat that mirrors a RunResult field (cycles.*,
 * pe.utilization, ops.total, dram.bytes, noc.bytes, energy.*, and
 * resilience.* when enabled). Existing keys keep their position, so a
 * cluster run can overwrite the sums it merged from its chips.
 */
void writeFieldStats(RunResult &result);

/**
 * Emit a finished run: trace spans (when tracing) on the calling
 * thread's track group, and registry totals (when metrics are on) for
 * chip runs. `graph` carries the durations `sched` was computed from.
 */
void emitRunTrace(const TaskGraph &graph, const ScheduleResult &sched,
                  const RunResult &result);

} // namespace ditile::sim

#endif // DITILE_SIM_RUN_TRACE_HH
