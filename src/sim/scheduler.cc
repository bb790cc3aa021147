/**
 * @file
 * Ready-time-propagation scheduler implementation.
 */

#include "sim/scheduler.hh"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

#include "common/logging.hh"

namespace ditile::sim {

ScheduleResult
scheduleTaskGraph(const TaskGraph &graph)
{
    const std::size_t n = graph.nodes.size();
    ScheduleResult sched;
    sched.tasks.resize(n);
    sched.lanes.resize(graph.lanes.size());
    if (n == 0)
        return sched;

    std::vector<std::vector<int>> succ(n);
    std::vector<int> indeg(n, 0);
    for (const auto &[src, dst] : graph.edges) {
        succ[static_cast<std::size_t>(src)].push_back(dst);
        ++indeg[static_cast<std::size_t>(dst)];
    }

    // ready[i] = max finish over scheduled dependencies; critDep[i]
    // the dependency that set it (first writer wins on equal finish,
    // which is the smallest id since propagation is deterministic).
    std::vector<Cycle> ready(n, 0);
    std::vector<int> crit_dep(n, -1);
    std::vector<Cycle> lane_free(graph.lanes.size(), 0);
    std::vector<int> lane_prev(graph.lanes.size(), -1);

    using Entry = std::pair<Cycle, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        heap;
    for (std::size_t i = 0; i < n; ++i) {
        if (indeg[i] == 0)
            heap.emplace(0, static_cast<int>(i));
    }

    std::size_t scheduled = 0;
    while (!heap.empty()) {
        const auto [dep_ready, id] = heap.top();
        heap.pop();
        const auto ui = static_cast<std::size_t>(id);
        const TaskNode &node = graph.nodes[ui];
        const auto li = static_cast<std::size_t>(node.lane);
        const Cycle start = std::max(dep_ready, lane_free[li]);
        const Cycle finish = start + node.duration;
        ScheduledTask &st = sched.tasks[ui];
        st.start = start;
        st.finish = finish;
        if (start == 0) {
            st.critPred = -1;
        } else if (lane_free[li] > dep_ready && lane_prev[li] != -1) {
            st.critPred = lane_prev[li];
        } else {
            st.critPred = crit_dep[ui];
        }
        lane_free[li] = finish;
        lane_prev[li] = id;
        sched.lanes[li].tasks += 1;
        sched.lanes[li].busyCycles += node.duration;
        sched.makespan = std::max(sched.makespan, finish);
        ++scheduled;
        for (const int s : succ[ui]) {
            const auto si = static_cast<std::size_t>(s);
            if (finish > ready[si]) {
                ready[si] = finish;
                crit_dep[si] = id;
            }
            if (--indeg[si] == 0)
                heap.emplace(ready[si], s);
        }
    }
    DITILE_ASSERT(scheduled == n, "task graph has a dependency cycle");

    // Critical path: backtrack from the last-finishing task (smallest
    // id on ties, so the walk is canonical).
    int end = -1;
    for (std::size_t i = 0; i < n; ++i) {
        if (end == -1 || sched.tasks[i].finish >
                sched.tasks[static_cast<std::size_t>(end)].finish)
            end = static_cast<int>(i);
    }
    for (int cur = end; cur != -1;
         cur = sched.tasks[static_cast<std::size_t>(cur)].critPred)
        sched.criticalPath.push_back(cur);
    std::reverse(sched.criticalPath.begin(), sched.criticalPath.end());
    return sched;
}

TaskGraphStats
taskGraphStats(const TaskGraph &graph, const ScheduleResult &sched)
{
    TaskGraphStats ts;
    ts.numTasks = graph.nodes.size();
    ts.numEdges = graph.edges.size();
    ts.makespan = sched.makespan;
    ts.lanes.reserve(graph.lanes.size());
    for (std::size_t li = 0; li < graph.lanes.size(); ++li) {
        ts.lanes.push_back({graph.lanes[li].name(),
                            sched.lanes[li].tasks,
                            sched.lanes[li].busyCycles});
    }
    ts.tasks.reserve(graph.nodes.size());
    for (const TaskNode &n : graph.nodes) {
        const auto ni = static_cast<std::size_t>(n.id);
        ts.tasks.push_back(
            {n.id, taskKindToken(n.kind), n.snapshot,
             graph.lanes[static_cast<std::size_t>(n.lane)].name(),
             sched.tasks[ni].start, sched.tasks[ni].finish, false});
    }
    // Nodes are in id order, so ts.tasks is indexed by task id.
    for (const int id : sched.criticalPath)
        ts.tasks[static_cast<std::size_t>(id)].critical = true;
    return ts;
}

} // namespace ditile::sim
