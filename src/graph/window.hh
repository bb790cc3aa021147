/**
 * @file
 * Snapshot windows over a continuous event stream: the one event
 * replay of the graph layer.
 *
 * A SnapshotWindow's state is one DynamicGraph of the W most recent
 * snapshots and their deltas, plus the one pending delta since the
 * newest snapshot: the edge keys added and removed by the events
 * applied since the last roll. An event is O(1) against that state (a
 * binary search in the newest snapshot and a hash probe; no-op events
 * are counted and skipped), and an add and a remove of one edge
 * between two rolls cancel. roll() patches the newest snapshot with
 * the pending delta (Csr::patched), appends the result and that delta,
 * and at capacity drops the oldest snapshot and its delta. graph() is
 * a plain accessor, so back-to-back queries on a quiet tenant see the
 * same graph object — same structure hash — and ride the
 * PlanCache/DigestCache instead of replanning.
 *
 * Both consumers of the Eq.-1 replay run through it: the serving tier
 * keeps one window per tenant, and ContinuousDynamicGraph::discretize()
 * replays a whole stream through a two-snapshot window, collecting
 * each rolled snapshot and its delta.
 */

#ifndef DITILE_GRAPH_WINDOW_HH
#define DITILE_GRAPH_WINDOW_HH

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/ctdg.hh"
#include "graph/dynamic_graph.hh"

namespace ditile::graph {

/**
 * Bounded window of snapshots plus the pending delta since the newest.
 *
 * Not thread-safe: callers (the serve control loop) apply events and
 * roll snapshots from one thread; the DynamicGraph returned by graph()
 * may be read concurrently, but only between mutations.
 */
class SnapshotWindow
{
  public:
    /**
     * @param name Workload name stamped on materialized graphs.
     * @param initial Snapshot 0; defines the fixed vertex universe.
     * @param capacity Max snapshots retained (>= 1); older snapshots
     *        fall out of the window as new ones roll in.
     * @param feature_dim Vertex feature width of the served model.
     */
    SnapshotWindow(std::string name, Csr initial, SnapshotId capacity,
                   int feature_dim);

    /**
     * Checkpointed counters, grouped for the restore path.
     */
    struct Counters
    {
        std::uint64_t appliedEvents = 0;
        std::uint64_t noopEvents = 0;
        std::uint64_t rolls = 0;
        std::uint64_t sinceRoll = 0;
    };

    /**
     * Rebuild a window from checkpointed state (crash recovery): the
     * oldest snapshot, the delta to each later one, the pending delta
     * against the newest snapshot, and the event counters.
     * The snapshots are patched from the oldest (Csr::patched), not
     * rebuilt or re-diffed. Throws InputError on a corrupt checkpoint:
     * a delta count other than min(rolls, capacity - 1), or a delta
     * (pending included) that is not canonical (u < v, strictly
     * ascending, in range) or does not apply to the snapshot before
     * it (a removed edge missing, an added edge present). A restored
     * window is behaviorally identical to one that applied the
     * original event stream.
     */
    static SnapshotWindow restore(std::string name, SnapshotId capacity,
                                  int feature_dim, Csr oldest,
                                  std::vector<GraphDelta> deltas,
                                  const GraphDelta &pending,
                                  const Counters &counters);

    /**
     * Apply one structural event to the pending delta. Out-of-universe
     * endpoints throw InputError; no-op events (adding a live edge,
     * removing a missing one, self loops) are counted and skipped.
     * Adding an edge pending removal cancels the removal, and removing
     * an edge pending addition cancels the addition.
     */
    void apply(const GraphEvent &event);

    /**
     * Patch the newest snapshot with the pending delta and append it
     * as the new newest snapshot (with that delta, unless capacity is
     * 1). At capacity the oldest snapshot and its delta leave the
     * window.
     */
    void roll();

    /**
     * The current window, oldest -> newest (size = min(rolls + 1,
     * capacity)). Only roll() replaces it, so repeated calls between
     * rolls see the identical graph and downstream content-hash
     * caches hit.
     */
    const DynamicGraph &graph() const { return graph_; }

    const std::string &name() const { return graph_.name(); }
    VertexId numVertices() const { return graph_.numVertices(); }
    SnapshotId capacity() const { return capacity_; }

    /** Snapshots currently in the window. */
    SnapshotId windowSize() const { return graph_.numSnapshots(); }

    /** Live (undirected) edge count, including unrolled mutations. */
    EdgeId liveEdges() const
    {
        return newest().numEdges() + static_cast<EdgeId>(added_.size()) -
            static_cast<EdgeId>(removed_.size());
    }

    std::uint64_t appliedEvents() const { return appliedEvents_; }
    std::uint64_t noopEvents() const { return noopEvents_; }
    std::uint64_t rolls() const { return rolls_; }

    /** Events applied since the last roll(). */
    std::uint64_t eventsSinceRoll() const { return sinceRoll_; }

    int featureDim() const { return graph_.featureDim(); }

    /**
     * The pending delta against the newest snapshot, sorted into
     * canonical order (the hash sets' order never leaks): what roll()
     * patches in and restore() takes back.
     */
    GraphDelta pendingDelta() const;

  private:
    SnapshotWindow(DynamicGraph graph, SnapshotId capacity)
        : capacity_(capacity), graph_(std::move(graph))
    {
    }

    const Csr &newest() const
    {
        return graph_.snapshot(graph_.numSnapshots() - 1);
    }

    SnapshotId capacity_ = 1;
    DynamicGraph graph_; ///< The window, stored once.

    /// edgeKey()s of the pending delta: added_ holds edges absent from
    /// the newest snapshot, removed_ edges present in it.
    std::unordered_set<std::uint64_t> added_;
    std::unordered_set<std::uint64_t> removed_;

    std::uint64_t appliedEvents_ = 0;
    std::uint64_t noopEvents_ = 0;
    std::uint64_t rolls_ = 0;
    std::uint64_t sinceRoll_ = 0;
};

} // namespace ditile::graph

#endif // DITILE_GRAPH_WINDOW_HH
