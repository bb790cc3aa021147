/**
 * @file
 * Continuous-time dynamic graphs (paper §2.1).
 *
 * The paper's background distinguishes continuous-time dynamic graphs
 * — a pair <G, O> of an initial graph and a timestamped update stream
 * — from the discrete snapshot sequence the accelerator consumes
 * (Eq. 1). This module provides the CTDG representation plus the
 * regular-interval sampling that turns it into a DynamicGraph, so
 * event-log workloads (the natural form of most real dynamic-graph
 * sources) can drive the accelerator directly. The sampling has no
 * replay of its own: it runs the stream through a two-snapshot
 * SnapshotWindow (graph/window.hh), the same replay the serving tier
 * uses, and collects each rolled snapshot and its delta, so it costs
 * O(T) rolls of O(V + E) each rather than re-hashing every prefix.
 */

#ifndef DITILE_GRAPH_CTDG_HH
#define DITILE_GRAPH_CTDG_HH

#include <string>
#include <vector>

#include "common/rng.hh"
#include "graph/dynamic_graph.hh"

namespace ditile::graph {

/**
 * One timestamped structural update.
 */
struct GraphEvent
{
    enum class Kind { AddEdge, RemoveEdge };

    Kind kind = Kind::AddEdge;
    VertexId u = 0;
    VertexId v = 0;
    double timestamp = 0.0;
};

/**
 * The pair <G, O>: an initial static graph plus a time-ordered update
 * stream.
 */
class ContinuousDynamicGraph
{
  public:
    /**
     * @param events Must be sorted by timestamp (ascending), with
     *        endpoints inside initial's vertex universe (checked;
     *        readEventStream() turns a violation in a file into
     *        InputError). Events that are no-ops against the running
     *        state (adding an existing edge, removing a missing one,
     *        self loops) are tolerated and skipped during replay.
     */
    ContinuousDynamicGraph(std::string name, Csr initial,
                           std::vector<GraphEvent> events);

    const std::string &name() const { return name_; }
    const Csr &initial() const { return initial_; }
    const std::vector<GraphEvent> &events() const { return events_; }

    /** Timestamp span [begin, end] of the event stream (0,0 if none). */
    double beginTime() const;
    double endTime() const;

    /**
     * Eq. 1 sampling: replay the stream through a two-snapshot
     * SnapshotWindow, rolling it at regular intervals across the event
     * span and collecting each rolled snapshot and its delta. Snapshot
     * 0 is the initial graph; snapshot t
     * reflects every event with timestamp
     * <= begin + t * (end - begin) / (num_snapshots - 1).
     */
    DynamicGraph discretize(SnapshotId num_snapshots,
                            int feature_dim) const;

  private:
    std::string name_;
    Csr initial_;
    std::vector<GraphEvent> events_;
};

/**
 * Parameters for synthetic event-stream generation.
 */
struct EventStreamConfig
{
    std::string name = "ctdg";
    VertexId numVertices = 1024;
    EdgeId initialEdges = 8192;
    std::size_t numEvents = 2000;
    double duration = 100.0;      ///< Event timestamps span [0, dur].
    double removalFraction = 0.5; ///< Share of removal events.
    std::uint64_t seed = 1;
};

/**
 * Synthesize a CTDG: R-MAT initial graph plus a uniformly timed
 * add/remove event stream (R-MAT-skewed endpoints for additions,
 * uniform picks among live edges for removals).
 */
ContinuousDynamicGraph generateEventStream(
    const EventStreamConfig &config);

} // namespace ditile::graph

#endif // DITILE_GRAPH_CTDG_HH
