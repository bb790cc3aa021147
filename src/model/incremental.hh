/**
 * @file
 * Execution planning for the four DGNN update algorithms (paper §7.1).
 *
 * Every accelerator in the evaluation runs one of four algorithms:
 *
 *  - **Re-Alg** (ReaDy, DGNN-Booster): full recomputation of every
 *    snapshot.
 *  - **Race-Alg** (RACE): redundancy-aware incremental execution that
 *    skips vertices whose per-layer (intermediate) features are
 *    unchanged. Both edge additions and edge deletions seed
 *    recomputation, and the affected set grows per GCN layer.
 *  - **Mega-Alg** (MEGA): transforms deletions into additions over the
 *    mutually inclusive (common) graph, so only added edges seed
 *    recomputation — but it tracks redundancy only at output-feature
 *    granularity, so all layers recompute the full L-hop affected set
 *    (no intermediate-feature reuse).
 *  - **DiTile-Alg** (this paper): deletion-to-addition transform AND
 *    per-layer intermediate reuse AND a selective RNN that only
 *    updates vertices whose GNN output or hidden state changed.
 *
 * ### Value-level propagation damping
 *
 * Expanding affected sets by the exact structural frontier saturates
 * any well-connected graph within two hops, which contradicts the
 * empirical observation all of these accelerators build on: 86.7-95.9%
 * of vertices keep identical features across snapshots (RACE's
 * measurement, quoted in §3.1.1 of the paper). The reason is
 * numerical: GCN aggregation weights each neighbor by the normalized
 * Laplacian coefficient 1/sqrt(deg_u * deg_v), so one changed neighbor
 * among many rarely changes the aggregate past the reuse threshold.
 * The planner therefore expands frontiers *stochastically*: a change
 * at u propagates across edge (u,v) with probability
 * min(1, kappa / sqrt(deg_u * deg_v)) — i.e. an expected kappa
 * downstream changes per changed vertex, independent of degree. The
 * sampling is a deterministic hash of the crossing (v, u) and a salt
 * t*16 + l of the snapshot index t and the layer l, so plans are
 * reproducible. Passing exact_expansion = true restores the exact
 * structural frontier (used by the functional-equivalence tests).
 *
 * Because the salt carries t, plans are *prefix-closed* but not
 * shift-invariant. Snapshot t's GCN sets depend on snapshot t, its
 * delta and t alone, and the RNN sets on the plans up to t, so any two
 * graphs that share their first k snapshots share their first k plans
 * (PlanCache extends a resident prefix on that rule). The same
 * snapshot pair at another position samples other crossings, so a
 * rolled window cannot reuse the previous window's layer sets.
 *
 * A SnapshotPlan captures exactly which vertices recompute at each GCN
 * layer, how many adjacency entries they gather, how many distinct
 * input features they read, and which vertices run the LSTM. Both the
 * op/byte accounting and the cycle-level simulator consume these
 * plans, so the algorithmic comparison is identical across Figures 7,
 * 8, 9 and 12. Its vertex sets are VertexSets: a full recompute's
 * sets are all(n) bounds, and plans that repeat a set share its list.
 */

#ifndef DITILE_MODEL_INCREMENTAL_HH
#define DITILE_MODEL_INCREMENTAL_HH

#include <optional>
#include <string>
#include <vector>

#include "graph/dynamic_graph.hh"
#include "model/dgnn_config.hh"
#include "model/vertex_set.hh"

namespace ditile::model {

/** Expected downstream value changes per changed vertex per layer. */
inline constexpr double kDefaultKappa = 1.2;

/** The four evaluated DGNN update algorithms. */
enum class AlgoKind { ReAlg, RaceAlg, MegaAlg, DiTileAlg };

/** Short display name ("Re-Alg", ...). */
const char *algoName(AlgoKind kind);

/** All four algorithms in paper presentation order. */
const std::vector<AlgoKind> &allAlgorithms();

/**
 * Work performed at one GCN layer of one snapshot.
 */
struct LayerWork
{
    /** Vertices whose layer output is recomputed. */
    VertexSet vertices;

    /** Adjacency entries gathered (sum of degrees over vertices). */
    EdgeId gatherEdges = 0;

    /**
     * Distinct vertices whose layer-input features are read
     * (the recomputed vertices plus their neighbors).
     */
    VertexId uniqueInputs = 0;
};

/**
 * Complete execution plan for one snapshot under one algorithm.
 */
struct SnapshotPlan
{
    /** Per-GCN-layer work, size == L. */
    std::vector<LayerWork> gcn;

    /** Vertices whose LSTM state is recomputed. */
    VertexSet rnnVertices;

    /** Changed edges whose adjacency metadata is processed. */
    std::size_t adjacencyUpdates = 0;

    /** True for snapshot 0 and for Re-Alg on every snapshot. */
    bool fullRecompute = false;
};

/**
 * Produces SnapshotPlans for a dynamic graph under one algorithm.
 * Plans for all snapshots are built eagerly in the constructor
 * (DiTile's selective RNN needs the cumulative changed-state history).
 */
class IncrementalPlanner
{
  public:
    /**
     * @param exact_expansion Disable value-level damping and expand
     *        affected sets by the exact structural frontier.
     * @param kappa Expected downstream value changes per changed
     *        vertex per layer (ignored when exact_expansion).
     */
    IncrementalPlanner(const graph::DynamicGraph &dg,
                       const DgnnConfig &config, AlgoKind kind,
                       bool exact_expansion = false,
                       double kappa = kDefaultKappa);

    /**
     * Default-damping planner that keeps `prefix`, the plans of a
     * graph whose first prefix.size() snapshots equal dg's, and plans
     * only the later snapshots (see "prefix-closed" above). Every RNN
     * set is refilled over the whole sequence.
     */
    IncrementalPlanner(const graph::DynamicGraph &dg,
                       const DgnnConfig &config, AlgoKind kind,
                       std::vector<SnapshotPlan> prefix);

    /** Plan for snapshot t (t in [0, T)). */
    const SnapshotPlan &plan(SnapshotId t) const;

    AlgoKind kind() const { return kind_; }
    const DgnnConfig &config() const { return config_; }

    /** Move every plan out; the planner is left without plans. */
    std::vector<SnapshotPlan> releasePlans() { return std::move(plans_); }

  private:
    SnapshotPlan fullPlan(SnapshotId t) const;

    /** Plan snapshots [plans_.size(), T), then fill every RNN set. */
    void buildAll();

    /**
     * One damped (or exact) BFS level from `from` on snapshot t's
     * graph; returns from's union with the propagated neighbors. The
     * same walk stores |from union N(from)| in `unique_inputs`.
     */
    std::vector<VertexId> expandOnce(const graph::Csr &g,
                                     const std::vector<VertexId> &from,
                                     int salt, double kappa,
                                     VertexId &unique_inputs) const;

    const graph::DynamicGraph &dg_;
    DgnnConfig config_;
    AlgoKind kind_;
    bool exactExpansion_;
    double kappa_;
    std::vector<SnapshotPlan> plans_;
};

/**
 * Fill every plan's rnnVertices from its GCN layer sets: DiTile's
 * selective RNN updates the cumulative union of the last layer's sets
 * over its incremental snapshots; full recomputes and every other
 * algorithm update all vertices. The one home of that rule:
 * IncrementalPlanner and PlanCache's sibling derivation both call it.
 * A plan that already holds its set (a reused prefix) keeps it, and
 * consecutive equal sets share one list.
 */
void assignRnnVertices(const graph::DynamicGraph &dg, AlgoKind kind,
                       std::vector<SnapshotPlan> &plans);

/**
 * The algorithm whose default-planner GCN layer sets (and adjacency
 * updates) equal kind's — Race-Alg and DiTile-Alg share seeds, kappa
 * and salt — or nullopt. Sibling plans differ only in rnnVertices.
 */
std::optional<AlgoKind> layerSetSibling(AlgoKind kind);

} // namespace ditile::model

#endif // DITILE_MODEL_INCREMENTAL_HH
