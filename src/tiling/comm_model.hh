/**
 * @file
 * Analytical DRAM and inter-tile communication models (paper §4).
 *
 * Implements Eq. 5-16: the subgraph-tiling DRAM-access model and the
 * three inter-tile communication components (temporal, redundancy-free
 * spatial, reuse). Communication amounts are in *vertex-feature
 * transfers* — multiply by the feature width and word size to get
 * bytes, which is what the NoC and energy layers do.
 *
 * Convention note. The paper uses Ps ("snapshots per tile") and Pv
 * ("vertices per tile") but also uses the same symbols as partition
 * *counts* inside Eq. 12, and bounds both by sqrt(TotalTiles) in
 * Algorithm 1. We resolve the ambiguity with explicit grid factors:
 *
 *   - snapshotGroups (Gs): number of snapshot groups mapped along one
 *     array dimension; Ps = ceil(T / Gs) snapshots per group.
 *   - vertexParts (Gv): number of vertex partitions per subgraph
 *     mapped along the other dimension; Pv = ceil(AvgSV / Gv).
 *
 * Gs * Gv <= TotalTiles. Every equation below is written in terms of
 * Gs/Gv and reduces to the paper's formulas under this reading.
 */

#ifndef DITILE_TILING_COMM_MODEL_HH
#define DITILE_TILING_COMM_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/content_cache.hh"
#include "common/types.hh"
#include "graph/dynamic_graph.hh"

namespace ditile::tiling {

/**
 * Application features consumed by Algorithm 1 (its first input block).
 */
struct ApplicationFeatures
{
    int gcnLayers = 2;                   ///< L.
    SnapshotId numSnapshots = 0;         ///< T.
    std::vector<double> vertices;        ///< V_i per snapshot.
    std::vector<double> edges;           ///< E_i per snapshot (adjacency
                                         ///< entries, i.e. directed).
    std::vector<double> dissimilarity;   ///< Dis_i for i in [1, T).
    int featureDim = 0;
    /** Widest per-vertex on-chip record: features + intermediates. */
    int residentDims = 0;
    int bytesPerValue = 4;

    /** Extract from a dynamic graph and model-layer widths. */
    static ApplicationFeatures fromGraph(const graph::DynamicGraph &dg,
                                         int gcn_layers,
                                         int resident_dims,
                                         int bytes_per_value);

    double avgVertices() const;
    double avgEdges() const;
    double avgDissimilarity() const;
};

/**
 * Hardware features consumed by Algorithm 1 (its second input block).
 */
struct HardwareFeatures
{
    int totalTiles = 256;                       ///< 16 x 16 array.
    ByteCount distributedBufferBytes = 4u << 20; ///< Per-tile buffer.
};

/** Per-vertex resident bytes (features + adjacency slice). */
double subgraphBytesPerVertex(const ApplicationFeatures &app);

/**
 * Eq. 6: total DRAM access (in vertex-feature units) for tiling factor
 * a: every vertex read once per snapshot plus cross-subgraph refetch.
 */
double dramAccessModel(const ApplicationFeatures &app, int tiling_factor);

/**
 * Eq. 8: inter-tile temporal communication for Gs snapshot groups.
 */
double temporalComm(const ApplicationFeatures &app, int tiling_factor,
                    int snapshot_groups);

/** Eq. 11: total spatial communication of all subgraphs. */
double totalSpatialComm(const ApplicationFeatures &app, int tiling_factor);

/** Eq. 12: intra-tile share of spatial communication for Gv parts. */
double intraTileSpatialComm(const ApplicationFeatures &app,
                            int tiling_factor, int vertex_parts);

/** Eq. 10: inter-tile spatial communication without redundancy reuse. */
double spatialComm(const ApplicationFeatures &app, int tiling_factor,
                   int vertex_parts);

/** Eq. 15: per-vertex spatial communication over L layers. */
double vertexSpatialComm(const ApplicationFeatures &app);

/** Eq. 14: total redundant spatial communication of all subgraphs. */
double totalRedundantSpatialComm(const ApplicationFeatures &app,
                                 int tiling_factor);

/**
 * Eq. 9 + 13: redundancy-free inter-tile spatial communication
 * (clamped to [0, Scomm]).
 */
double redundancyFreeSpatialComm(const ApplicationFeatures &app,
                                 int tiling_factor, int vertex_parts);

/** Eq. 16: inter-tile reuse communication. */
double reuseComm(const ApplicationFeatures &app, int tiling_factor,
                 int snapshot_groups);

/** Eq. 7: Tcomm + RFScomm + ReComm. */
double totalComm(const ApplicationFeatures &app, int tiling_factor,
                 int snapshot_groups, int vertex_parts);

/**
 * The three Eq. 7 components of one (a, Gs, Gv) grid point, kept
 * separate so the optimizer can report them without re-deriving.
 * totalUnits() sums them in the same left-to-right order as
 * totalComm(), so a memoized breakdown is bit-identical to a direct
 * evaluation.
 */
struct CommBreakdown
{
    double tcomm = 0.0;   ///< Eq. 8.
    double rfscomm = 0.0; ///< Eq. 9 + 13.
    double recomm = 0.0;  ///< Eq. 16.

    double
    totalUnits() const
    {
        return tcomm + rfscomm + recomm;
    }
};

/** Evaluate Eq. 8-16 once for one grid point (no memoization). */
CommBreakdown commBreakdown(const ApplicationFeatures &app,
                            int tiling_factor, int snapshot_groups,
                            int vertex_parts);

/**
 * Content key over every field Eq. 8-16 reads from the application
 * features (word-wise FNV-1a, common/hash.hh, over the mix64 of
 * each scalar width and of each per-snapshot value's bit pattern).
 * Two feature sets with the same key share every communication-model
 * value.
 */
std::uint64_t appFeatureKey(const ApplicationFeatures &app);

/**
 * Process-wide memo of Eq. 8-16 evaluations keyed on
 * (appFeatureKey, a, Gs, Gv). Algorithm 1's parallelism sweep walks
 * the full Gs x Gv grid per accelerator, and every accelerator
 * family planning the same dynamic graph walks the *same* grid — the
 * memo collapses those repeat passes to hash lookups. A silent,
 * unbounded cache under the shared policy of common/content_cache.hh:
 * racing sweep points compute the identical value and one publishes.
 */
class CommModelCache
{
  public:
    /** Memoized commBreakdown(); computes and inserts on miss. */
    CommBreakdown get(const ApplicationFeatures &app, int tiling_factor,
                      int snapshot_groups, int vertex_parts);

    /**
     * Same, with appFeatureKey(app) precomputed by the caller — the
     * key walks the per-snapshot vectors, so sweep loops hoist it.
     */
    CommBreakdown get(const ApplicationFeatures &app,
                      std::uint64_t app_key, int tiling_factor,
                      int snapshot_groups, int vertex_parts);

    std::uint64_t hits() const { return points_.hits(); }
    std::uint64_t misses() const { return points_.misses(); }
    std::size_t size() const { return points_.size(); }

    /** Process-wide instance shared by planners and tools. */
    static CommModelCache &global();

  private:
    struct PointKey
    {
        std::uint64_t app = 0;
        int a = 0;
        int gs = 0;
        int gv = 0;

        bool
        operator==(const PointKey &o) const
        {
            return app == o.app && a == o.a && gs == o.gs && gv == o.gv;
        }
    };
    struct PointKeyHash
    {
        std::size_t operator()(const PointKey &k) const;
    };

    ContentCache<PointKey, CommBreakdown, PointKeyHash> points_;
};

} // namespace ditile::tiling

#endif // DITILE_TILING_COMM_MODEL_HH
