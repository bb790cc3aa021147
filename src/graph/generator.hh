/**
 * @file
 * Synthetic dynamic-graph generation.
 *
 * Real DGNN datasets (Table 1 of the paper) are not redistributable, so
 * the reproduction synthesizes dynamic graphs with matched vertex count,
 * edge count, feature width, degree skew (R-MAT), and inter-snapshot
 * dissimilarity rate. The accelerator models depend only on these
 * structural properties, so the synthetic equivalents exercise the same
 * code paths and produce the same relative behaviour.
 */

#ifndef DITILE_GRAPH_GENERATOR_HH
#define DITILE_GRAPH_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hh"
#include "graph/dynamic_graph.hh"

namespace ditile::graph {

/**
 * R-MAT recursive quadrant probabilities. Defaults give the usual
 * skewed social-network-like degree distribution.
 */
struct RmatParams
{
    double a = 0.57;
    double b = 0.19;
    double c = 0.19;
    // d = 1 - a - b - c.
};

/**
 * Parameters for one synthetic discrete-time dynamic graph.
 */
struct EvolutionConfig
{
    std::string name = "synthetic";
    VertexId numVertices = 1024;
    EdgeId numEdges = 8192;        ///< Undirected edges in each snapshot.
    SnapshotId numSnapshots = 8;   ///< T.
    double dissimilarity = 0.10;   ///< Target affected-vertex fraction.
    int featureDim = 64;
    RmatParams rmat;
    std::uint64_t seed = 1;
};

/**
 * R-MAT recursion depth for num_vertices: the smallest levels with
 * 2^levels >= num_vertices. Draws landing at or above num_vertices
 * are rejected by the callers.
 */
int rmatLevels(VertexId num_vertices);

/**
 * One R-MAT endpoint pair draw over a 2^levels universe. Each level
 * picks a quadrant from one uniform r: [0,a) top-left, [a,a+b)
 * top-right (v bit), [a+b,a+b+c) bottom-left (u bit), else
 * bottom-right (both bits), computed without branches. The pair is
 * uncanonicalized and may fall outside the universe or be a self loop.
 */
Edge rmatDraw(int levels, const RmatParams &params, Rng &rng);

/** Generate one static R-MAT graph (symmetric CSR, no self loops). */
Csr generateRmat(VertexId num_vertices, EdgeId num_edges,
                 const RmatParams &params, Rng &rng);

/**
 * Generate a dynamic graph by evolving an R-MAT base snapshot.
 *
 * Each step alternates edge removals and additions until the affected
 * vertex set reaches the configured dissimilarity target, keeping the
 * edge count approximately constant. Deltas are recorded exactly as
 * applied (no re-diffing) and snapshot t >= 1 is patched from snapshot
 * t-1 and its delta (Csr::patched), so a step costs O(changes) to draw
 * plus O(V + E) to copy the unchanged rows.
 */
DynamicGraph generateDynamicGraph(const EvolutionConfig &config);

/**
 * The seed snapshot generateDynamicGraph's memo holds for config's
 * inputs, or null. Snapshot 0 and the Rng state after it depend only
 * on (numVertices, numEdges, rmat, seed), so every graph with those
 * inputs (the points of a dis x T sweep) shares one snapshot 0, drawn
 * once per process. The memo holds one entry and is silent; it never
 * changes a generated graph.
 */
std::shared_ptr<const Csr>
memoizedSeedSnapshot(const EvolutionConfig &config);

/** Empty the seed memo (tests compare cold and warm generation). */
void clearGenerationMemo();

} // namespace ditile::graph

#endif // DITILE_GRAPH_GENERATOR_HH
