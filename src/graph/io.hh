/**
 * @file
 * Edge-list file I/O for static and dynamic graphs.
 *
 * The reproduction synthesizes its workloads, but downstream users
 * with access to the real datasets (Table 1 cites SNAP / Network Data
 * Repository style sources) can load them directly:
 *
 *  - static graphs: whitespace-separated "u v" pairs, '#' or '%'
 *    comment lines, ids remapped densely in first-seen order or kept
 *    as-is when already dense;
 *  - dynamic graphs: one edge-list file per snapshot;
 *  - event streams: "op u v timestamp" lines with op in {+, -}. A
 *    malformed stream throws InputError before it reaches the
 *    ContinuousDynamicGraph invariant checks, so no event file can
 *    abort the process.
 */

#ifndef DITILE_GRAPH_IO_HH
#define DITILE_GRAPH_IO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/ctdg.hh"
#include "graph/dynamic_graph.hh"

namespace ditile::graph {

/**
 * Parse a whitespace-separated edge list.
 *
 * @param num_vertices Vertex-universe size; 0 derives it as
 *        max id + 1. Out-of-range ids with an explicit universe are
 *        fatal.
 */
Csr readEdgeList(std::istream &in, VertexId num_vertices = 0);

/** File variant; missing files are fatal. */
Csr readEdgeListFile(const std::string &path,
                     VertexId num_vertices = 0);

/** Write "u v" lines (canonical undirected edges) plus a header. */
void writeEdgeList(std::ostream &out, const Csr &g);
void writeEdgeListFile(const std::string &path, const Csr &g);

/**
 * Load one snapshot file per entry of `paths` into a DynamicGraph.
 * All snapshots share a vertex universe: the max id + 1 across files
 * (or the explicit count).
 */
DynamicGraph readSnapshotFiles(const std::string &name,
                               const std::vector<std::string> &paths,
                               int feature_dim,
                               VertexId num_vertices = 0);

/**
 * Parse an event stream: lines "op u v timestamp", op in {+, -}.
 * The initial graph is passed in and fixes the vertex universe. A
 * malformed line, a negative or out-of-universe endpoint, or an event
 * earlier than the one before it throws InputError naming the line.
 */
ContinuousDynamicGraph readEventStream(const std::string &name,
                                       Csr initial, std::istream &in);

} // namespace ditile::graph

#endif // DITILE_GRAPH_IO_HH
