/**
 * @file
 * Edge-list I/O implementation.
 */

#include "graph/io.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.hh"

namespace ditile::graph {

namespace {

bool
isCommentOrBlank(const std::string &line)
{
    for (char c : line) {
        if (c == ' ' || c == '\t' || c == '\r')
            continue;
        return c == '#' || c == '%';
    }
    return true;
}

std::vector<Edge>
parseEdges(std::istream &in, VertexId &max_id)
{
    std::vector<Edge> edges;
    std::string line;
    std::size_t line_no = 0;
    max_id = -1;
    while (std::getline(in, line)) {
        ++line_no;
        if (isCommentOrBlank(line))
            continue;
        std::istringstream fields(line);
        long long u = -1;
        long long v = -1;
        if (!(fields >> u >> v)) {
            DITILE_THROW("edge-list parse error at line ", line_no,
                         ": '", line, "'");
        }
        if (u < 0 || v < 0) {
            DITILE_THROW("negative vertex id at line ", line_no);
        }
        // Check before the cast: 2^32 + 1 would wrap to vertex 1.
        if (std::max(u, v) > std::numeric_limits<VertexId>::max())
            DITILE_THROW("vertex id ", std::max(u, v), " at line ",
                         line_no, " exceeds the largest vertex id ",
                         std::numeric_limits<VertexId>::max());
        edges.emplace_back(static_cast<VertexId>(u),
                           static_cast<VertexId>(v));
        max_id = std::max<VertexId>(max_id, static_cast<VertexId>(
            std::max(u, v)));
    }
    return edges;
}

/**
 * The universe an undeclared edge list derives, max_id + 1, computed
 * in 64 bits: the largest VertexId has no successor to count it.
 */
VertexId
derivedUniverse(VertexId max_id)
{
    const std::int64_t universe = std::int64_t{max_id} + 1;
    if (universe > std::numeric_limits<VertexId>::max())
        DITILE_THROW("vertex id ", max_id, " needs a universe of ",
                     universe, " vertices, past the largest vertex "
                     "count ", std::numeric_limits<VertexId>::max());
    return static_cast<VertexId>(universe);
}

} // namespace

Csr
readEdgeList(std::istream &in, VertexId num_vertices)
{
    if (num_vertices < 0)
        DITILE_THROW("negative vertex count ", num_vertices);
    VertexId max_id = -1;
    const auto edges = parseEdges(in, max_id);
    if (num_vertices > 0 && max_id >= num_vertices) {
        DITILE_THROW("edge list references vertex ", max_id,
                     " outside the declared universe of ",
                     num_vertices);
    }
    return Csr::fromEdges(
        num_vertices > 0 ? num_vertices : derivedUniverse(max_id), edges);
}

Csr
readEdgeListFile(const std::string &path, VertexId num_vertices)
{
    std::ifstream in(path);
    if (!in)
        DITILE_THROW("cannot open edge list '", path, "'");
    return readEdgeList(in, num_vertices);
}

void
writeEdgeList(std::ostream &out, const Csr &g)
{
    out << "# ditile edge list: " << g.numVertices() << " vertices, "
        << g.numEdges() << " undirected edges\n";
    for (auto [u, v] : g.edgeList())
        out << u << ' ' << v << '\n';
}

void
writeEdgeListFile(const std::string &path, const Csr &g)
{
    std::ofstream out(path);
    if (!out)
        DITILE_THROW("cannot write edge list '", path, "'");
    writeEdgeList(out, g);
}

DynamicGraph
readSnapshotFiles(const std::string &name,
                  const std::vector<std::string> &paths,
                  int feature_dim, VertexId num_vertices)
{
    if (paths.empty())
        DITILE_THROW("need at least one snapshot file");
    if (num_vertices < 0)
        DITILE_THROW("negative vertex count ", num_vertices);

    // First pass: determine the shared universe if not given.
    std::vector<std::vector<Edge>> per_snapshot;
    VertexId universe = num_vertices;
    for (const auto &path : paths) {
        std::ifstream in(path);
        if (!in)
            DITILE_THROW("cannot open snapshot '", path, "'");
        VertexId max_id = -1;
        per_snapshot.push_back(parseEdges(in, max_id));
        if (num_vertices == 0)
            universe = std::max(universe, derivedUniverse(max_id));
        else if (max_id >= num_vertices)
            DITILE_THROW("snapshot '", path, "' references vertex ",
                         max_id, " outside the declared universe");
    }

    std::vector<Csr> snapshots;
    snapshots.reserve(per_snapshot.size());
    for (const auto &edges : per_snapshot)
        snapshots.push_back(Csr::fromEdges(universe, edges));
    return DynamicGraph(name, std::move(snapshots), feature_dim);
}

ContinuousDynamicGraph
readEventStream(const std::string &name, Csr initial, std::istream &in)
{
    std::vector<GraphEvent> events;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (isCommentOrBlank(line))
            continue;
        std::istringstream fields(line);
        std::string op;
        long long u = -1;
        long long v = -1;
        double ts = 0.0;
        if (!(fields >> op >> u >> v >> ts) ||
            (op != "+" && op != "-")) {
            DITILE_THROW("event parse error at line ", line_no, ": '",
                         line, "'");
        }
        if (u < 0 || v < 0)
            DITILE_THROW("negative vertex id at line ", line_no);
        if (u >= initial.numVertices() || v >= initial.numVertices())
            DITILE_THROW("event at line ", line_no, " references vertex ",
                         std::max(u, v), " outside the universe [0,",
                         initial.numVertices(), ")");
        if (!events.empty() && ts < events.back().timestamp)
            DITILE_THROW("event at line ", line_no, " has timestamp ",
                         ts, ", earlier than the previous event's ",
                         events.back().timestamp);
        GraphEvent e;
        e.kind = op == "+" ? GraphEvent::Kind::AddEdge
                           : GraphEvent::Kind::RemoveEdge;
        e.u = static_cast<VertexId>(u);
        e.v = static_cast<VertexId>(v);
        e.timestamp = ts;
        events.push_back(e);
    }
    return ContinuousDynamicGraph(name, std::move(initial),
                                  std::move(events));
}

} // namespace ditile::graph
