/**
 * @file
 * Analytical model implementations (Eq. 5-16).
 */

#include "tiling/comm_model.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace ditile::tiling {

ApplicationFeatures
ApplicationFeatures::fromGraph(const graph::DynamicGraph &dg,
                               int gcn_layers, int resident_dims,
                               int bytes_per_value)
{
    ApplicationFeatures app;
    app.gcnLayers = gcn_layers;
    app.numSnapshots = dg.numSnapshots();
    app.featureDim = dg.featureDim();
    app.residentDims = resident_dims;
    app.bytesPerValue = bytes_per_value;
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        const auto &g = dg.snapshot(t);
        app.vertices.push_back(static_cast<double>(g.numVertices()));
        app.edges.push_back(static_cast<double>(g.numAdjacencies()));
        if (t >= 1)
            app.dissimilarity.push_back(dg.dissimilarity(t));
    }
    return app;
}

double
ApplicationFeatures::avgVertices() const
{
    if (vertices.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : vertices)
        sum += v;
    return sum / static_cast<double>(vertices.size());
}

double
ApplicationFeatures::avgEdges() const
{
    if (edges.empty())
        return 0.0;
    double sum = 0.0;
    for (double e : edges)
        sum += e;
    return sum / static_cast<double>(edges.size());
}

double
ApplicationFeatures::avgDissimilarity() const
{
    if (dissimilarity.empty())
        return 0.0;
    double sum = 0.0;
    for (double d : dissimilarity)
        sum += d;
    return sum / static_cast<double>(dissimilarity.size());
}

double
subgraphBytesPerVertex(const ApplicationFeatures &app)
{
    // Per-vertex working set: resident feature/intermediate record plus
    // the adjacency slice (avg degree neighbor ids, 4 bytes each).
    const double avg_degree = app.avgVertices() > 0.0
        ? app.avgEdges() / app.avgVertices() : 0.0;
    return static_cast<double>(app.residentDims) *
               static_cast<double>(app.bytesPerValue) +
           avg_degree * 4.0;
}

double
dramAccessModel(const ApplicationFeatures &app, int tiling_factor)
{
    DITILE_ASSERT(tiling_factor >= 1);
    const double a = tiling_factor;
    double total = 0.0;
    for (std::size_t i = 0; i < app.vertices.size(); ++i) {
        const double v = app.vertices[i];
        const double e = app.edges[i];
        if (v <= 0.0)
            continue;
        const double sv = v / a; // Eq. 5.
        // Eq. 6: every vertex feature once, plus expected cross-subgraph
        // neighbor refetch: per subgraph, E_i * SV * (V - SV) / V^2
        // edges cross the subgraph boundary and refetch their source.
        total += v + a * (e * sv * (v - sv)) / (v * v);
    }
    return total;
}

double
temporalComm(const ApplicationFeatures &app, int tiling_factor,
             int snapshot_groups)
{
    DITILE_ASSERT(tiling_factor >= 1 && snapshot_groups >= 1);
    // Eq. 8: each group boundary forwards the hidden state of every
    // subgraph vertex; ceil(T/Ps) == Gs group slots.
    const double avg_sv = app.avgVertices() / tiling_factor;
    return tiling_factor * avg_sv *
        static_cast<double>(snapshot_groups - 1);
}

double
totalSpatialComm(const ApplicationFeatures &app, int tiling_factor)
{
    // Eq. 11.
    const double avg_se = app.avgEdges() / tiling_factor;
    return tiling_factor * app.gcnLayers *
        static_cast<double>(app.numSnapshots) * avg_se;
}

double
intraTileSpatialComm(const ApplicationFeatures &app, int tiling_factor,
                     int vertex_parts)
{
    DITILE_ASSERT(vertex_parts >= 1);
    // Eq. 12: under a random vertex spread into Gv parts of size
    // floor(AvgSV/Gv) (plus one remainder part), the fraction of edges
    // with both endpoints in the same part is sum(part_size^2)/AvgSV^2.
    const double avg_sv = app.avgVertices() / tiling_factor;
    const double avg_se = app.avgEdges() / tiling_factor;
    if (avg_sv <= 0.0)
        return 0.0;
    const double base = std::floor(avg_sv /
                                   static_cast<double>(vertex_parts));
    const double rem = avg_sv -
        base * static_cast<double>(vertex_parts);
    const double same_part_pairs =
        static_cast<double>(vertex_parts) * base * base + rem * rem;
    return tiling_factor * app.gcnLayers *
        static_cast<double>(app.numSnapshots) *
        avg_se / (avg_sv * avg_sv) * same_part_pairs;
}

double
spatialComm(const ApplicationFeatures &app, int tiling_factor,
            int vertex_parts)
{
    // Eq. 10.
    return totalSpatialComm(app, tiling_factor) -
        intraTileSpatialComm(app, tiling_factor, vertex_parts);
}

double
vertexSpatialComm(const ApplicationFeatures &app)
{
    // Eq. 15: sum over layers l of the first-l-hop neighbor volumes,
    // approximated by powers of the subgraph degree ratio.
    const double avg_sv = app.avgVertices();
    const double avg_se = app.avgEdges();
    if (avg_sv <= 0.0)
        return 0.0;
    const double ratio = avg_se / avg_sv;
    double total = 0.0;
    for (int l = 1; l <= app.gcnLayers; ++l) {
        double hop = 1.0;
        for (int lp = 1; lp <= l; ++lp) {
            hop *= ratio;
            total += hop;
        }
    }
    return total;
}

double
totalRedundantSpatialComm(const ApplicationFeatures &app,
                          int tiling_factor)
{
    // Eq. 14: the (1 - Dis) similar fraction of vertices carries
    // redundant spatial communication.
    const double avg_sv = app.avgVertices() / tiling_factor;
    return tiling_factor * static_cast<double>(app.numSnapshots) *
        avg_sv * (1.0 - app.avgDissimilarity()) * vertexSpatialComm(app);
}

double
redundancyFreeSpatialComm(const ApplicationFeatures &app,
                          int tiling_factor, int vertex_parts)
{
    const double scomm = spatialComm(app, tiling_factor, vertex_parts);
    const double total_scomm = totalSpatialComm(app, tiling_factor);
    if (total_scomm <= 0.0)
        return 0.0;
    // Eq. 13: redundant communication splits between intra- and
    // inter-tile in the same proportion as total communication.
    double rscomm = totalRedundantSpatialComm(app, tiling_factor) *
        scomm / total_scomm;
    // Not std::clamp: when every edge is intra-tile, scomm can round a
    // hair below 0, which breaks clamp's lo <= hi precondition. The
    // min/max form is what clamp computes, so the result is then 0.
    rscomm = std::min(std::max(rscomm, 0.0), scomm);
    // Eq. 9.
    return scomm - rscomm;
}

double
reuseComm(const ApplicationFeatures &app, int tiling_factor,
          int snapshot_groups)
{
    // Eq. 16: reused intermediate data crosses each group boundary for
    // the similar (1 - Dis) fraction of vertices.
    const double avg_sv = app.avgVertices() / tiling_factor;
    return tiling_factor * static_cast<double>(snapshot_groups - 1) *
        avg_sv * (1.0 - app.avgDissimilarity()) * vertexSpatialComm(app);
}

double
totalComm(const ApplicationFeatures &app, int tiling_factor,
          int snapshot_groups, int vertex_parts)
{
    // Eq. 7.
    return temporalComm(app, tiling_factor, snapshot_groups) +
        redundancyFreeSpatialComm(app, tiling_factor, vertex_parts) +
        reuseComm(app, tiling_factor, snapshot_groups);
}

CommBreakdown
commBreakdown(const ApplicationFeatures &app, int tiling_factor,
              int snapshot_groups, int vertex_parts)
{
    CommBreakdown bd;
    bd.tcomm = temporalComm(app, tiling_factor, snapshot_groups);
    bd.rfscomm = redundancyFreeSpatialComm(app, tiling_factor,
                                           vertex_parts);
    bd.recomm = reuseComm(app, tiling_factor, snapshot_groups);
    return bd;
}

namespace {

/** Folds one word through mix64 first, so a difference in any bit
 *  (a double's sign or exponent included) reaches every key bit. */
void
mixWord(WordHasher &h, std::uint64_t v)
{
    h.mix(mix64(v));
}

/** Mixes the size, then the bit pattern of every value. Bitwise
 *  identity, not numeric equality: +0.0/-0.0 and NaN payloads hash
 *  apart, which is safe (at worst a duplicate entry). */
void
mixDoubles(WordHasher &h, const std::vector<double> &values)
{
    mixWord(h, values.size());
    for (double v : values) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        mixWord(h, bits);
    }
}

} // namespace

std::uint64_t
appFeatureKey(const ApplicationFeatures &app)
{
    WordHasher h;
    mixWord(h, static_cast<std::uint64_t>(app.gcnLayers));
    mixWord(h, static_cast<std::uint64_t>(app.numSnapshots));
    mixWord(h, static_cast<std::uint64_t>(app.featureDim));
    mixWord(h, static_cast<std::uint64_t>(app.residentDims));
    mixWord(h, static_cast<std::uint64_t>(app.bytesPerValue));
    mixDoubles(h, app.vertices);
    mixDoubles(h, app.edges);
    mixDoubles(h, app.dissimilarity);
    return h.h;
}

std::size_t
CommModelCache::PointKeyHash::operator()(const PointKey &k) const
{
    std::uint64_t h = k.app;
    h = mix64(h ^ (static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(k.a)) |
                   (static_cast<std::uint64_t>(
                        static_cast<std::uint32_t>(k.gs)) << 32)));
    h = mix64(h ^ static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(k.gv)));
    return static_cast<std::size_t>(h);
}

CommBreakdown
CommModelCache::get(const ApplicationFeatures &app, int tiling_factor,
                    int snapshot_groups, int vertex_parts)
{
    return get(app, appFeatureKey(app), tiling_factor, snapshot_groups,
               vertex_parts);
}

CommBreakdown
CommModelCache::get(const ApplicationFeatures &app,
                    std::uint64_t app_key, int tiling_factor,
                    int snapshot_groups, int vertex_parts)
{
    const PointKey key{app_key, tiling_factor, snapshot_groups,
                       vertex_parts};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = points_.find(key);
        if (it != points_.end()) {
            ++hits_;
            return it->second;
        }
    }
    // Evaluate outside the lock: the breakdown is a pure function of
    // the key, so a racing computer produces the identical value.
    const CommBreakdown bd = commBreakdown(app, tiling_factor,
                                           snapshot_groups,
                                           vertex_parts);
    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    points_.emplace(key, bd);
    return bd;
}

std::uint64_t
CommModelCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
CommModelCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::size_t
CommModelCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return points_.size();
}

void
CommModelCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    points_.clear();
    hits_ = 0;
    misses_ = 0;
}

CommModelCache &
CommModelCache::global()
{
    static CommModelCache cache;
    return cache;
}

} // namespace ditile::tiling
