/**
 * @file
 * IncrementalPlanner implementation.
 */

#include "model/incremental.hh"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "graph/delta.hh"

namespace ditile::model {

namespace {

/** Sum of degrees of a vertex set in g. */
EdgeId
sumDegrees(const graph::Csr &g, const std::vector<VertexId> &vs)
{
    EdgeId total = 0;
    for (VertexId v : vs)
        total += g.degree(v);
    return total;
}

/**
 * Per-vertex state over one snapshot's vertex range, backed by a
 * reused thread-local arena (plan sets build on pool workers). mark()
 * records every entry it sets and the destructor clears exactly those,
 * so one use costs O(marked), not an O(V) allocation and fill, and a
 * throw never leaks stale state into the next use. At most one
 * Membership may be alive per thread.
 */
class Membership
{
  public:
    enum : char { kUnseen = 0, kInSet = 1, kSeen = 2 };

    explicit Membership(VertexId num_vertices) : state_(arena())
    {
        if (state_.size() < static_cast<std::size_t>(num_vertices))
            state_.assign(static_cast<std::size_t>(num_vertices), kUnseen);
    }

    ~Membership()
    {
        for (VertexId v : marked_)
            state_[static_cast<std::size_t>(v)] = kUnseen;
    }

    Membership(const Membership &) = delete;
    Membership &operator=(const Membership &) = delete;

    char &
    operator[](VertexId v)
    {
        return state_[static_cast<std::size_t>(v)];
    }

    /** Give v `state` unless it already has one. */
    void
    mark(VertexId v, char state)
    {
        char &s = (*this)[v];
        if (s != kUnseen)
            return;
        s = state;
        marked_.push_back(v);
    }

    /** Distinct vertices marked so far. */
    std::size_t marked() const { return marked_.size(); }

  private:
    static std::vector<char> &
    arena()
    {
        static thread_local std::vector<char> bits;
        return bits;
    }

    std::vector<char> &state_;
    std::vector<VertexId> marked_;
};

/** |vs union N(vs)|: distinct input features a re-aggregation reads. */
VertexId
uniqueInputCount(const graph::Csr &g, const std::vector<VertexId> &vs)
{
    Membership seen(g.numVertices());
    for (VertexId v : vs)
        seen.mark(v, Membership::kInSet);
    for (VertexId v : vs)
        for (VertexId u : g.neighbors(v))
            seen.mark(u, Membership::kInSet);
    return static_cast<VertexId>(seen.marked());
}

/** Endpoints of added edges only (deletion-to-addition transform). */
std::vector<VertexId>
additionSeeds(const graph::GraphDelta &delta)
{
    std::vector<VertexId> seeds;
    seeds.reserve(delta.addedEdges().size() * 2);
    for (auto [u, v] : delta.addedEdges()) {
        seeds.push_back(u);
        seeds.push_back(v);
    }
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    return seeds;
}

/** Sorted union of two ascending vertex lists. */
std::vector<VertexId>
unionSorted(const std::vector<VertexId> &a, const std::vector<VertexId> &b)
{
    std::vector<VertexId> out;
    out.reserve(a.size() + b.size());
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(out));
    return out;
}

/** a union b, both over n vertices; a itself (its list shared) when b
 *  adds nothing. */
VertexSet
unite(const VertexSet &a, const VertexSet &b, VertexId n)
{
    if (a.isAll() || b.isAll())
        return a.isAll() ? a : b;
    std::vector<VertexId> out = unionSorted(*a.ids(), *b.ids());
    if (out.size() == a.size())
        return a;
    return VertexSet(std::move(out), n);
}

} // namespace

const char *
algoName(AlgoKind kind)
{
    switch (kind) {
      case AlgoKind::ReAlg: return "Re-Alg";
      case AlgoKind::RaceAlg: return "Race-Alg";
      case AlgoKind::MegaAlg: return "Mega-Alg";
      case AlgoKind::DiTileAlg: return "DiTile-Alg";
    }
    DITILE_PANIC("unreachable algorithm kind");
}

const std::vector<AlgoKind> &
allAlgorithms()
{
    static const std::vector<AlgoKind> all = {
        AlgoKind::ReAlg, AlgoKind::RaceAlg, AlgoKind::MegaAlg,
        AlgoKind::DiTileAlg,
    };
    return all;
}

IncrementalPlanner::IncrementalPlanner(const graph::DynamicGraph &dg,
                                       const DgnnConfig &config,
                                       AlgoKind kind,
                                       bool exact_expansion, double kappa)
    : dg_(dg), config_(config), kind_(kind),
      exactExpansion_(exact_expansion), kappa_(kappa)
{
    DITILE_ASSERT(config_.numGcnLayers() >= 1);
    DITILE_ASSERT(kappa_ > 0.0);
    buildAll();
}

IncrementalPlanner::IncrementalPlanner(const graph::DynamicGraph &dg,
                                       const DgnnConfig &config,
                                       AlgoKind kind,
                                       std::vector<SnapshotPlan> prefix)
    : dg_(dg), config_(config), kind_(kind), exactExpansion_(false),
      kappa_(kDefaultKappa), plans_(std::move(prefix))
{
    DITILE_ASSERT(config_.numGcnLayers() >= 1);
    DITILE_ASSERT(plans_.size() <=
                      static_cast<std::size_t>(dg_.numSnapshots()),
                  "a prefix longer than the graph");
    buildAll();
}

const SnapshotPlan &
IncrementalPlanner::plan(SnapshotId t) const
{
    DITILE_ASSERT(t >= 0 && t < dg_.numSnapshots());
    return plans_[static_cast<std::size_t>(t)];
}

std::vector<VertexId>
IncrementalPlanner::expandOnce(const graph::Csr &g,
                               const std::vector<VertexId> &from,
                               int salt, double kappa,
                               VertexId &unique_inputs) const
{
    // kInSet: in `from` or propagated to; kSeen: a neighbor the
    // sampling has not (yet) crossed to. Every neighbor is marked one
    // way or the other, so the walk counts |from union N(from)| too.
    Membership in(g.numVertices());
    for (VertexId v : from)
        in.mark(v, Membership::kInSet);

    std::vector<VertexId> added;
    for (VertexId v : from) {
        const double dv = g.degree(v);
        for (VertexId u : g.neighbors(v)) {
            if (in[u] == Membership::kInSet)
                continue;
            in.mark(u, Membership::kSeen);
            if (!exactExpansion_) {
                // Influence-damped propagation: the change at v moves
                // v's contribution to u's aggregate by a term weighted
                // 1/sqrt(deg_v * deg_u); sample crossing with
                // probability kappa over that normalization.
                const double du = g.degree(u);
                const double p = std::min(
                    1.0, kappa / std::sqrt(std::max(1.0, dv) *
                                           std::max(1.0, du)));
                const std::uint64_t h = mix64(
                    (static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(v)) << 32) ^
                    static_cast<std::uint32_t>(u) ^
                    (static_cast<std::uint64_t>(salt) * 0x9e3779b9ULL));
                const double unit = static_cast<double>(h >> 11) *
                    0x1.0p-53;
                if (unit >= p)
                    continue;
            }
            in[u] = Membership::kInSet;
            added.push_back(u);
        }
    }
    unique_inputs = static_cast<VertexId>(in.marked());
    std::sort(added.begin(), added.end());
    return unionSorted(from, added);
}

SnapshotPlan
IncrementalPlanner::fullPlan(SnapshotId t) const
{
    const graph::Csr &g = dg_.snapshot(t);
    SnapshotPlan p;
    p.fullRecompute = true;
    const int layers = config_.numGcnLayers();
    p.gcn.resize(static_cast<std::size_t>(layers));
    for (int l = 0; l < layers; ++l) {
        auto &lw = p.gcn[static_cast<std::size_t>(l)];
        lw.vertices = VertexSet::all(g.numVertices());
        lw.gatherEdges = g.numAdjacencies();
        lw.uniqueInputs = g.numVertices();
    }
    p.adjacencyUpdates = static_cast<std::size_t>(g.numEdges());
    return p;
}

void
IncrementalPlanner::buildAll()
{
    const SnapshotId t_count = dg_.numSnapshots();
    const int layers = config_.numGcnLayers();
    const std::size_t first = plans_.size();
    plans_.resize(static_cast<std::size_t>(t_count));

    // Per-snapshot plan construction (seed expansion, degree sums,
    // frontier counts) is a pure function of the snapshot and its
    // delta — the hash-sampled expansion carries its own salt — so it
    // fans out over the thread pool into per-snapshot slots. Only
    // DiTile's cumulative selective-RNN state chains across
    // snapshots; assignRnnVertices fills every RNN set in a cheap
    // serial epilogue, so plans are identical at any thread width.
    parallelFor(plans_.size() - first, [&](std::size_t k) {
        const std::size_t i = first + k;
        const auto t = static_cast<SnapshotId>(i);
        if (t == 0 || kind_ == AlgoKind::ReAlg) {
            plans_[i] = fullPlan(t);
            return;
        }

        const graph::Csr &g = dg_.snapshot(t);
        const graph::GraphDelta &delta = dg_.delta(t);

        // Seeds: value changes originate at every changed edge's
        // endpoints (additions and deletions both move feature
        // values), so Race and DiTile seed from the full affected set.
        // Mega tracks redundancy only at output granularity over the
        // common graph and seeds from the added edges alone — its
        // documented approximation.
        std::vector<VertexId> seeds;
        if (kind_ == AlgoKind::MegaAlg) {
            seeds = additionSeeds(delta);
        } else {
            seeds = delta.affectedVertices();
        }

        SnapshotPlan p;
        p.fullRecompute = false;
        p.adjacencyUpdates = delta.numChanges();
        p.gcn.resize(static_cast<std::size_t>(layers));

        // Per-layer sets: layer l recomputes the l-step damped
        // expansion of the seeds. Mega's coarse output-level tracking
        // propagates conservatively (2/3 of the per-layer influence
        // kappa), consistent with its smaller measured op counts in
        // the paper's Figure 7.
        const double kappa = kind_ == AlgoKind::MegaAlg
            ? kappa_ * 2.0 / 3.0 : kappa_;
        std::vector<std::vector<VertexId>> sets;
        std::vector<VertexId> unique_inputs(
            static_cast<std::size_t>(layers));
        sets.push_back(std::move(seeds));
        for (int l = 1; l < layers; ++l) {
            sets.push_back(expandOnce(
                g, sets.back(), static_cast<int>(t) * 16 + l, kappa,
                unique_inputs[static_cast<std::size_t>(l) - 1]));
        }
        unique_inputs.back() = uniqueInputCount(g, sets.back());

        if (kind_ == AlgoKind::MegaAlg) {
            // Output-granularity redundancy tracking: every layer
            // recomputes the full max-hop affected set because
            // intermediate features are not tracked (paper §7.3).
            // The layers share one list.
            const EdgeId gather = sumDegrees(g, sets.back());
            const VertexSet coarse(std::move(sets.back()), g.numVertices());
            for (auto &lw : p.gcn) {
                lw.vertices = coarse;
                lw.gatherEdges = gather;
                lw.uniqueInputs = unique_inputs.back();
            }
        } else {
            for (int l = 0; l < layers; ++l) {
                auto &lw = p.gcn[static_cast<std::size_t>(l)];
                auto &set = sets[static_cast<std::size_t>(l)];
                lw.gatherEdges = sumDegrees(g, set);
                lw.vertices = VertexSet(std::move(set), g.numVertices());
                lw.uniqueInputs = unique_inputs[static_cast<std::size_t>(l)];
            }
        }
        plans_[i] = std::move(p);
    });

    assignRnnVertices(dg_, kind_, plans_);
}

void
assignRnnVertices(const graph::DynamicGraph &dg, AlgoKind kind,
                  std::vector<SnapshotPlan> &plans)
{
    DITILE_ASSERT(plans.size() ==
                  static_cast<std::size_t>(dg.numSnapshots()));
    // Cumulative hidden-state change set: once a vertex's z changes at
    // some snapshot, its h/c differ from the reuse baseline at every
    // later snapshot, so DiTile's selective RNN keeps updating it.
    // Full recomputes and the baselines update every hidden state.
    VertexSet dirty_hidden;
    for (std::size_t t = 0; t < plans.size(); ++t) {
        SnapshotPlan &p = plans[t];
        const VertexId n =
            dg.snapshot(static_cast<SnapshotId>(t)).numVertices();
        const bool selective =
            kind == AlgoKind::DiTileAlg && !p.fullRecompute;
        VertexSet want = selective
            ? unite(dirty_hidden, p.gcn.back().vertices, n)
            : VertexSet::all(n);
        // A plan reused from a resident prefix already holds this
        // set; keeping it keeps that list shared.
        if (!(p.rnnVertices == want))
            p.rnnVertices = std::move(want);
        if (selective)
            dirty_hidden = p.rnnVertices;
    }
}

std::optional<AlgoKind>
layerSetSibling(AlgoKind kind)
{
    // Race and DiTile seed from the same affected set and expand with
    // the same kappa and salt (buildAll), so their GCN layer sets are
    // identical; only their RNN sets differ.
    switch (kind) {
      case AlgoKind::RaceAlg: return AlgoKind::DiTileAlg;
      case AlgoKind::DiTileAlg: return AlgoKind::RaceAlg;
      default: return std::nullopt;
    }
}

} // namespace ditile::model
