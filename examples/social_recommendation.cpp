/**
 * @file
 * Social-network recommendation scenario (the paper's motivating
 * application class).
 *
 * A Reddit-like interaction graph arrives as a continuous-time event
 * stream (follows/unfollows). The pipeline:
 *   1. discretize the stream into snapshots (paper Eq. 1),
 *   2. run the functional DGNN on a small community to produce real
 *      per-user embeddings and rank friend recommendations,
 *   3. simulate DiTile-DGNN and the strongest baseline (RACE) on the
 *      full-scale graph to show the deployment-side win.
 *
 * Usage: social_recommendation [--users=N] [--events=M] [--seed=S]
 */

#include <algorithm>
#include <cmath>

#include "common/cli.hh"
#include "common/table.hh"
#include "core/catalog.hh"
#include "graph/ctdg.hh"
#include "model/functional.hh"

using namespace ditile;

namespace {

/** Cosine similarity of two embedding rows. */
float
cosine(const model::Matrix &m, VertexId a, VertexId b)
{
    float dot = 0.0f;
    float na = 0.0f;
    float nb = 0.0f;
    for (int c = 0; c < m.cols(); ++c) {
        dot += m.at(a, c) * m.at(b, c);
        na += m.at(a, c) * m.at(a, c);
        nb += m.at(b, c) * m.at(b, c);
    }
    const float denom = std::sqrt(na) * std::sqrt(nb);
    return denom > 0.0f ? dot / denom : 0.0f;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliFlags flags = CliFlags::parse(argc, argv);
    const auto users =
        static_cast<VertexId>(flags.getInt("users", 4000));
    const auto events =
        static_cast<std::size_t>(flags.getInt("events", 3000));
    const auto seed = static_cast<std::uint64_t>(flags.getInt("seed",
                                                              2024));

    // ---- 1. Event stream -> snapshots. ----
    graph::EventStreamConfig stream_config;
    stream_config.name = "reddit-like";
    stream_config.numVertices = users;
    stream_config.initialEdges = static_cast<EdgeId>(users) * 12;
    stream_config.numEvents = events;
    stream_config.removalFraction = 0.45;
    stream_config.seed = seed;
    const auto stream = graph::generateEventStream(stream_config);
    const auto dg = stream.discretize(/*num_snapshots=*/8,
                                      /*feature_dim=*/64);
    std::printf("interaction stream: %zu events over [%.1f, %.1f] -> "
                "%d snapshots, avg dissimilarity %.1f%%\n",
                stream.events().size(), stream.beginTime(),
                stream.endTime(), dg.numSnapshots(),
                dg.avgDissimilarity() * 100.0);

    // ---- 2. Functional DGNN on a small community: embeddings. ----
    model::DgnnConfig small_model;
    small_model.gcnDims = {32, 16};
    small_model.lstmHidden = 16;
    graph::EventStreamConfig community = stream_config;
    community.numVertices = 200;
    community.initialEdges = 1200;
    community.numEvents = 400;
    const auto cdg = graph::generateEventStream(community)
                         .discretize(6, 16);
    const auto weights = model::DgnnWeights::random(
        small_model, cdg.featureDim(), seed + 1);
    Rng rng(seed + 2);
    const auto features = model::Matrix::random(
        cdg.numVertices(), cdg.featureDim(), rng, 0.5f);
    const auto states = model::dgnnForward(cdg, features, small_model,
                                           weights);
    const auto &embeddings = states.back().h;

    // Recommend the most similar non-neighbor for a few users.
    Table recs("Friend recommendations (final-snapshot embeddings)");
    recs.setHeader({"User", "Recommended", "Cosine", "Already linked"});
    const auto &last = cdg.snapshot(cdg.numSnapshots() - 1);
    for (VertexId user = 0; user < 5; ++user) {
        VertexId best = kInvalidVertex;
        float best_sim = -2.0f;
        for (VertexId other = 0; other < cdg.numVertices(); ++other) {
            if (other == user || last.hasEdge(user, other))
                continue;
            const float sim = cosine(embeddings, user, other);
            if (sim > best_sim) {
                best_sim = sim;
                best = other;
            }
        }
        recs.addRow({Table::integer(user), Table::integer(best),
                     Table::num(best_sim, 3), "no"});
    }
    recs.print();

    // ---- 3. Deployment: accelerator comparison at full scale. ----
    model::DgnnConfig deploy_model; // paper-shaped DGCN.
    const core::DiTileAccelerator ditile;
    const auto race = core::makeAccelerator("race");
    const auto dt = ditile.run(dg, deploy_model);
    const auto rc = race->run(dg, deploy_model);

    Table deploy("Serving-path comparison");
    deploy.setHeader({"Accelerator", "Cycles", "Energy (uJ)",
                      "PE util"});
    deploy.addRow({rc.acceleratorName,
                   Table::integer(static_cast<long long>(
                       rc.totalCycles)),
                   Table::num(rc.energy.totalPj() / 1e6, 1),
                   Table::percent(rc.peUtilization)});
    deploy.addRow({dt.acceleratorName,
                   Table::integer(static_cast<long long>(
                       dt.totalCycles)),
                   Table::num(dt.energy.totalPj() / 1e6, 1),
                   Table::percent(dt.peUtilization)});
    deploy.print();
    std::printf("DiTile-DGNN speedup vs RACE: %.2fx at %.2fx lower "
                "energy\n",
                static_cast<double>(rc.totalCycles) /
                    static_cast<double>(dt.totalCycles),
                rc.energy.totalPj() / dt.energy.totalPj());
    return 0;
}
