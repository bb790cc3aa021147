/**
 * @file
 * Tests for the plan/execute split: ExecutionPlan JSON round-trips,
 * bit-identical equivalence of plan()+execute() with the legacy
 * one-shot run() for every accelerator and every Fig-11b ablation
 * variant at multiple thread counts, and PlanCache semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/ditile_accelerator.hh"
#include "graph/generator.hh"
#include "sim/baselines.hh"
#include "sim/execution_plan.hh"
#include "sim/plan_cache.hh"
#include "sim/scaleout.hh"

namespace ditile {
namespace {

graph::DynamicGraph
planWorkload()
{
    graph::EvolutionConfig config;
    config.numVertices = 800;
    config.numEdges = 6400;
    config.numSnapshots = 6;
    config.dissimilarity = 0.12;
    config.featureDim = 64;
    config.seed = 7;
    return graph::generateDynamicGraph(config);
}

std::vector<std::unique_ptr<sim::Accelerator>>
fullFleet()
{
    std::vector<std::unique_ptr<sim::Accelerator>> fleet;
    fleet.push_back(sim::makeReady());
    fleet.push_back(sim::makeDgnnBooster());
    fleet.push_back(sim::makeRace());
    fleet.push_back(sim::makeMega());
    fleet.push_back(std::make_unique<core::DiTileAccelerator>());
    return fleet;
}

/** Field-by-field equality of two runs, with readable failures. */
void
expectIdentical(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.acceleratorName, b.acceleratorName);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.onChipCommCycles, b.onChipCommCycles);
    EXPECT_EQ(a.offChipCycles, b.offChipCycles);
    EXPECT_EQ(a.configCycles, b.configCycles);
    EXPECT_EQ(a.ops.totalMacs(), b.ops.totalMacs());
    EXPECT_EQ(a.ops.totalArithmetic(), b.ops.totalArithmetic());
    EXPECT_EQ(a.dramTraffic.total(), b.dramTraffic.total());
    EXPECT_EQ(a.nocBytes, b.nocBytes);
    EXPECT_EQ(a.nocBytesSpatial, b.nocBytesSpatial);
    EXPECT_EQ(a.nocBytesTemporal, b.nocBytesTemporal);
    EXPECT_EQ(a.nocBytesReuse, b.nocBytesReuse);
    EXPECT_EQ(a.peUtilization, b.peUtilization);
    EXPECT_EQ(a.energy.totalPj(), b.energy.totalPj());
    EXPECT_EQ(a.energyEvents.dramBytes, b.energyEvents.dramBytes);
    EXPECT_EQ(a.energyEvents.dramActivates,
              b.energyEvents.dramActivates);
    EXPECT_EQ(a.energyEvents.reconfigEvents,
              b.energyEvents.reconfigEvents);
    EXPECT_EQ(a.energyEvents.localBufferBytes,
              b.energyEvents.localBufferBytes);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        const auto &ta = a.trace[i];
        const auto &tb = b.trace[i];
        EXPECT_EQ(ta.dramDone, tb.dramDone) << "snapshot " << i;
        EXPECT_EQ(ta.gnnComputeCycles, tb.gnnComputeCycles)
            << "snapshot " << i;
        EXPECT_EQ(ta.rnnComputeCycles, tb.rnnComputeCycles)
            << "snapshot " << i;
        EXPECT_EQ(ta.spatialCommCycles, tb.spatialCommCycles)
            << "snapshot " << i;
        EXPECT_EQ(ta.temporalCommCycles, tb.temporalCommCycles)
            << "snapshot " << i;
        EXPECT_EQ(ta.gnnDone, tb.gnnDone) << "snapshot " << i;
        EXPECT_EQ(ta.rnnDone, tb.rnnDone) << "snapshot " << i;
    }
}

// ---------------------------------------------------------------------
// JSON round-trips.
// ---------------------------------------------------------------------

TEST(PlanJson, RoundTripIsByteStable)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    const auto plan = accel.plan(dg, mconfig);
    const std::string json = plan.toJson();
    const auto parsed = sim::ExecutionPlan::fromJson(json);
    // Canonical form: parse + re-emit must reproduce every byte, and
    // the content hash (defined over that form) must agree.
    EXPECT_EQ(parsed.toJson(), json);
    EXPECT_EQ(parsed.contentHash(), plan.contentHash());
    EXPECT_EQ(parsed.acceleratorName, plan.acceleratorName);
    EXPECT_EQ(parsed.numSnapshots(), plan.numSnapshots());
    EXPECT_EQ(parsed.mapping.spatialOnly, plan.mapping.spatialOnly);
    EXPECT_EQ(parsed.groups.size(), plan.groups.size());
}

TEST(PlanJson, RoundTripsForEveryAccelerator)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    for (auto &accel : fullFleet()) {
        SCOPED_TRACE(accel->name());
        const auto plan = accel->plan(dg, mconfig);
        const std::string json = plan.toJson();
        EXPECT_EQ(sim::ExecutionPlan::fromJson(json).toJson(), json);
    }
}

TEST(PlanJson, DistinctVariantsHashDifferently)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator full;
    core::DiTileAccelerator nora(
        sim::AcceleratorConfig::defaults(),
        core::DiTileOptions::fromVariant("NoRa"));
    EXPECT_NE(full.plan(dg, mconfig).contentHash(),
              nora.plan(dg, mconfig).contentHash());
}

TEST(PlanJson, FaultedPlanRoundTripsAndHashesDifferently)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    auto plan = accel.plan(dg, mconfig);
    const auto clean_hash = plan.contentHash();
    plan.faults = sim::FaultSpec::parse(
        "seed=9;dram-retry-fraction=0.25;"
        "tile@1:r3c2;vlink@0:r1c2;bypass-open@1:c5;dram@2:ch*");
    // The schedule is part of the canonical form: the hash must move.
    EXPECT_NE(plan.contentHash(), clean_hash);
    const std::string json = plan.toJson();
    const auto parsed = sim::ExecutionPlan::fromJson(json);
    EXPECT_EQ(parsed.toJson(), json);
    EXPECT_EQ(parsed.contentHash(), plan.contentHash());
    EXPECT_TRUE(parsed.faults == plan.faults);
    // And the faulted plan replays identically from its JSON.
    expectIdentical(sim::executePlan(dg, plan),
                    sim::executePlan(dg, parsed));
}

TEST(PlanJson, DocumentsWithoutFaultsSectionLoadFaultFree)
{
    // Plans dumped before fault injection existed carry no "faults"
    // member; they must load as fault-free rather than throw.
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    const auto plan = accel.plan(dg, mconfig);
    std::string json = plan.toJson();
    const std::string defaults =
        "\"faults\":{\"seed\":1,\"dram_retry_fraction\":0.5,"
        "\"noc_backoff\":64,\"noc_retries\":3,\"events\":[]},";
    const auto pos = json.find(defaults);
    ASSERT_NE(pos, std::string::npos);
    json.erase(pos, defaults.size());
    const auto parsed = sim::ExecutionPlan::fromJson(json);
    EXPECT_TRUE(parsed.faults.empty());
    expectIdentical(sim::executePlan(dg, plan),
                    sim::executePlan(dg, parsed));
}

TEST(PlanJson, OverlapOptionRoundTripsAndExecutesIdentically)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    auto plan = accel.plan(dg, mconfig);
    plan.options.overlap = true;
    const auto parsed = sim::ExecutionPlan::fromJson(plan.toJson());
    EXPECT_TRUE(parsed.options.overlap);
    // A round-tripped overlap plan replays to the same schedule.
    expectIdentical(sim::executePlan(dg, plan),
                    sim::executePlan(dg, parsed));
}

TEST(PlanJson, MalformedDocumentsThrow)
{
    EXPECT_THROW(sim::ExecutionPlan::fromJson(""),
                 std::runtime_error);
    EXPECT_THROW(sim::ExecutionPlan::fromJson("{"),
                 std::runtime_error);
    EXPECT_THROW(sim::ExecutionPlan::fromJson("{}"),
                 std::runtime_error);
    EXPECT_THROW(sim::ExecutionPlan::fromJson("{\"plan_format\":99}"),
                 std::runtime_error);
    // Valid format marker but nothing else: missing keys must throw,
    // not default-initialize.
    EXPECT_THROW(sim::ExecutionPlan::fromJson("{\"plan_format\":1}"),
                 std::runtime_error);
}

TEST(PlanJson, LegacyRnnSeparateResourceKeyIsIgnored)
{
    // Earlier builds serialized a "rnn_separate_resource" option that
    // no timeline read. Documents carrying it must still load and
    // replay exactly like the same document without the key.
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    const auto race = sim::makeRace();
    for (const bool overlap : {false, true}) {
        SCOPED_TRACE(overlap ? "overlap" : "staged");
        auto plan = race->plan(dg, mconfig);
        plan.options.overlap = overlap;
        const std::string json = plan.toJson();
        std::string legacy = json;
        const auto pos = legacy.find("\"global_gnn_barrier\":");
        ASSERT_NE(pos, std::string::npos);
        legacy.insert(pos, "\"rnn_separate_resource\":true,");
        const auto parsed = sim::ExecutionPlan::fromJson(legacy);
        EXPECT_EQ(parsed.toJson(), json);
        EXPECT_EQ(sim::executePlan(dg, parsed).totalCycles,
                  sim::executePlan(dg, sim::ExecutionPlan::fromJson(json))
                      .totalCycles);
    }
}

// ---------------------------------------------------------------------
// Hostile plan documents (--plan-in): every malformed mapping and
// every plan/workload mismatch is rejected with InputError before a
// device model can index out of range.
// ---------------------------------------------------------------------

/** A canonical DiTile plan document for planWorkload(). */
std::string
ditilePlanJson(const sim::FaultSpec &faults = {})
{
    core::DiTileAccelerator accel;
    auto plan = accel.plan(planWorkload(), model::DgnnConfig{});
    plan.faults = faults;
    return plan.toJson();
}

/** `doc` with the first array item after `anchor` set to `value`. */
std::string
withFirstItem(std::string doc, const std::string &anchor,
              const std::string &value)
{
    const auto at = doc.find(anchor);
    EXPECT_NE(at, std::string::npos) << anchor;
    if (at == std::string::npos)
        return doc;
    const auto open = doc.find('[', at);
    const auto end = doc.find_first_of(",]", open + 1);
    doc.replace(open + 1, end - open - 1, value);
    return doc;
}

/** `doc` with the occurrence of `from` at or after `after` replaced. */
std::string
replacedAfter(std::string doc, const std::string &after,
              const std::string &from, const std::string &to)
{
    const auto at = doc.find(from, doc.find(after));
    EXPECT_NE(at, std::string::npos) << after << " " << from;
    if (at != std::string::npos)
        doc.replace(at, from.size(), to);
    return doc;
}

TEST(PlanJson, RelinkOptionsChangeTheRun)
{
    // The engine reads the Re-Link schedule from the options, and the
    // "relink" section is written from them: flipping an option moves
    // the run and its serialized mirror.
    const auto dg = planWorkload();
    core::DiTileAccelerator accel;
    const auto plan = accel.plan(dg, model::DgnnConfig{});
    ASSERT_TRUE(plan.options.adaptiveRelink);
    const auto base = sim::executePlan(dg, plan);

    auto fixed = plan;
    fixed.options.adaptiveRelink = false;
    EXPECT_NE(sim::executePlan(dg, fixed).totalCycles, base.totalCycles);
    EXPECT_NE(fixed.toJson().find("\"relink\":{\"adaptive\":false"),
              std::string::npos);

    auto budget = plan;
    budget.options.reconfigEventsPerSnapshot += 5;
    EXPECT_EQ(sim::executePlan(dg, budget).energyEvents.reconfigEvents,
              base.energyEvents.reconfigEvents +
                  5u * static_cast<std::uint64_t>(dg.numSnapshots()));

    // Editing the option and its mirror in a document replays like
    // the edited plan.
    std::string doc = plan.toJson();
    doc = replacedAfter(doc, "\"options\":", "\"adaptive_relink\":true",
                        "\"adaptive_relink\":false");
    doc = replacedAfter(doc, "\"relink\":", "\"adaptive\":true",
                        "\"adaptive\":false");
    EXPECT_EQ(sim::executePlan(dg, sim::ExecutionPlan::fromJson(doc))
                  .totalCycles,
              sim::executePlan(dg, fixed).totalCycles);
}

TEST(PlanJson, NonFiniteFieldsThrowOnWrite)
{
    // JSON has no NaN/Inf: the writer refuses them instead of
    // emitting a "null" no reader accepts.
    core::DiTileAccelerator accel;
    const auto plan = accel.plan(planWorkload(), model::DgnnConfig{});
    auto nan = plan;
    nan.options.dramTrafficScale = std::nan("");
    EXPECT_THROW(nan.toJson(), InputError);
    auto inf = plan;
    inf.hw.energyTable.dramPjPerByte = HUGE_VAL;
    EXPECT_THROW(inf.contentHash(), InputError);
}

TEST(PlanJsonHostile, RelinkDisagreeingWithTheOptionsIsRejected)
{
    const std::string doc = ditilePlanJson();
    const sim::ExecutionPlan plan = sim::ExecutionPlan::fromJson(doc);
    ASSERT_TRUE(plan.options.adaptiveRelink);
    const std::string events =
        "\"reconfig_events_per_snapshot\":" +
        std::to_string(plan.options.reconfigEventsPerSnapshot);
    const std::string more =
        "\"reconfig_events_per_snapshot\":" +
        std::to_string(plan.options.reconfigEventsPerSnapshot + 1);
    for (const char *section : {"\"options\":", "\"relink\":"}) {
        SCOPED_TRACE(section);
        const std::string adaptive = std::string(section) ==
                "\"options\":"
            ? "\"adaptive_relink\":"
            : "\"adaptive\":";
        EXPECT_THROW(sim::ExecutionPlan::fromJson(replacedAfter(
                         doc, section, adaptive + "true",
                         adaptive + "false")),
                     InputError);
        EXPECT_THROW(sim::ExecutionPlan::fromJson(
                         replacedAfter(doc, section, events, more)),
                     InputError);
    }
}

TEST(PlanJsonHostile, ColumnOutsideTheGridIsRejected)
{
    for (const char *col : {"4000", "-3"}) {
        SCOPED_TRACE(col);
        EXPECT_THROW(sim::ExecutionPlan::fromJson(withFirstItem(
                         ditilePlanJson(), "\"snapshot_column\":", col)),
                     InputError);
    }
    // A faulted plan would index the dead-tile map with the column
    // first; the document is rejected before that.
    const auto faults = sim::FaultSpec::parse("tile@0:r3c*;seed=3");
    EXPECT_THROW(sim::ExecutionPlan::fromJson(withFirstItem(
                     ditilePlanJson(faults), "\"snapshot_column\":",
                     "4000")),
                 InputError);
}

TEST(PlanJsonHostile, ColumnMapOfWrongLengthIsRejected)
{
    std::string doc = ditilePlanJson();
    const std::string key = "\"snapshot_column\":[";
    const auto at = doc.find(key);
    ASSERT_NE(at, std::string::npos);
    doc.insert(at + key.size(), "0,");
    EXPECT_THROW(sim::ExecutionPlan::fromJson(doc), InputError);
}

TEST(PlanJsonHostile, RowOwnerOutsideThePartsIsRejected)
{
    EXPECT_THROW(sim::ExecutionPlan::fromJson(withFirstItem(
                     ditilePlanJson(), "\"row_partition\":", "999")),
                 InputError);
    // An unassigned vertex (-1) parses, but leaves the vertex without
    // a compute slot: execution rejects it.
    const auto unassigned = sim::ExecutionPlan::fromJson(withFirstItem(
        ditilePlanJson(), "\"row_partition\":", "-1"));
    EXPECT_THROW(sim::executePlan(planWorkload(), unassigned),
                 InputError);
}

TEST(PlanJsonHostile, MorePartsThanTileRowsIsRejected)
{
    const auto plan = sim::ExecutionPlan::fromJson(ditilePlanJson());
    const std::string parts =
        "\"row_partition\":{\"parts\":" +
        std::to_string(plan.mapping.rowPartition.numParts()) + ",";
    std::string doc = ditilePlanJson();
    const auto at = doc.find(parts);
    ASSERT_NE(at, std::string::npos);
    // Every owner stays below the new part count; only the part count
    // exceeds the rows that could host it.
    doc.replace(at, parts.size(),
                "\"row_partition\":{\"parts\":" +
                    std::to_string(plan.hw.tileRows + 1) + ",");
    EXPECT_THROW(sim::ExecutionPlan::fromJson(doc), InputError);
}

TEST(PlanJsonHostile, TileGridLargerThanItsNocIsRejected)
{
    const auto plan = sim::ExecutionPlan::fromJson(ditilePlanJson());
    const std::string noc =
        "\"noc\":{\"rows\":" + std::to_string(plan.hw.noc.rows) + ",";
    std::string doc = ditilePlanJson();
    const auto at = doc.find(noc);
    ASSERT_NE(at, std::string::npos);
    // Tiles on the missing NoC rows would route to routers that do
    // not exist.
    doc.replace(at, noc.size(), "\"noc\":{\"rows\":1,");
    EXPECT_THROW(sim::ExecutionPlan::fromJson(doc), InputError);
}

TEST(PlanJsonHostile, ReplayOnAnotherWorkloadIsRejected)
{
    const auto plan = sim::ExecutionPlan::fromJson(ditilePlanJson());
    graph::EvolutionConfig other;
    other.numVertices = 500; // Another dataset: fewer vertices.
    other.numEdges = 4000;
    other.numSnapshots = 6;
    other.featureDim = 64;
    other.seed = 7;
    EXPECT_THROW(sim::executePlan(graph::generateDynamicGraph(other),
                                  plan),
                 InputError);
    other.numVertices = 800; // Same graph size, fewer snapshots.
    other.numEdges = 6400;
    other.numSnapshots = 5;
    EXPECT_THROW(sim::executePlan(graph::generateDynamicGraph(other),
                                  plan),
                 InputError);
}

TEST(PlanJsonHostile, VertexOutsideThePartitionIsRejected)
{
    // The engine indexes per-vertex state with these ids before the
    // partition check of executePlan could catch them.
    for (const char *anchor : {"\"rnn_vertices\":", "\"vertices\":"}) {
        for (const char *id : {"1000000", "800", "-1"}) {
            SCOPED_TRACE(std::string(anchor) + id);
            EXPECT_THROW(sim::ExecutionPlan::fromJson(withFirstItem(
                             ditilePlanJson(), anchor, id)),
                         InputError);
        }
    }
    // The last vertex of planWorkload() is still in range.
    const std::string doc = ditilePlanJson();
    const std::string key = "\"vertices\":[";
    const auto open = doc.find(key);
    ASSERT_NE(open, std::string::npos);
    std::string last = doc;
    last.replace(open + key.size(), doc.find(']', open) - open - key.size(),
                 "799");
    EXPECT_NO_THROW(sim::ExecutionPlan::fromJson(last));
}

/** The index of snapshot `t`'s "rnn_vertices" list in `doc`. */
std::size_t
rnnVerticesOf(const std::string &doc, SnapshotId t)
{
    std::size_t at = doc.find("\"snapshots\":");
    for (SnapshotId k = 0; k <= t && at != std::string::npos; ++k)
        at = doc.find("\"rnn_vertices\":[", at + 1);
    return at;
}

// A vertex list must be a set: strictly ascending ids. The digest fast
// paths read "every vertex" off a set's form, so a list of n entries
// that repeats one id and drops another must not pass for it.
TEST(PlanJsonHostile, VertexListsThatAreNotSetsAreRejected)
{
    const std::string doc = ditilePlanJson();
    const VertexId n = planWorkload().numVertices();
    const std::string key = "\"rnn_vertices\":[";

    // Snapshot 1's RNN list: [0, 0, 1, ..., n-2], n entries.
    std::string repeated = doc;
    const auto at = rnnVerticesOf(repeated, 1);
    ASSERT_NE(at, std::string::npos);
    std::string ids = "0";
    for (VertexId v = 0; v + 1 < n; ++v) {
        ids += ',';
        ids += std::to_string(v);
    }
    repeated.replace(at + key.size(),
                     repeated.find(']', at) - at - key.size(), ids);
    try {
        sim::ExecutionPlan::fromJson(repeated);
        ADD_FAILURE() << "a repeated id loaded";
    } catch (const InputError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "snapshot 1 rnn_vertices is not strictly ascending"),
                  std::string::npos)
            << e.what();
    }

    // A GCN list reversed, with a duplicate.
    std::string reversed = doc;
    const std::string gcn_key = "\"vertices\":[";
    const auto gcn = reversed.find(gcn_key, rnnVerticesOf(doc, 1));
    ASSERT_NE(gcn, std::string::npos);
    reversed.replace(gcn + gcn_key.size(),
                     reversed.find(']', gcn) - gcn - gcn_key.size(),
                     "9,5,5,1");
    try {
        sim::ExecutionPlan::fromJson(reversed);
        ADD_FAILURE() << "a reversed list loaded";
    } catch (const InputError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "snapshot 1 gcn layer 0 vertices is not strictly "
                      "ascending"),
                  std::string::npos)
            << e.what();
    }
}

// A list of every id loads as all(n), as the planner builds it, and
// writes back the same bytes.
TEST(PlanJson, FullVertexListsLoadAsAll)
{
    const std::string doc = ditilePlanJson();
    const auto plan = sim::ExecutionPlan::fromJson(doc);
    const auto &snapshots = *plan.snapshots;
    ASSERT_GT(snapshots.size(), 1u);
    EXPECT_TRUE(snapshots[0].fullRecompute);
    for (const auto &layer : snapshots[0].gcn)
        EXPECT_TRUE(layer.vertices.isAll());
    EXPECT_TRUE(snapshots[0].rnnVertices.isAll());
    EXPECT_FALSE(snapshots[1].gcn[0].vertices.isAll());
    EXPECT_EQ(plan.toJson(), doc);
}

TEST(PlanJsonHostile, GcnLayerCountOtherThanTheModelsIsRejected)
{
    const std::string doc = ditilePlanJson();
    const std::string key = "\"gcn\":[";
    const auto open = doc.find(key, doc.find("\"snapshots\":"));
    ASSERT_NE(open, std::string::npos);
    // Layer objects hold no nested objects, so the first "}]" closes
    // this snapshot's layer array.
    const auto close = doc.find("}]", open);
    ASSERT_NE(close, std::string::npos);
    const std::string layers =
        doc.substr(open + key.size(), close + 1 - open - key.size());

    std::string none = doc;
    none.erase(open + key.size(), layers.size());
    EXPECT_THROW(sim::ExecutionPlan::fromJson(none), InputError);

    std::string extra = doc;
    extra.insert(close + 1, "," + layers.substr(0, layers.find('}') + 1));
    EXPECT_THROW(sim::ExecutionPlan::fromJson(extra), InputError);
}

TEST(PlanJsonHostile, DeviceSizesAndFractionsOutOfRangeAreRejected)
{
    // Each value reached a device-model assertion, a division by zero
    // or an unbounded allocation before the document was range-checked.
    const std::pair<const char *, const char *> cases[] = {
        {"\"channels\":", "0"},
        {"\"row_bytes\":", "0"},
        {"\"rows\":", "2147483647"},
        {"\"relink_span\":", "0"},
        {"\"frequency_ghz\":", "0"},
        {"\"cross_fetch_fraction\":", "2"},
        {"\"gnn_mac_fraction\":", "0"},
        {"\"lstm_hidden\":", "-1"},
        // Overflows to Inf, which the writer could not emit back.
        {"\"dram_pj\":", "1e999"},
    };
    const std::string doc = ditilePlanJson();
    for (const auto &[key, value] : cases) {
        SCOPED_TRACE(std::string(key) + value);
        std::string hostile = doc;
        const auto at = hostile.find(key);
        ASSERT_NE(at, std::string::npos);
        const auto begin = at + std::string(key).size();
        hostile.replace(begin, hostile.find_first_of(",}", begin) - begin,
                        value);
        EXPECT_THROW(sim::ExecutionPlan::fromJson(hostile), InputError);
    }
}

// ---------------------------------------------------------------------
// Golden plan documents: the canonical bytes of one plan per document
// shape, pinned across commits (a round trip only compares a plan
// with its own re-serialization).
// ---------------------------------------------------------------------

/** The plans of tests/golden/plan_small.jsonl, one JSON line each. */
std::string
goldenPlanLines()
{
    graph::EvolutionConfig config;
    config.numVertices = 48;
    config.numEdges = 192;
    config.numSnapshots = 3;
    config.dissimilarity = 0.2;
    config.featureDim = 16;
    config.seed = 5;
    const auto dg = graph::generateDynamicGraph(config);
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator ditile;

    std::vector<sim::ExecutionPlan> plans;
    plans.push_back(ditile.plan(dg, mconfig));
    plans.back().options.overlap = true;
    plans.push_back(sim::makeDgnnBooster()->plan(dg, mconfig));
    plans.back().options.overlap = false;
    plans.push_back(sim::makeMega()->plan(dg, mconfig));
    plans.push_back(ditile.plan(dg, mconfig));
    plans.back().faults = sim::FaultSpec::parse(
        "seed=9;dram-retry-fraction=0.25;"
        "tile@1:r3c2;vlink@0:r1c2;bypass-open@1:c5;dram@2:ch*");
    plans.push_back(ditile.plan(dg, mconfig));
    sim::applyScaleOut(plans.back(), dg, 2, noc::InterChipLinkConfig{});

    std::string lines;
    for (const auto &plan : plans)
        lines += plan.toJson() + "\n";
    return lines;
}

TEST(PlanGolden, MatchesGoldenFile)
{
    const std::string golden_path =
        std::string(DITILE_GOLDEN_DIR) + "/plan_small.jsonl";
    const std::string lines = goldenPlanLines();
    if (std::getenv("DITILE_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        out << lines;
        GTEST_SKIP() << "regenerated " << golden_path;
    }
    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << golden_path
        << " (run with DITILE_REGEN_GOLDEN=1 to create it)";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    // Byte for byte: plan bytes are the content hash's input and the
    // --plan-out / --plan-in contract.
    EXPECT_EQ(lines, buffer.str());
    // Every golden document loads and re-serializes to itself.
    std::istringstream docs(buffer.str());
    for (std::string line; std::getline(docs, line);)
        EXPECT_EQ(sim::ExecutionPlan::fromJson(line).toJson(), line);
}

// ---------------------------------------------------------------------
// plan()+execute() == run(), for everyone, at any thread count.
// ---------------------------------------------------------------------

class PlanExecuteEquivalence : public testing::TestWithParam<int>
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(1); }
};

TEST_P(PlanExecuteEquivalence, AllAccelerators)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    ThreadPool::setGlobalThreads(GetParam());
    for (auto &accel : fullFleet()) {
        SCOPED_TRACE(accel->name());
        const auto legacy = accel->run(dg, mconfig);
        const auto plan = accel->plan(dg, mconfig);
        expectIdentical(legacy, accel->execute(dg, plan));
        // A plan that went through serialization must replay the same
        // result bit for bit (doubles included).
        expectIdentical(legacy, sim::executePlan(
            dg, sim::ExecutionPlan::fromJson(plan.toJson())));
    }
}

TEST_P(PlanExecuteEquivalence, AblationVariants)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    ThreadPool::setGlobalThreads(GetParam());
    for (const char *variant : {"NoPs", "NoWos", "NoRa", "OnlyPs",
                                "OnlyWos", "OnlyRa"}) {
        SCOPED_TRACE(variant);
        core::DiTileAccelerator accel(
            sim::AcceleratorConfig::defaults(),
            core::DiTileOptions::fromVariant(variant));
        const auto legacy = accel.run(dg, mconfig);
        const auto plan = accel.plan(dg, mconfig);
        expectIdentical(legacy, accel.execute(dg, plan));
        expectIdentical(legacy, sim::executePlan(
            dg, sim::ExecutionPlan::fromJson(plan.toJson())));
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, PlanExecuteEquivalence,
                         testing::Values(1, 4));

// ---------------------------------------------------------------------
// PlanCache.
// ---------------------------------------------------------------------

TEST(PlanCacheTest, SecondObtainHits)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    sim::PlanCache cache;
    const auto first =
        cache.obtain(dg, mconfig, model::AlgoKind::DiTileAlg);
    const auto second =
        cache.obtain(dg, mconfig, model::AlgoKind::DiTileAlg);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, AcceleratorsSharingAlgoShareSnapshotPlans)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    sim::PlanCache cache;
    // ReaDy and DGNN-Booster both run Re-Alg: one planning pass.
    auto ready = sim::makeReady();
    auto booster = sim::makeDgnnBooster();
    const auto plan_a = ready->plan(dg, mconfig, &cache);
    const auto plan_b = booster->plan(dg, mconfig, &cache);
    EXPECT_EQ(plan_a.snapshots.get(), plan_b.snapshots.get());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    // RACE uses a different algorithm: its own entry.
    auto race = sim::makeRace();
    race->plan(dg, mconfig, &cache);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(PlanCacheTest, AblationVariantsShareSnapshotPlans)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    sim::PlanCache cache;
    core::DiTileAccelerator full;
    const auto base = full.plan(dg, mconfig, &cache);
    for (const char *variant : {"NoPs", "NoWos", "NoRa", "OnlyPs",
                                "OnlyWos", "OnlyRa"}) {
        core::DiTileAccelerator accel(
            sim::AcceleratorConfig::defaults(),
            core::DiTileOptions::fromVariant(variant));
        const auto plan = accel.plan(dg, mconfig, &cache);
        EXPECT_EQ(plan.snapshots.get(), base.snapshots.get())
            << variant;
    }
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 6u);
}

TEST(PlanCacheTest, CachedPlanExecutesIdentically)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    sim::PlanCache cache;
    core::DiTileAccelerator accel;
    const auto uncached = accel.run(dg, mconfig);
    accel.plan(dg, mconfig, &cache); // Warm the cache.
    const auto cached =
        accel.execute(dg, accel.plan(dg, mconfig, &cache));
    EXPECT_GE(cache.hits(), 1u);
    expectIdentical(uncached, cached);
}

TEST(PlanCacheTest, KeyedByGraphConfigAndAlgo)
{
    const auto dg = planWorkload();
    model::DgnnConfig mconfig;
    const auto base_key = sim::PlanCache::planKey(
        dg, mconfig, model::AlgoKind::DiTileAlg);
    EXPECT_NE(base_key, sim::PlanCache::planKey(
        dg, mconfig, model::AlgoKind::ReAlg));
    model::DgnnConfig gru = mconfig;
    gru.rnn = model::RnnKind::Gru;
    EXPECT_NE(base_key, sim::PlanCache::planKey(
        dg, gru, model::AlgoKind::DiTileAlg));
    graph::EvolutionConfig other;
    other.numVertices = 800;
    other.numEdges = 6400;
    other.numSnapshots = 6;
    other.dissimilarity = 0.12;
    other.featureDim = 64;
    other.seed = 8; // Different evolution, same shape.
    EXPECT_NE(base_key, sim::PlanCache::planKey(
        graph::generateDynamicGraph(other), mconfig,
        model::AlgoKind::DiTileAlg));
    // Identical regeneration hashes identically (the sweep relies on
    // this to share plans across separately built workloads).
    EXPECT_EQ(base_key, sim::PlanCache::planKey(
        planWorkload(), mconfig, model::AlgoKind::DiTileAlg));
}

namespace {

/** Small distinct-structure workload for eviction tests. */
graph::DynamicGraph
tinyWorkload(std::uint64_t seed)
{
    graph::EvolutionConfig config;
    config.numVertices = 64;
    config.numEdges = 256;
    config.numSnapshots = 2;
    config.featureDim = 8;
    config.seed = seed;
    return graph::generateDynamicGraph(config);
}

} // namespace

TEST(PlanCacheTest, EvictToCapacityDropsLeastRecentlyTouched)
{
    const model::DgnnConfig mconfig;
    sim::PlanCache cache;
    cache.setCapacity(2);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto dg = tinyWorkload(seed);
        cache.obtain(dg, mconfig, model::AlgoKind::DiTileAlg);
        keys.push_back(sim::PlanCache::planKey(
            dg, mconfig, model::AlgoKind::DiTileAlg));
    }
    ASSERT_EQ(cache.size(), 3u);
    // Serial recency: keys[1] oldest, then keys[0], then keys[2].
    cache.touch(keys[1]);
    cache.touch(keys[0]);
    cache.touch(keys[2]);
    const auto evicted = cache.evictToCapacity();
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], keys[1]);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(cache.contains(keys[1]));
    EXPECT_TRUE(cache.contains(keys[0]));
    EXPECT_TRUE(cache.contains(keys[2]));
    // Re-obtaining the victim is a fresh miss.
    cache.obtain(tinyWorkload(2), mconfig, model::AlgoKind::DiTileAlg);
    EXPECT_EQ(cache.misses(), 4u);
}

TEST(PlanCacheTest, UntouchedEntriesEvictInAscendingKeyOrder)
{
    const model::DgnnConfig mconfig;
    sim::PlanCache cache;
    cache.setCapacity(1);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto dg = tinyWorkload(seed);
        cache.obtain(dg, mconfig, model::AlgoKind::DiTileAlg);
        keys.push_back(sim::PlanCache::planKey(
            dg, mconfig, model::AlgoKind::DiTileAlg));
    }
    // No touch() calls: recency ties everywhere, so victims come out
    // in ascending key order regardless of hash-map iteration order.
    auto sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    const auto evicted = cache.evictToCapacity();
    ASSERT_EQ(evicted.size(), 2u);
    EXPECT_EQ(evicted[0], sorted[0]);
    EXPECT_EQ(evicted[1], sorted[1]);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_TRUE(cache.contains(sorted[2]));
    // Unbounded again: evictToCapacity becomes a no-op.
    cache.setCapacity(0);
    EXPECT_TRUE(cache.evictToCapacity().empty());
    // clear() resets eviction accounting with everything else.
    cache.clear();
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.size(), 0u);
}

} // namespace
} // namespace ditile
