/**
 * @file
 * Checkpoint serialization implementation.
 */

#include "serve/checkpoint.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace ditile::serve {

namespace {

/** Append a uint64 as a raw JSON number (no int64 clamp). */
JsonObject &
addU64(JsonObject &obj, const std::string &key, std::uint64_t value)
{
    return obj.addRaw(key, std::to_string(value));
}

/** Render a flat JSON number array: [a,b,c]. */
std::string
numberArray(const std::vector<std::uint64_t> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            out += ',';
        out += std::to_string(values[i]);
    }
    out += ']';
    return out;
}

/** Render an edge list as a flat [u,v,u,v,...] array. */
std::string
edgeArray(const std::vector<graph::Edge> &edges)
{
    std::string out = "[";
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (i > 0)
            out += ',';
        out += std::to_string(edges[i].first);
        out += ',';
        out += std::to_string(edges[i].second);
    }
    out += ']';
    return out;
}

std::vector<std::uint64_t>
parseNumberArray(const JsonValue &value)
{
    std::vector<std::uint64_t> out;
    out.reserve(value.size());
    for (const JsonValue &item : value.items())
        out.push_back(item.asUint());
    return out;
}

std::vector<graph::Edge>
parseEdgeArray(const JsonValue &value, const char *what,
               VertexId vertices)
{
    if (value.size() % 2 != 0)
        DITILE_THROW("checkpoint: odd-length ", what, " edge array");
    std::vector<graph::Edge> edges;
    edges.reserve(value.size() / 2);
    const auto &items = value.items();
    for (std::size_t i = 0; i < items.size(); i += 2) {
        const long long u = items[i].asInt();
        const long long v = items[i + 1].asInt();
        if (u < 0 || u >= vertices || v < 0 || v >= vertices)
            DITILE_THROW("checkpoint: ", what, " edge (", u, ",", v,
                         ") outside [0,", vertices, ")");
        edges.emplace_back(static_cast<VertexId>(u),
                           static_cast<VertexId>(v));
    }
    return edges;
}

std::string
tenantPayload(const TenantCheckpoint &tenant)
{
    JsonObject obj;
    obj.add("name", tenant.spec.name);
    obj.add("vertices", static_cast<long long>(tenant.spec.vertices));
    obj.add("edges", static_cast<long long>(tenant.spec.edges));
    addU64(obj, "seed", tenant.spec.seed);
    obj.add("window", static_cast<long long>(tenant.spec.window));
    obj.add("features", static_cast<long long>(tenant.spec.features));
    addU64(obj, "rollEvery", tenant.spec.rollEvery);
    addU64(obj, "lastUse", tenant.lastUse);
    obj.addRaw("breaker",
               numberArray({static_cast<std::uint64_t>(
                                tenant.breakerState),
                            static_cast<std::uint64_t>(
                                tenant.breakerFailures),
                            tenant.breakerBackoffUs,
                            tenant.breakerOpenUntilUs,
                            tenant.breakerOpens}));
    addU64(obj, "applied", tenant.window.appliedEvents);
    addU64(obj, "noop", tenant.window.noopEvents);
    addU64(obj, "rolls", tenant.window.rolls);
    addU64(obj, "sinceRoll", tenant.window.sinceRoll);
    obj.addRaw("live", edgeArray(tenant.live));
    std::string ring = "[";
    for (std::size_t i = 0; i < tenant.ring.size(); ++i) {
        if (i > 0)
            ring += ',';
        ring += edgeArray(tenant.ring[i]);
    }
    ring += ']';
    obj.addRaw("ring", ring);
    return obj.toCompactString();
}

TenantCheckpoint
parseTenant(const JsonValue &value)
{
    TenantCheckpoint tenant;
    tenant.spec.name = value.at("name").asString();
    tenant.spec.vertices =
        static_cast<VertexId>(value.at("vertices").asInt());
    tenant.spec.edges = value.at("edges").asInt();
    tenant.spec.seed = value.at("seed").asUint();
    tenant.spec.window =
        static_cast<SnapshotId>(value.at("window").asInt());
    tenant.spec.features =
        static_cast<int>(value.at("features").asInt());
    tenant.spec.rollEvery = value.at("rollEvery").asUint();
    tenant.lastUse = value.at("lastUse").asUint();
    const JsonValue &breaker = value.at("breaker");
    if (breaker.size() != 5)
        DITILE_THROW("checkpoint: tenant '", tenant.spec.name,
                     "' breaker tuple has ", breaker.size(),
                     " fields (want 5)");
    tenant.breakerState =
        static_cast<int>(breaker.items()[0].asInt());
    tenant.breakerFailures =
        static_cast<int>(breaker.items()[1].asInt());
    tenant.breakerBackoffUs = breaker.items()[2].asUint();
    tenant.breakerOpenUntilUs = breaker.items()[3].asUint();
    tenant.breakerOpens = breaker.items()[4].asUint();
    tenant.window.appliedEvents = value.at("applied").asUint();
    tenant.window.noopEvents = value.at("noop").asUint();
    tenant.window.rolls = value.at("rolls").asUint();
    tenant.window.sinceRoll = value.at("sinceRoll").asUint();
    // The spec must be one a `tenant` line could provision: re-parsing
    // its protocol rendering applies the protocol's bounds.
    Request provision;
    provision.kind = Request::Kind::CreateTenant;
    provision.tenant = tenant.spec.name;
    provision.spec = tenant.spec;
    parseRequest(renderRequest(provision));
    const VertexId vertices = tenant.spec.vertices;
    tenant.live = parseEdgeArray(value.at("live"), "live", vertices);
    for (const JsonValue &snapshot : value.at("ring").items())
        tenant.ring.push_back(
            parseEdgeArray(snapshot, "ring", vertices));
    return tenant;
}

} // namespace

std::string
checkpointPayload(const ServerCheckpoint &checkpoint)
{
    JsonObject state;
    addU64(state, "walSeq", checkpoint.walSeq);
    addU64(state, "ackLines", checkpoint.ackLines);
    addU64(state, "clockUs", checkpoint.clockUs);
    addU64(state, "useSeq", checkpoint.useSeq);
    addU64(state, "nextRequestId", checkpoint.nextRequestId);
    state.add("sawArrival", checkpoint.sawArrival);
    state.add("stopped", checkpoint.stopped);
    state.add("algo", static_cast<long long>(checkpoint.algo));
    state.add("faultSpec", checkpoint.faultSpec);
    state.addRaw("plannedKeys", numberArray(checkpoint.plannedKeys));
    JsonObject counters;
    for (const auto &[name, value] : checkpoint.counters)
        addU64(counters, name, value);
    state.addRaw("counters", counters.toCompactString());
    state.addRaw("latencies", numberArray(checkpoint.latencies));
    std::string tenants = "[";
    for (std::size_t i = 0; i < checkpoint.tenants.size(); ++i) {
        if (i > 0)
            tenants += ',';
        tenants += tenantPayload(checkpoint.tenants[i]);
    }
    tenants += ']';
    state.addRaw("tenants", tenants);
    return state.toCompactString();
}

std::string
checkpointStateHash(const ServerCheckpoint &checkpoint)
{
    return hex64(fnv1a(checkpointPayload(checkpoint)));
}

std::string
renderCheckpoint(const ServerCheckpoint &checkpoint)
{
    JsonObject doc;
    doc.add("format",
            static_cast<long long>(ServerCheckpoint::kFormat));
    doc.add("crc", checkpointStateHash(checkpoint));
    doc.addRaw("state", checkpointPayload(checkpoint));
    return doc.toCompactString();
}

ServerCheckpoint
parseCheckpoint(const std::string &text)
{
    JsonValue doc;
    try {
        doc = JsonValue::parse(text);
    } catch (const std::exception &e) {
        DITILE_THROW("checkpoint: malformed JSON (", e.what(), ")");
    }
    ServerCheckpoint checkpoint;
    try {
        const long long format = doc.at("format").asInt();
        if (format != ServerCheckpoint::kFormat)
            DITILE_THROW("checkpoint: unsupported format ", format,
                         " (this build reads ",
                         ServerCheckpoint::kFormat, ")");
        const JsonValue &state = doc.at("state");
        checkpoint.walSeq = state.at("walSeq").asUint();
        checkpoint.ackLines = state.at("ackLines").asUint();
        checkpoint.clockUs = state.at("clockUs").asUint();
        checkpoint.useSeq = state.at("useSeq").asUint();
        checkpoint.nextRequestId =
            state.at("nextRequestId").asUint();
        checkpoint.sawArrival = state.at("sawArrival").asBool();
        checkpoint.stopped = state.at("stopped").asBool();
        checkpoint.algo = static_cast<int>(state.at("algo").asInt());
        checkpoint.faultSpec = state.at("faultSpec").asString();
        checkpoint.plannedKeys =
            parseNumberArray(state.at("plannedKeys"));
        for (const auto &[name, value] :
             state.at("counters").members())
            checkpoint.counters.emplace_back(name, value.asUint());
        checkpoint.latencies =
            parseNumberArray(state.at("latencies"));
        for (const JsonValue &tenant : state.at("tenants").items())
            checkpoint.tenants.push_back(parseTenant(tenant));
        // Re-render the decoded struct and compare hashes: one check
        // covers on-disk integrity and round-trip fidelity.
        const std::string crc = doc.at("crc").asString();
        const std::string expected = checkpointStateHash(checkpoint);
        if (crc != expected)
            DITILE_THROW("checkpoint: crc mismatch (file ", crc,
                         ", state ", expected, ")");
    } catch (const InputError &) {
        throw;
    } catch (const std::exception &e) {
        DITILE_THROW("checkpoint: bad document (", e.what(), ")");
    }
    return checkpoint;
}

void
writeCheckpointFile(const std::string &path,
                    const ServerCheckpoint &checkpoint)
{
    const std::string tmp = path + ".tmp";
    std::FILE *fp = std::fopen(tmp.c_str(), "wb");
    if (!fp)
        DITILE_THROW("checkpoint: cannot open '", tmp,
                     "' for writing");
    const std::string body = renderCheckpoint(checkpoint) + "\n";
    const bool wrote =
        std::fwrite(body.data(), 1, body.size(), fp) == body.size();
    const bool flushed = std::fflush(fp) == 0;
    // fsync before rename: the rename must never land before the
    // bytes do, or a crash window could leave a truncated "complete"
    // checkpoint.
    const bool synced = ::fsync(::fileno(fp)) == 0;
    std::fclose(fp);
    if (!wrote || !flushed || !synced) {
        std::remove(tmp.c_str());
        DITILE_THROW("checkpoint: short write to '", tmp, "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        DITILE_THROW("checkpoint: cannot rename '", tmp, "' to '",
                     path, "'");
    }
}

ServerCheckpoint
loadCheckpointFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        DITILE_THROW("checkpoint: cannot read '", path, "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parseCheckpoint(buffer.str());
}

} // namespace ditile::serve
