/**
 * @file
 * Checkpoint serialization implementation.
 */

#include "serve/checkpoint.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include <unistd.h>

#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace ditile::serve {

namespace {

// ---- rendering: one buffer, std::to_chars for every number ----------

template <typename Int>
void
putInt(std::string &out, Int value)
{
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    out.append(buf, static_cast<std::size_t>(end - buf));
}

/** Append `,"key":` (or `{"key":` for an object's first member). */
void
putKey(std::string &out, std::string_view key, bool first = false)
{
    out += first ? '{' : ',';
    appendJsonQuoted(out, key);
    out += ':';
}

template <typename Int>
void
putField(std::string &out, std::string_view key, Int value,
         bool first = false)
{
    putKey(out, key, first);
    putInt(out, value);
}

void
putNumbers(std::string &out, const std::vector<std::uint64_t> &values)
{
    out += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            out += ',';
        putInt(out, values[i]);
    }
    out += ']';
}

/** An edge list as a flat [u,v,u,v,...] array. */
void
putEdges(std::string &out, const std::vector<graph::Edge> &edges)
{
    out += '[';
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (i > 0)
            out += ',';
        putInt(out, edges[i].first);
        out += ',';
        putInt(out, edges[i].second);
    }
    out += ']';
}

/** A delta as an [[added],[removed]] pair. */
void
putDelta(std::string &out, const graph::GraphDelta &delta)
{
    out += '[';
    putEdges(out, delta.addedEdges());
    out += ',';
    putEdges(out, delta.removedEdges());
    out += ']';
}

/**
 * Format 1 stored every window snapshot and the live set in full. A
 * format-1 document is verified against its own rendering of these.
 */
struct FullLists
{
    std::vector<graph::Edge> live;
    std::vector<std::vector<graph::Edge>> ring;
};

/** A tenant's members up to its window: the same in both formats. */
void
putTenantHead(std::string &out, const TenantCheckpoint &tenant)
{
    putKey(out, "name", true);
    appendJsonQuoted(out, tenant.spec.name);
    putField(out, "vertices", tenant.spec.vertices);
    putField(out, "edges", tenant.spec.edges);
    putField(out, "seed", tenant.spec.seed);
    putField(out, "window", tenant.spec.window);
    putField(out, "features", tenant.spec.features);
    putField(out, "rollEvery", tenant.spec.rollEvery);
    putField(out, "lastUse", tenant.lastUse);
    putKey(out, "breaker");
    putNumbers(out, {static_cast<std::uint64_t>(tenant.breakerState),
                     static_cast<std::uint64_t>(tenant.breakerFailures),
                     tenant.breakerBackoffUs, tenant.breakerOpenUntilUs,
                     tenant.breakerOpens});
    putField(out, "applied", tenant.window.appliedEvents);
    putField(out, "noop", tenant.window.noopEvents);
    putField(out, "rolls", tenant.window.rolls);
    putField(out, "sinceRoll", tenant.window.sinceRoll);
}

/** Rough rendered size, so the payload buffer grows at most once. */
std::size_t
payloadEstimate(const ServerCheckpoint &checkpoint)
{
    std::size_t edges = 0;
    for (const TenantCheckpoint &tenant : checkpoint.tenants) {
        edges += tenant.oldest.size() + tenant.pending.numChanges();
        for (const graph::GraphDelta &delta : tenant.deltas)
            edges += delta.numChanges();
    }
    return 1024 + 21 * checkpoint.plannedKeys.size() +
        8 * checkpoint.latencies.size() +
        256 * checkpoint.tenants.size() + 12 * edges;
}

/**
 * Append the canonical compact JSON of the state object (the hashed
 * bytes): format 2, or format 1 when `full` holds each tenant's lists.
 */
void
appendPayload(std::string &out, const ServerCheckpoint &checkpoint,
              const std::vector<FullLists> *full = nullptr)
{
    putField(out, "walSeq", checkpoint.walSeq, true);
    putField(out, "ackLines", checkpoint.ackLines);
    putField(out, "clockUs", checkpoint.clockUs);
    putField(out, "useSeq", checkpoint.useSeq);
    putField(out, "nextRequestId", checkpoint.nextRequestId);
    putKey(out, "sawArrival");
    out += checkpoint.sawArrival ? "true" : "false";
    putKey(out, "stopped");
    out += checkpoint.stopped ? "true" : "false";
    putField(out, "algo", checkpoint.algo);
    putKey(out, "faultSpec");
    appendJsonQuoted(out, checkpoint.faultSpec);
    putKey(out, "plannedKeys");
    putNumbers(out, checkpoint.plannedKeys);
    putKey(out, "counters");
    for (std::size_t i = 0; i < checkpoint.counters.size(); ++i)
        putField(out, checkpoint.counters[i].first,
                 checkpoint.counters[i].second, i == 0);
    out += checkpoint.counters.empty() ? "{}" : "}";
    putKey(out, "latencies");
    putNumbers(out, checkpoint.latencies);
    putKey(out, "tenants");
    out += '[';
    for (std::size_t i = 0; i < checkpoint.tenants.size(); ++i) {
        const TenantCheckpoint &tenant = checkpoint.tenants[i];
        if (i > 0)
            out += ',';
        putTenantHead(out, tenant);
        if (full) {
            const FullLists &lists = (*full)[i];
            putKey(out, "live");
            putEdges(out, lists.live);
            putKey(out, "ring");
            out += '[';
            for (std::size_t s = 0; s < lists.ring.size(); ++s) {
                if (s > 0)
                    out += ',';
                putEdges(out, lists.ring[s]);
            }
            out += ']';
        } else {
            putKey(out, "oldest");
            putEdges(out, tenant.oldest);
            putKey(out, "deltas");
            out += '[';
            for (std::size_t d = 0; d < tenant.deltas.size(); ++d) {
                if (d > 0)
                    out += ',';
                putDelta(out, tenant.deltas[d]);
            }
            out += ']';
            putKey(out, "pending");
            putDelta(out, tenant.pending);
        }
        out += '}';
    }
    out += "]}";
}

// ---- parsing ---------------------------------------------------------

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

graph::GraphDelta
parseDelta(const JsonValue &value, VertexId vertices)
{
    if (value.size() != 2)
        DITILE_THROW("checkpoint: a delta has ", value.size(),
                     " lists (want [added, removed])");
    return graph::GraphDelta::fromChanges(
        parseEdgeArray(value.items()[0], "added", vertices),
        parseEdgeArray(value.items()[1], "removed", vertices));
}

/**
 * Format 1's full lists in format-2 form, built the way its restore
 * built them (Csr::fromEdges per snapshot) and diffed once here.
 */
void
encodeDeltas(TenantCheckpoint &tenant, const FullLists &lists)
{
    const std::string &name = tenant.spec.name;
    if (lists.ring.empty())
        DITILE_THROW("checkpoint: tenant '", name,
                     "' has an empty snapshot ring");
    std::vector<graph::Edge> live = lists.live;
    for (graph::Edge &edge : live)
        edge = {std::min(edge.first, edge.second),
                std::max(edge.first, edge.second)};
    std::sort(live.begin(), live.end());
    const auto dup = std::adjacent_find(live.begin(), live.end());
    if (dup != live.end())
        DITILE_THROW("checkpoint: tenant '", name, "' has duplicate live "
                     "edge (", dup->first, ",", dup->second, ")");
    const VertexId vertices = tenant.spec.vertices;
    graph::Csr prev = graph::Csr::fromEdges(vertices, lists.ring.front());
    tenant.oldest = prev.edgeList();
    for (std::size_t s = 1; s < lists.ring.size(); ++s) {
        graph::Csr next = graph::Csr::fromEdges(vertices, lists.ring[s]);
        tenant.deltas.push_back(graph::GraphDelta::diff(prev, next));
        prev = std::move(next);
    }
    tenant.pending = graph::GraphDelta::diff(
        prev, graph::Csr::fromEdges(vertices, live));
}

/** A tenant record; format 1's edge lists go to `full`. */
TenantCheckpoint
parseTenant(const JsonValue &value, FullLists *full)
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
    if (full) {
        full->live = parseEdgeArray(value.at("live"), "live", vertices);
        for (const JsonValue &snapshot : value.at("ring").items())
            full->ring.push_back(
                parseEdgeArray(snapshot, "ring", vertices));
        return tenant;
    }
    tenant.oldest = parseEdgeArray(value.at("oldest"), "oldest", vertices);
    for (const JsonValue &delta : value.at("deltas").items())
        tenant.deltas.push_back(parseDelta(delta, vertices));
    tenant.pending = parseDelta(value.at("pending"), vertices);
    return tenant;
}

} // namespace

std::string
checkpointStateHash(const ServerCheckpoint &checkpoint)
{
    std::string payload;
    payload.reserve(payloadEstimate(checkpoint));
    appendPayload(payload, checkpoint);
    return hex64(fnv1a(payload));
}

std::string
renderCheckpoint(const ServerCheckpoint &checkpoint)
{
    // The crc precedes the state it covers: reserve its 16 digits,
    // render the state after them, then hash it and fill them in.
    std::string out;
    out.reserve(64 + payloadEstimate(checkpoint));
    out += "{\"format\":";
    putInt(out, ServerCheckpoint::kFormat);
    out += ",\"crc\":\"";
    const std::size_t crc_at = out.size();
    out.append(16, '0');
    out += "\",\"state\":";
    const std::size_t state_at = out.size();
    appendPayload(out, checkpoint);
    hex64To(out.data() + crc_at,
            fnv1a(std::string_view(out).substr(state_at)));
    out += '}';
    return out;
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
        if (format != 1 && format != ServerCheckpoint::kFormat)
            DITILE_THROW("checkpoint: unsupported format ", format,
                         " (this build reads 1 and ",
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
        std::vector<FullLists> full;
        for (const JsonValue &tenant : state.at("tenants").items()) {
            if (format == 1)
                full.emplace_back();
            checkpoint.tenants.push_back(
                parseTenant(tenant, format == 1 ? &full.back() : nullptr));
        }
        // Re-render the decoded struct and compare hashes: one check
        // covers on-disk integrity and round-trip fidelity.
        std::string payload;
        payload.reserve(text.size());
        appendPayload(payload, checkpoint, format == 1 ? &full : nullptr);
        const std::string crc = doc.at("crc").asString();
        const std::string expected = hex64(fnv1a(payload));
        if (crc != expected)
            DITILE_THROW("checkpoint: crc mismatch (file ", crc,
                         ", state ", expected, ")");
        for (std::size_t i = 0; i < full.size(); ++i)
            encodeDeltas(checkpoint.tenants[i], full[i]);
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
    std::string body = renderCheckpoint(checkpoint);
    body += '\n';
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
