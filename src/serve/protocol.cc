/**
 * @file
 * Protocol parser implementation.
 */

#include "serve/protocol.hh"

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "sim/fault_model.hh"

namespace ditile::serve {

namespace {

std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream stream(line);
    std::string token;
    while (stream >> token)
        tokens.push_back(token);
    return tokens;
}

/** Parse a non-negative integer token; throws InputError otherwise. */
long long
parseNumber(const std::string &token, const char *what)
{
    char *end = nullptr;
    errno = 0;
    const long long value = std::strtoll(token.c_str(), &end, 10);
    // The errno check matters: strtoll clamps an overflowing token to
    // LLONG_MAX, and a clamped edge count once escaped as an untyped
    // length_error out of vector::reserve during provisioning.
    if (end == token.c_str() || *end != '\0' || value < 0 ||
        errno == ERANGE)
        DITILE_THROW("bad ", what, " '", token, "'");
    return value;
}

/** Provisioning ceilings: one hostile `tenant` line must not be able
 *  to reserve gigabytes before generation even starts. Far above any
 *  modeled workload, far below allocation-failure territory. */
constexpr long long kMaxTenantVertices = 1 << 24;
constexpr long long kMaxTenantEdges = 1 << 27;
constexpr long long kMaxTenantWindow = 1024;
constexpr long long kMaxTenantFeatures = 1 << 16;

/**
 * Apply one "key=value" option token to a TenantSpec.
 */
void
applyTenantOption(TenantSpec &spec, const std::string &token)
{
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0 ||
        eq + 1 >= token.size()) {
        DITILE_THROW("bad tenant option '", token,
                     "' (expected key=value)");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "vertices") {
        const long long vertices = parseNumber(value, "vertices");
        if (vertices > kMaxTenantVertices)
            DITILE_THROW("tenant vertices capped at ",
                         kMaxTenantVertices);
        spec.vertices = static_cast<VertexId>(vertices);
        if (spec.vertices < 2)
            DITILE_THROW("tenant needs at least 2 vertices");
    } else if (key == "edges") {
        spec.edges = parseNumber(value, "edges");
        if (spec.edges > kMaxTenantEdges)
            DITILE_THROW("tenant edges capped at ", kMaxTenantEdges);
    } else if (key == "seed") {
        spec.seed =
            static_cast<std::uint64_t>(parseNumber(value, "seed"));
    } else if (key == "window") {
        const long long window = parseNumber(value, "window");
        if (window > kMaxTenantWindow)
            DITILE_THROW("tenant window capped at ",
                         kMaxTenantWindow);
        spec.window = static_cast<SnapshotId>(window);
        if (spec.window < 1)
            DITILE_THROW("tenant window must be >= 1");
    } else if (key == "features") {
        const long long features = parseNumber(value, "features");
        if (features > kMaxTenantFeatures)
            DITILE_THROW("tenant features capped at ",
                         kMaxTenantFeatures);
        spec.features = static_cast<int>(features);
        if (spec.features < 1)
            DITILE_THROW("tenant features must be >= 1");
    } else if (key == "roll-every") {
        spec.rollEvery =
            static_cast<std::uint64_t>(parseNumber(value, "roll-every"));
    } else {
        DITILE_THROW("unknown tenant option '", key, "'");
    }
}

} // namespace

bool
isNopLine(const std::string &line)
{
    // The tokenizer's whitespace set: a line of only \v or \f would
    // otherwise reach the parser with no verb token.
    const auto first = line.find_first_not_of(" \t\r\n\v\f");
    return first == std::string::npos || line[first] == '#';
}

Request
parseRequest(const std::string &line)
{
    Request request;
    if (isNopLine(line))
        return request; // Nop
    // Reject oversized input before tokenize() allocates anything
    // proportional to it: a hostile or corrupted client line must
    // cost a typed error, not memory.
    if (line.size() > kMaxLineBytes)
        DITILE_THROW("line exceeds ", kMaxLineBytes, " bytes (got ",
                     line.size(), ")");
    const auto tokens = tokenize(line);
    const std::string &verb = tokens.front();

    if (verb == "tenant") {
        if (tokens.size() < 2)
            DITILE_THROW("tenant needs a name");
        request.kind = Request::Kind::CreateTenant;
        request.tenant = tokens[1];
        request.spec.name = tokens[1];
        for (std::size_t i = 2; i < tokens.size(); ++i)
            applyTenantOption(request.spec, tokens[i]);
        return request;
    }
    if (verb == "event") {
        if (tokens.size() != 5)
            DITILE_THROW("event needs: event <tenant> add|del <u> <v>");
        request.kind = Request::Kind::Event;
        request.tenant = tokens[1];
        if (tokens[2] == "add")
            request.event.kind = graph::GraphEvent::Kind::AddEdge;
        else if (tokens[2] == "del")
            request.event.kind = graph::GraphEvent::Kind::RemoveEdge;
        else
            DITILE_THROW("bad event kind '", tokens[2],
                         "' (expected add or del)");
        request.event.u =
            static_cast<VertexId>(parseNumber(tokens[3], "vertex"));
        request.event.v =
            static_cast<VertexId>(parseNumber(tokens[4], "vertex"));
        return request;
    }
    if (verb == "roll" || verb == "query") {
        if (tokens.size() != 2)
            DITILE_THROW(verb, " needs: ", verb, " <tenant>");
        request.kind = verb == "roll" ? Request::Kind::Roll
                                      : Request::Kind::Query;
        request.tenant = tokens[1];
        return request;
    }
    if (verb == "fault") {
        if (tokens.size() < 2)
            DITILE_THROW(
                "fault needs: fault <spec> [<spec>...] | fault clear");
        request.kind = Request::Kind::Fault;
        if (tokens.size() == 2 && tokens[1] == "clear")
            return request; // Empty spec == clear.
        std::string spec;
        for (std::size_t i = 1; i < tokens.size(); ++i) {
            if (i > 1)
                spec += ';';
            spec += tokens[i];
        }
        // Validate the grammar now (typed err parse on bad specs);
        // store the canonical rendering so WAL replay and rendering
        // round-trip exactly.
        request.faultSpec = sim::FaultSpec::parse(spec).toString();
        return request;
    }
    if (verb == "stats") {
        if (tokens.size() != 1)
            DITILE_THROW("stats takes no arguments");
        request.kind = Request::Kind::Stats;
        return request;
    }
    if (verb == "quit") {
        if (tokens.size() != 1)
            DITILE_THROW("quit takes no arguments");
        request.kind = Request::Kind::Quit;
        return request;
    }
    DITILE_THROW("unknown request '", verb, "'");
}

std::string
renderRequest(const Request &request)
{
    switch (request.kind) {
    case Request::Kind::Nop:
        return "";
    case Request::Kind::CreateTenant:
        return "tenant " + request.tenant +
            " vertices=" + std::to_string(request.spec.vertices) +
            " edges=" + std::to_string(request.spec.edges) +
            " seed=" + std::to_string(request.spec.seed) +
            " window=" + std::to_string(request.spec.window) +
            " features=" + std::to_string(request.spec.features) +
            " roll-every=" + std::to_string(request.spec.rollEvery);
    case Request::Kind::Event:
        return "event " + request.tenant +
            (request.event.kind == graph::GraphEvent::Kind::AddEdge
                 ? " add "
                 : " del ") +
            std::to_string(request.event.u) + " " +
            std::to_string(request.event.v);
    case Request::Kind::Roll:
        return "roll " + request.tenant;
    case Request::Kind::Query:
        return "query " + request.tenant;
    case Request::Kind::Fault:
        return request.faultSpec.empty() ? "fault clear"
                                         : "fault " + request.faultSpec;
    case Request::Kind::Stats:
        return "stats";
    case Request::Kind::Quit:
        return "quit";
    case Request::Kind::Malformed:
        return request.raw;
    }
    return "";
}

std::string
errorResponse(const std::string &code, const std::string &message)
{
    return "err " + code + ": " + message;
}

} // namespace ditile::serve
