/**
 * @file
 * Streaming inference server implementation.
 */

#include "serve/server.hh"

#include <algorithm>
#include <iterator>
#include <map>

#include "common/bounded_queue.hh"
#include "common/logging.hh"
#include "common/shutdown.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "graph/generator.hh"

namespace ditile::serve {

namespace {

/** Bump a serve.* metric (no-op unless --metrics is on). */
void
metric(const char *path)
{
    Tracer::global().addMetric(path, 1);
}

/**
 * The serve counter table. Row order is the checkpoint's key order
 * and the summary's row order, so both stay byte-stable. The last
 * three rows are latency bookkeeping: checkpointed, never counted.
 */
constexpr ServeCounter kServeCounters[] = {
    {&ServeSummary::requests, "requests", "serve.requests", "requests"},
    {&ServeSummary::queries, "queries", "serve.queries", "queries"},
    {&ServeSummary::events, "events", "serve.events", "events"},
    {&ServeSummary::noopEvents, "noopEvents", "serve.noop_events",
     "noop events"},
    {&ServeSummary::rolls, "rolls", "serve.rolls", "rolls"},
    {&ServeSummary::rejected, "rejected", "serve.rejected",
     "rejected (queue full)"},
    {&ServeSummary::errors, "errors", "serve.errors", "errors"},
    {&ServeSummary::evictions, "evictions", "serve.evictions",
     "tenant evictions"},
    {&ServeSummary::batches, "batches", "serve.batches", "batches"},
    {&ServeSummary::completed, "completed", "serve.completed",
     "completed queries"},
    {&ServeSummary::planHits, "planHits", "serve.plan_hits",
     "plan hits (predicted)"},
    {&ServeSummary::planMisses, "planMisses", "serve.plan_misses",
     "plan misses (predicted)"},
    {&ServeSummary::planEvictions, "planEvictions",
     "serve.plan_evictions", "plan evictions"},
    {&ServeSummary::busyDeadline, "busyDeadline", "serve.busy_deadline",
     "deadline busy"},
    {&ServeSummary::breakerRejected, "breakerRejected",
     "serve.breaker.rejected", "breaker rejected"},
    {&ServeSummary::breakerOpens, "breakerOpens", "serve.breaker.opens",
     "breaker opens"},
    {&ServeSummary::execFailures, "execFailures", "serve.exec_failures",
     "exec failures"},
    {&ServeSummary::faultSplices, "faultSplices", "serve.fault_splices",
     "fault splices"},
    {&ServeSummary::maxUs, "maxUs", nullptr, nullptr},
    {&ServeSummary::firstArrivalUs, "firstArrivalUs", nullptr, nullptr},
    {&ServeSummary::lastCompletionUs, "lastCompletionUs", nullptr,
     nullptr},
};

} // namespace

/** A counted row of the table, found at compile time. */
struct Server::Counter
{
    consteval Counter(std::uint64_t ServeSummary::*field)
    {
        // Runs off the table, a compile error, for an uncounted field.
        while (kServeCounters[row].field != field ||
               kServeCounters[row].metricPath == nullptr)
            ++row;
    }
    std::size_t row = 0;
};

std::span<const ServeCounter>
serveCounters()
{
    return kServeCounters;
}

std::uint64_t
percentileNearestRank(const std::vector<std::uint64_t> &sorted,
                      unsigned pct)
{
    if (sorted.empty())
        return 0;
    // Nearest-rank: the smallest sample with at least pct% of the
    // distribution at or below it, idx = ceil(N * pct / 100) - 1.
    // (The previous (N-1)*pct/100 truncation under-reported tail
    // percentiles on small windows: p99 of 2 samples picked the min.)
    std::size_t rank = (sorted.size() * pct + 99) / 100;
    if (rank == 0)
        rank = 1;
    if (rank > sorted.size())
        rank = sorted.size();
    return sorted[rank - 1];
}

/**
 * One live tenant: provisioning spec, the snapshot window its event
 * stream mutates, and the circuit breaker guarding its queries.
 */
struct Server::Tenant
{
    TenantSpec spec;
    graph::SnapshotWindow window;
    std::uint64_t lastUse = 0;
    CircuitBreaker breaker;

    Tenant(TenantSpec s, graph::Csr initial, BreakerOptions breaker_opts)
        : spec(s),
          window(s.name, std::move(initial), s.window, s.features),
          breaker(breaker_opts)
    {
    }

    /** Restore path: adopt a rebuilt window wholesale. */
    Tenant(TenantSpec s, graph::SnapshotWindow restored,
           BreakerOptions breaker_opts)
        : spec(std::move(s)), window(std::move(restored)),
          breaker(breaker_opts)
    {
    }
};

/**
 * One admitted query moving through a batch.
 */
struct Server::PendingQuery
{
    const Request *request = nullptr;
    std::size_t scheduleIndex = 0;
    Tenant *tenant = nullptr;
    const graph::DynamicGraph *dg = nullptr;
    bool planHit = false;
    bool groupRep = false;
    bool quarantined = false; ///< Breaker said No; answered busy.
    bool failed = false;      ///< plan/execute threw (typed).
    std::uint64_t planKey = 0;
    sim::QueryOutcome result;
    std::uint64_t serviceUs = 0;
    std::string error; ///< InputError message when failed.
    std::string response;

    /** Executed to completion (counts toward latency/completed). */
    bool completed() const
    {
        return tenant != nullptr && !quarantined && !failed;
    }
};

Server::Server(ServerOptions options, sim::AcceleratorFactory factory)
    : options_(std::move(options)),
      runner_(std::move(factory), options_.planCacheCapacity)
{
    if (options_.queueCapacity < 1)
        options_.queueCapacity = 1;
    if (options_.batchMax < 1)
        options_.batchMax = 1;
    if (options_.maxTenants < 1)
        options_.maxTenants = 1;
    if (options_.serviceCyclesPerUs < 1)
        options_.serviceCyclesPerUs = 1;
}

Server::~Server() = default;

void
Server::count(Counter counter)
{
    const ServeCounter &row = kServeCounters[counter.row];
    ++(counters_.*row.field);
    metric(row.metricPath);
}

std::string
Server::fail(const std::string &code, const std::string &text)
{
    count(&ServeSummary::errors);
    return errorResponse(code, text);
}

Server::Tenant *
Server::lookupTenant(const Request &request, std::string &error)
{
    const auto it = tenants_.find(request.tenant);
    if (it == tenants_.end()) {
        error = fail("unknown-tenant",
                     "no tenant '" + request.tenant + "'");
        return nullptr;
    }
    touch(*it->second);
    return it->second.get();
}

void
Server::touch(Tenant &tenant)
{
    tenant.lastUse = ++useSeq_;
}

void
Server::evictForCapacity()
{
    while (tenants_.size() >= options_.maxTenants) {
        // Least-recently-used; the name-ordered map breaks lastUse
        // ties deterministically.
        auto victim = tenants_.begin();
        for (auto it = tenants_.begin(); it != tenants_.end(); ++it)
            if (it->second->lastUse < victim->second->lastUse)
                victim = it;
        const std::string name = victim->first;
        tenants_.erase(victim);
        count(&ServeSummary::evictions);
        if (wal_ && logging_) {
            // Logged after the line record that caused it: replay of
            // that line must evict the same victim, and recover()
            // checks that it did.
            wal_->append(WalRecord::Kind::Evict, name);
        } else if (recovering_) {
            recoveryEvicts_.push_back(name);
        }
    }
}

std::string
Server::createTenant(const Request &request)
{
    if (tenants_.contains(request.tenant))
        return fail("tenant-exists",
                    "tenant '" + request.tenant + "' already provisioned");
    const std::size_t before = counters_.evictions;
    evictForCapacity();
    const bool evicted = counters_.evictions != before;
    Rng rng(request.spec.seed);
    auto initial = graph::generateRmat(request.spec.vertices,
                                       request.spec.edges, {}, rng);
    const EdgeId edges = initial.numEdges();
    auto tenant = std::make_unique<Tenant>(request.spec,
                                           std::move(initial),
                                           options_.breaker);
    touch(*tenant);
    tenants_.emplace(request.tenant, std::move(tenant));
    metric("serve.tenants_created");
    std::string response = "ok tenant " + request.tenant +
        " vertices=" + std::to_string(request.spec.vertices) +
        " edges=" + std::to_string(edges) +
        " window=" + std::to_string(request.spec.window);
    if (evicted)
        response += " evicted=1";
    return response;
}

void
Server::maybeAutoRoll(Tenant &tenant)
{
    if (tenant.spec.rollEvery == 0 ||
        tenant.window.eventsSinceRoll() < tenant.spec.rollEvery)
        return;
    tenant.window.roll();
    count(&ServeSummary::rolls);
}

std::string
Server::applyEvent(const Request &request)
{
    std::string error;
    Tenant *tenant = lookupTenant(request, error);
    if (!tenant)
        return error;
    const std::uint64_t noops_before = tenant->window.noopEvents();
    try {
        tenant->window.apply(request.event);
    } catch (const InputError &e) {
        return fail("bad-event", e.what());
    }
    count(&ServeSummary::events);
    if (tenant->window.noopEvents() != noops_before)
        count(&ServeSummary::noopEvents);
    const std::uint64_t rolls_before = counters_.rolls;
    maybeAutoRoll(*tenant);
    std::string response = "ok event " + request.tenant +
        " live=" + std::to_string(tenant->window.liveEdges());
    if (counters_.rolls != rolls_before)
        response += " rolled=1";
    return response;
}

std::string
Server::rollTenant(const Request &request)
{
    std::string error;
    Tenant *tenant = lookupTenant(request, error);
    if (!tenant)
        return error;
    tenant->window.roll();
    count(&ServeSummary::rolls);
    return "ok roll " + request.tenant +
        " window=" + std::to_string(tenant->window.windowSize()) +
        " live=" + std::to_string(tenant->window.liveEdges());
}

std::string
Server::spliceFaults(const Request &request)
{
    if (request.faultSpec.empty()) {
        activeFaults_ = sim::FaultSpec{};
        metric("serve.fault_clears");
        return "ok fault cleared";
    }
    sim::FaultSpec spec;
    try {
        spec = sim::FaultSpec::parse(request.faultSpec);
    } catch (const InputError &e) {
        // parseRequest already validated the grammar; only a spec
        // from a corrupt WAL can land here.
        return fail("parse", e.what());
    }
    activeFaults_.merge(spec);
    count(&ServeSummary::faultSplices);
    return "ok fault events=" +
        std::to_string(activeFaults_.events.size());
}

std::string
Server::statsResponse() const
{
    return "ok stats tenants=" + std::to_string(tenants_.size()) +
        " requests=" + std::to_string(counters_.requests) +
        " queries=" + std::to_string(counters_.queries) +
        " events=" + std::to_string(counters_.events) +
        " rejected=" + std::to_string(counters_.rejected) +
        " errors=" + std::to_string(counters_.errors);
}

std::string
Server::dispatchControl(const Request &request)
{
    switch (request.kind) {
    case Request::Kind::CreateTenant:
        return createTenant(request);
    case Request::Kind::Event:
        return applyEvent(request);
    case Request::Kind::Roll:
        return rollTenant(request);
    case Request::Kind::Fault:
        return spliceFaults(request);
    case Request::Kind::Stats:
        return statsResponse();
    case Request::Kind::Quit:
        stopped_ = true;
        return "ok quit";
    default:
        DITILE_PANIC("not a control request");
    }
}

std::uint64_t
Server::executeBatch(std::vector<PendingQuery> &batch,
                     std::uint64_t start_us)
{
    // Serial admission-to-execution step: resolve tenants, pin the
    // window graphs, predict cache hits, and group by structure hash
    // so no two concurrent members can race one plan-cache key.
    std::map<std::uint64_t, std::size_t> groups;
    std::vector<std::size_t> reps;
    std::vector<std::size_t> followers;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        PendingQuery &pq = batch[i];
        pq.tenant = lookupTenant(*pq.request, pq.response);
        if (!pq.tenant)
            continue;
        const auto admit = pq.tenant->breaker.admit(start_us);
        if (admit == CircuitBreaker::Admit::No) {
            pq.quarantined = true;
            count(&ServeSummary::breakerRejected);
            pq.response = errorResponse(
                "busy",
                "tenant '" + pq.request->tenant +
                    "' quarantined; retry-after=" +
                    std::to_string(
                        pq.tenant->breaker.retryAfterUs(start_us)) +
                    "us");
            continue;
        }
        pq.dg = &pq.tenant->window.graph();
        // Hit prediction comes from the serial plannedKeys_ set, not
        // the real cache, so it is identical on a restored server
        // whose cache is still cold (see server.hh).
        pq.planKey = runner_.planKeyFor(*pq.dg, options_.model);
        pq.planHit =
            pq.planKey != 0 && plannedKeys_.count(pq.planKey) > 0;
        if (pq.planHit)
            count(&ServeSummary::planHits);
        else
            count(&ServeSummary::planMisses);
        const auto [it, inserted] =
            groups.emplace(pq.dg->structureHashValue(), i);
        pq.groupRep = inserted;
        (inserted ? reps : followers).push_back(i);
    }

    // The spec is copied (and fingerprinted for the outcome memo) at
    // this serial point: a concurrent `fault` verb cannot exist
    // (dispatch is serial), but the batch must see one consistent spec
    // even if that ever changes.
    const sim::PinnedFaults faults(activeFaults_);
    auto runOne = [&](std::size_t i) {
        PendingQuery &pq = batch[i];
        // Disjoint trace-track group per request, so concurrent
        // inferences never interleave on one track.
        Tracer::setTrackBase((1 + pq.request->id) *
                             Tracer::kTracksPerRun);
        try {
            pq.result = runner_.infer(*pq.dg, options_.model, faults);
            pq.serviceUs = std::max<std::uint64_t>(
                1,
                pq.result.totalCycles / options_.serviceCyclesPerUs);
        } catch (const InputError &e) {
            // Typed plan/execute failure (e.g. a live fault spec that
            // does not resolve against the hardware): answered as
            // `err exec`, fed to the breaker at the serial merge.
            pq.failed = true;
            pq.error = e.what();
            pq.serviceUs = 1;
        }
    };
    // Phase A: one representative per distinct graph structure plans
    // and publishes its plan set and outcome first; phase B members
    // then answer as guaranteed outcome-memo hits (or, after a failed
    // representative, fail the same way). See the class comment on
    // shared-cache determinism.
    parallelFor(reps.size(),
                [&](std::size_t k) { runOne(reps[k]); });
    parallelFor(followers.size(),
                [&](std::size_t k) { runOne(followers[k]); });

    std::uint64_t dur_us = options_.batchOverheadUs;
    for (const PendingQuery &pq : batch)
        if (pq.tenant)
            dur_us = std::max(dur_us,
                              options_.batchOverheadUs + pq.serviceUs);
    const std::uint64_t end_us = start_us + dur_us;

    // Serial merge: breaker outcomes, responses, and request spans in
    // batch order.
    Tracer &tracer = Tracer::global();
    for (PendingQuery &pq : batch) {
        if (!pq.tenant || pq.quarantined)
            continue;
        if (pq.failed) {
            count(&ServeSummary::execFailures);
            const auto outcome =
                pq.tenant->breaker.onFailure(end_us);
            if (outcome == CircuitBreaker::Outcome::Opened ||
                outcome == CircuitBreaker::Outcome::Reopened)
                count(&ServeSummary::breakerOpens);
            pq.response = errorResponse("exec", pq.error);
            continue;
        }
        if (pq.tenant->breaker.onSuccess() ==
            CircuitBreaker::Outcome::Closed)
            metric("serve.breaker.closes");
        // A key of 0 means the algo was still unlatched at prediction
        // time (first-ever query); executing latched it, so the key
        // is computable now — and must be recorded, or the next query
        // on this structure would wrongly predict a miss.
        if (pq.planKey == 0)
            pq.planKey = runner_.planKeyFor(*pq.dg, options_.model);
        if (pq.planKey != 0)
            plannedKeys_.insert(pq.planKey);
        pq.response = "ok query " + pq.request->tenant +
            " cycles=" + std::to_string(pq.result.totalCycles) +
            " ops=" + std::to_string(pq.result.ops) +
            " dram_bytes=" + std::to_string(pq.result.dramBytes) +
            " noc_bytes=" + std::to_string(pq.result.nocBytes) +
            " window=" +
            std::to_string(pq.tenant->window.windowSize()) +
            " live=" +
            std::to_string(pq.tenant->window.liveEdges()) +
            " plan=" + (pq.planHit ? "hit" : "miss");
        if (tracer.traceEnabled()) {
            TraceEvent ev;
            ev.phase = 'X';
            ev.cat = "serve";
            ev.name = "query " + pq.request->tenant;
            ev.track = 0;
            ev.ts = pq.request->arrivalUs;
            ev.dur = end_us - pq.request->arrivalUs;
            ev.ord = pq.request->id;
            ev.addArg("cycles", static_cast<long long>(
                                    pq.result.totalCycles));
            ev.addArg("plan", pq.planHit ? "hit" : "miss");
            tracer.record(std::move(ev));
        }
    }

    // Serial point: bump real-cache recency in batch order and
    // enforce the plan-cache bound. Evicted keys leave the prediction
    // set and the outcome memo too, so the next query on that
    // structure predicts (and pays) a miss.
    if (options_.planCacheCapacity > 0) {
        for (const PendingQuery &pq : batch)
            if (pq.completed() && pq.planKey != 0)
                runner_.touch(pq.planKey);
        for (std::uint64_t key : runner_.evictToCapacity()) {
            plannedKeys_.erase(key);
            count(&ServeSummary::planEvictions);
        }
    }

    // Completion, shared by both modes.
    count(&ServeSummary::batches);
    clock_.advanceTo(end_us);
    for (const PendingQuery &pq : batch) {
        if (!pq.completed())
            continue;
        const std::uint64_t latency_us = end_us - pq.request->arrivalUs;
        latencies_.push_back(latency_us);
        counters_.maxUs = std::max(counters_.maxUs, latency_us);
        counters_.lastCompletionUs =
            std::max(counters_.lastCompletionUs, end_us);
        count(&ServeSummary::completed);
    }
    commitWal();
    return end_us;
}

void
Server::logLine(const std::string &line)
{
    if (wal_ && logging_)
        wal_->append(WalRecord::Kind::Line, line);
    ++ackLines_;
}

void
Server::commitWal()
{
    if (wal_ && logging_)
        wal_->commit();
}

std::optional<std::string>
Server::admit(const Request &request)
{
    count(&ServeSummary::requests);
    if (!sawArrival_) {
        counters_.firstArrivalUs = request.arrivalUs;
        sawArrival_ = true;
    }
    if (request.kind == Request::Kind::Query) {
        count(&ServeSummary::queries);
        return std::nullopt;
    }
    std::string response = dispatchControl(request);
    commitWal();
    return response;
}

std::string
Server::handle(const std::string &line)
{
    if (isNopLine(line))
        return "";
    // Write-ahead: the line is in the log (and, per the sync policy,
    // on disk) before any state mutates or a response is returned —
    // malformed lines included, since they mutate the error counters.
    logLine(line);
    Request request;
    try {
        request = parseRequest(line);
    } catch (const InputError &e) {
        std::string response = fail("parse", e.what());
        commitWal();
        return response;
    }
    request.id = nextRequestId_++;
    request.arrivalUs = clock_.nowMicros();
    if (auto response = admit(request))
        return std::move(*response);
    std::vector<PendingQuery> batch(1);
    batch[0].request = &request;
    executeBatch(batch, request.arrivalUs);
    return std::move(batch[0].response);
}

void
Server::replay(const std::vector<Request> &schedule,
               std::vector<std::string> *responses)
{
    if (responses)
        responses->assign(schedule.size(), std::string());
    auto respond = [&](std::size_t idx, std::string text) {
        if (responses)
            (*responses)[idx] = std::move(text);
    };

    BoundedQueue<std::size_t> queue(options_.queueCapacity);
    std::size_t next = 0;
    std::uint64_t next_free_us = 0;

    // Requests keep their schedule ids/arrivals; the server only
    // assigns ids in handle() mode.
    auto processArrival = [&](std::size_t idx) {
        const Request &request = schedule[idx];
        clock_.advanceTo(request.arrivalUs);
        if (request.kind == Request::Kind::Nop)
            return;
        // Write-ahead before any state mutates: the schedule entry is
        // re-rendered into its protocol line, so a recovered WAL
        // replays through the same parser as a script.
        logLine(renderRequest(request));
        if (request.kind == Request::Kind::Malformed) {
            // Chaos-injected garbage exercises the typed error path
            // end to end, exactly as a hostile stdin line would.
            try {
                parseRequest(request.raw);
                DITILE_PANIC("malformed chaos line parsed cleanly");
            } catch (const InputError &e) {
                respond(idx, fail("parse", e.what()));
            }
            commitWal();
            return;
        }
        if (auto response = admit(request)) {
            respond(idx, std::move(*response));
            return;
        }
        if (!queue.tryPush(idx)) {
            count(&ServeSummary::rejected);
            respond(idx, errorResponse("queue-full",
                                       "queue at capacity (" +
                                           std::to_string(queue.capacity()) +
                                           "); retry later"));
            commitWal();
        }
    };

    while ((next < schedule.size() || !queue.empty()) && !stopped_) {
        if (shutdownRequested())
            break; // Flush what we have; summary() stays valid.
        if (queue.empty()) {
            processArrival(next++);
            continue;
        }
        // The batch starts when the server frees up or the head
        // query arrives, whichever is later. Everything arriving up
        // to that instant is admitted first.
        const std::uint64_t head_arrival =
            schedule[queue.front()].arrivalUs;
        const std::uint64_t start_us =
            std::max(next_free_us, head_arrival);
        while (next < schedule.size() && !stopped_ &&
               schedule[next].arrivalUs <= start_us)
            processArrival(next++);
        if (stopped_)
            break;

        std::vector<PendingQuery> batch;
        std::size_t idx = 0;
        while (batch.size() < options_.batchMax &&
               queue.tryPop(idx)) {
            // Degraded mode: a query that has already waited past its
            // deadline is answered busy instead of burning a batch
            // slot — load-shedding that keeps tail latency bounded
            // during overload.
            const std::uint64_t waited_us =
                start_us - schedule[idx].arrivalUs;
            if (options_.deadlineUs > 0 &&
                waited_us > options_.deadlineUs) {
                count(&ServeSummary::busyDeadline);
                respond(idx,
                        errorResponse(
                            "busy",
                            "deadline exceeded after " +
                                std::to_string(waited_us) +
                                "us; retry-after=" +
                                std::to_string(options_.deadlineUs) +
                                "us"));
                continue;
            }
            PendingQuery pq;
            pq.request = &schedule[idx];
            pq.scheduleIndex = idx;
            batch.push_back(std::move(pq));
        }
        if (batch.empty())
            continue;
        next_free_us = executeBatch(batch, start_us);
        for (PendingQuery &pq : batch)
            respond(pq.scheduleIndex, std::move(pq.response));
        // Requests that arrived while the batch was in service.
        while (next < schedule.size() && !stopped_ &&
               schedule[next].arrivalUs <= next_free_us)
            processArrival(next++);
    }
}

void
Server::attachWal(std::unique_ptr<WalWriter> wal)
{
    wal_ = std::move(wal);
    logging_ = true;
}

std::uint64_t
Server::recover(const std::vector<WalRecord> &records)
{
    logging_ = false;
    recovering_ = true;
    recoveryEvicts_.clear();
    std::uint64_t lines = 0;
    for (const WalRecord &record : records) {
        if (record.kind == WalRecord::Kind::Line) {
            handle(record.data);
            ++lines;
            continue;
        }
        // Evict record: the replayed line just before it must have
        // evicted the same tenant. A mismatch means log and code
        // disagree — recoverable (state is still self-consistent),
        // but worth shouting about.
        if (recoveryEvicts_.empty()) {
            warn("wal: evict record for '", record.data,
                 "' (seq ", record.seq,
                 ") not reproduced by replay");
        } else if (recoveryEvicts_.front() != record.data) {
            warn("wal: evict record for '", record.data, "' (seq ",
                 record.seq, ") but replay evicted '",
                 recoveryEvicts_.front(), "'");
            recoveryEvicts_.pop_front();
        } else {
            recoveryEvicts_.pop_front();
        }
    }
    if (!recoveryEvicts_.empty())
        warn("wal: replay evicted ", recoveryEvicts_.size(),
             " tenant(s) with no matching evict record");
    recoveryEvicts_.clear();
    recovering_ = false;
    logging_ = true;
    return lines;
}

ServerCheckpoint
Server::checkpointState() const
{
    ServerCheckpoint cp;
    cp.walSeq = wal_ ? wal_->lastSeq() : 0;
    cp.ackLines = ackLines_;
    cp.clockUs = clock_.nowMicros();
    cp.useSeq = useSeq_;
    cp.nextRequestId = nextRequestId_;
    cp.sawArrival = sawArrival_;
    cp.stopped = stopped_;
    cp.algo = runner_.algoIfKnown();
    cp.faultSpec = activeFaults_ == sim::FaultSpec{}
        ? std::string()
        : activeFaults_.toString();
    cp.plannedKeys.assign(plannedKeys_.begin(), plannedKeys_.end());
    for (const ServeCounter &row : kServeCounters)
        cp.counters.emplace_back(row.checkpointKey, counters_.*row.field);
    cp.latencies = latencies_;
    for (const auto &[name, tenant] : tenants_) {
        TenantCheckpoint tc;
        tc.spec = tenant->spec;
        tc.lastUse = tenant->lastUse;
        tc.breakerState = tenant->breaker.stateCode();
        tc.breakerFailures = tenant->breaker.consecutiveFailures();
        tc.breakerBackoffUs = tenant->breaker.backoffUs();
        tc.breakerOpenUntilUs = tenant->breaker.openUntilUs();
        tc.breakerOpens = tenant->breaker.opens();
        tc.window.appliedEvents = tenant->window.appliedEvents();
        tc.window.noopEvents = tenant->window.noopEvents();
        tc.window.rolls = tenant->window.rolls();
        tc.window.sinceRoll = tenant->window.eventsSinceRoll();
        // The window's own deltas: only the oldest snapshot is listed.
        const graph::DynamicGraph &ring = tenant->window.graph();
        tc.oldest = ring.snapshot(0).edgeList();
        for (SnapshotId t = 1; t < ring.numSnapshots(); ++t)
            tc.deltas.push_back(ring.delta(t));
        tc.pending = tenant->window.pendingDelta();
        cp.tenants.push_back(std::move(tc));
    }
    return cp;
}

void
Server::restoreState(const ServerCheckpoint &cp)
{
    DITILE_ASSERT(tenants_.empty() && ackLines_ == 0,
                  "restoreState needs a fresh server");
    clock_.advanceTo(cp.clockUs);
    useSeq_ = cp.useSeq;
    nextRequestId_ = cp.nextRequestId;
    sawArrival_ = cp.sawArrival;
    stopped_ = cp.stopped;
    ackLines_ = cp.ackLines;
    runner_.latchAlgo(cp.algo);
    activeFaults_ = cp.faultSpec.empty()
        ? sim::FaultSpec{}
        : sim::FaultSpec::parse(cp.faultSpec);
    plannedKeys_.clear();
    plannedKeys_.insert(cp.plannedKeys.begin(),
                        cp.plannedKeys.end());

    for (const auto &[name, value] : cp.counters) {
        const auto row = std::find_if(
            std::begin(kServeCounters), std::end(kServeCounters),
            [&name](const ServeCounter &c) {
                return name == c.checkpointKey;
            });
        if (row == std::end(kServeCounters)) {
            warnOnce("checkpoint: unknown counter", " '", name,
                     "' ignored (newer writer?)");
            continue;
        }
        counters_.*row->field = value;
    }
    latencies_ = cp.latencies;

    for (const TenantCheckpoint &tc : cp.tenants) {
        auto window = graph::SnapshotWindow::restore(
            tc.spec.name, tc.spec.window, tc.spec.features,
            graph::Csr::fromEdges(tc.spec.vertices, tc.oldest),
            tc.deltas, tc.pending, tc.window);
        auto tenant = std::make_unique<Tenant>(
            tc.spec, std::move(window), options_.breaker);
        tenant->lastUse = tc.lastUse;
        tenant->breaker.restore(tc.breakerState, tc.breakerFailures,
                                tc.breakerBackoffUs,
                                tc.breakerOpenUntilUs,
                                tc.breakerOpens);
        tenants_.emplace(tc.spec.name, std::move(tenant));
    }
}

ServeSummary
Server::summary() const
{
    ServeSummary s = counters_;
    s.tenants = tenants_.size();
    std::vector<std::uint64_t> sorted = latencies_;
    std::sort(sorted.begin(), sorted.end());
    s.p50Us = percentileNearestRank(sorted, 50);
    s.p99Us = percentileNearestRank(sorted, 99);
    if (!sorted.empty()) {
        std::uint64_t total = 0;
        for (std::uint64_t v : sorted)
            total += v;
        s.meanUs = total / sorted.size();
    }
    if (s.completed > 0 &&
        s.lastCompletionUs > s.firstArrivalUs) {
        s.qps = static_cast<double>(s.completed) * 1e6 /
            static_cast<double>(s.lastCompletionUs -
                                s.firstArrivalUs);
    }
    return s;
}

std::string
ServeSummary::toTable() const
{
    Table table("serve summary");
    table.setHeader({"Metric", "Value"});
    auto row = [&](const char *name, std::uint64_t value) {
        table.addRow({name,
                      Table::integer(static_cast<long long>(value))});
    };
    for (const ServeCounter &counter : kServeCounters)
        if (counter.label)
            row(counter.label, this->*counter.field);
    row("live tenants", tenants);
    row("p50 latency (us)", p50Us);
    row("p99 latency (us)", p99Us);
    row("max latency (us)", maxUs);
    row("mean latency (us)", meanUs);
    row("busy interval (us)",
        lastCompletionUs > firstArrivalUs
            ? lastCompletionUs - firstArrivalUs
            : 0);
    table.addRow({"sustained QPS", Table::num(qps, 2)});
    return table.toString();
}

} // namespace ditile::serve
