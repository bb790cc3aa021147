/**
 * @file
 * The streaming inference server.
 *
 * A Server owns a set of tenant snapshot windows, a bounded query
 * queue with admission control, and a re-entrant inference runner
 * whose PlanCache and outcome memo are the serving cache tier: a
 * repeat query on a quiet tenant is one memo lookup, and only a window
 * roll (new snapshot materialized) or a `fault` verb forces a replan
 * or re-execution — which the delta-incremental digest cache then
 * keeps cheap.
 *
 * Two entry modes share all tenant/admission logic:
 *
 *  - handle(line): synchronous, one request at a time — the stdin /
 *    script-file protocol loop.
 *  - replay(schedule): deterministic batched replay of a timestamped
 *    request schedule (the LoadGen path). The loop is a discrete-event
 *    simulation of a single batching server: requests arrive at their
 *    scheduled virtual microsecond, queries queue (or are rejected
 *    when the bounded queue is full), batches of up to batchMax
 *    execute in parallel on the thread pool, and each batch's virtual
 *    service time is derived from the *modeled* cycle counts of its
 *    members. Every admission decision, latency, and summary number is
 *    therefore a pure function of the schedule — byte-identical at
 *    any --threads width under the virtual clock.
 *
 * ### Shared-cache determinism
 *
 * Concurrent misses on one plan-cache key would race on who pays the
 * miss (the winner publishes, losers re-use), which is harmless for
 * results but perturbs hit/miss counters across thread widths. The
 * batch executor forecloses the race: batch members are grouped by
 * graph-structure hash at a serial point, one representative per
 * group plans, executes and publishes first, and the rest answer
 * afterwards as guaranteed outcome-memo hits. Summary hit/miss counts come from the serial
 * prediction, so they are deterministic by construction.
 */

#ifndef DITILE_SERVE_SERVER_HH
#define DITILE_SERVE_SERVER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/clock.hh"
#include "graph/window.hh"
#include "model/dgnn_config.hh"
#include "serve/breaker.hh"
#include "serve/checkpoint.hh"
#include "serve/protocol.hh"
#include "serve/wal.hh"
#include "sim/fault_model.hh"
#include "sim/serving.hh"

namespace ditile::serve {

/**
 * Serving policy knobs.
 */
struct ServerOptions
{
    /** Bounded query-queue capacity; admission rejects beyond it. */
    std::size_t queueCapacity = 64;

    /** Max queries executed per batch. */
    std::size_t batchMax = 8;

    /** Max live tenants; creating one more evicts the LRU tenant. */
    std::size_t maxTenants = 32;

    /**
     * Virtual service-time conversion: modeled cycles per virtual
     * microsecond (1000 = a 1 GHz accelerator).
     */
    std::uint64_t serviceCyclesPerUs = 1000;

    /** Fixed per-batch dispatch overhead (virtual us). */
    std::uint64_t batchOverheadUs = 2;

    /**
     * Max virtual-us a queued query may wait before it is answered
     * with `err busy` instead of executing (0 = no deadline). Replay
     * mode only: handle() queries never queue.
     */
    std::uint64_t deadlineUs = 0;

    /** Per-tenant circuit-breaker policy (degraded-mode serving). */
    BreakerOptions breaker;

    /**
     * Plan-cache entry bound; 0 = unbounded (see PlanCache). The
     * outcome memo follows the same LRU.
     */
    std::size_t planCacheCapacity = 0;

    /** Model served to every tenant. */
    model::DgnnConfig model;
};

/**
 * Nearest-rank percentile of an ascending-sorted sample vector: the
 * smallest sample with at least pct% of the distribution at or below
 * it (so p99 of a single sample is that sample, and p99 of 2 samples
 * is the max, not the min). Returns 0 on empty input.
 */
std::uint64_t percentileNearestRank(
    const std::vector<std::uint64_t> &sorted, unsigned pct);

/**
 * End-of-run summary. All counter fields are deterministic under the
 * virtual clock; renderings keep doubles to fixed two-decimal prints
 * derived from integer quantities.
 */
struct ServeSummary
{
    std::uint64_t requests = 0;
    std::uint64_t queries = 0;
    std::uint64_t events = 0;
    std::uint64_t noopEvents = 0;
    std::uint64_t rolls = 0;
    std::uint64_t rejected = 0;   ///< Queue-full admissions.
    std::uint64_t errors = 0;     ///< Parse / unknown-tenant / ...
    std::uint64_t evictions = 0;  ///< Tenant LRU evictions.
    std::uint64_t batches = 0;
    std::uint64_t completed = 0;  ///< Queries answered.
    std::uint64_t planHits = 0;   ///< Serial plan-cache predictions.
    std::uint64_t planMisses = 0;
    std::uint64_t planEvictions = 0; ///< Bounded-plan-cache victims.
    std::uint64_t tenants = 0;    ///< Live at end of run.

    std::uint64_t busyDeadline = 0;    ///< Deadline-expired queries.
    std::uint64_t breakerRejected = 0; ///< Quarantine rejections.
    std::uint64_t breakerOpens = 0;    ///< Breaker open/reopen events.
    std::uint64_t execFailures = 0;    ///< Queries whose plan/execute
                                       ///< threw (typed) errors.
    std::uint64_t faultSplices = 0;    ///< `fault` verbs accepted.

    std::uint64_t p50Us = 0;
    std::uint64_t p99Us = 0;
    std::uint64_t maxUs = 0;
    std::uint64_t meanUs = 0;     ///< Integer mean (floor).
    std::uint64_t firstArrivalUs = 0;
    std::uint64_t lastCompletionUs = 0;

    /** Completed queries per second over the busy interval. */
    double qps = 0.0;

    /** Deterministic table rendering ("serve summary"). */
    std::string toTable() const;
};

/**
 * One row of the serve counter table, the single list of the counters
 * the server bumps, publishes, checkpoints and prints.
 */
struct ServeCounter
{
    std::uint64_t ServeSummary::*field;
    const char *checkpointKey;
    const char *metricPath; ///< `serve.*` path; nullptr: not counted.
    const char *label;      ///< Summary row; nullptr: no counter row.
};

/** The counter table, in checkpoint and summary-row order. */
std::span<const ServeCounter> serveCounters();

/**
 * The serving engine. Not thread-safe at the interface: one control
 * thread calls handle()/replay(); parallelism lives inside batch
 * execution.
 */
class Server
{
  public:
    Server(ServerOptions options, sim::AcceleratorFactory factory);
    ~Server();

    /**
     * Parse and execute one request line synchronously (stdin/script
     * mode; queries run as a batch of one). Returns the response
     * line, or an empty string for Nop lines. Protocol errors come
     * back as "err <code>: ..." responses; nothing throws or aborts.
     */
    std::string handle(const std::string &line);

    /**
     * Deterministic batched replay of a timestamped schedule (see
     * class comment). Responses, when requested, are returned in
     * schedule order. Checks shutdownRequested() between batches and
     * stops early — already-completed work stays in the summary.
     */
    void replay(const std::vector<Request> &schedule,
                std::vector<std::string> *responses = nullptr);

    /** True after a `quit` request. */
    bool stopped() const { return stopped_; }

    ServeSummary summary() const;

    std::size_t numTenants() const { return tenants_.size(); }
    sim::ConcurrentRunner &runner() { return runner_; }

    // --- durability ---------------------------------------------------

    /**
     * Attach a write-ahead log: from here on every non-Nop request is
     * appended (and group-committed) before its response is returned.
     * Attach after restoreState()/recover() so replayed history is
     * not re-logged.
     */
    void attachWal(std::unique_ptr<WalWriter> wal);

    /** The attached WAL writer (nullptr when none). */
    WalWriter *wal() { return wal_.get(); }

    /**
     * Re-execute recovered WAL records against current state (call on
     * a fresh server, or after restoreState() with the suffix whose
     * seq > checkpoint walSeq). Line records run through the normal
     * handle() path with logging disabled; evict records are checked
     * against the evictions the replay actually performed (a mismatch
     * warns — it means the log and the code disagree). Returns the
     * number of line records replayed.
     */
    std::uint64_t recover(const std::vector<WalRecord> &records);

    /**
     * Non-Nop protocol lines acknowledged over this server's life
     * (surviving checkpoint/restore). A tool resuming a --script
     * after a crash skips exactly this many non-Nop lines.
     */
    std::uint64_t acknowledgedLines() const { return ackLines_; }

    /**
     * Snapshot every piece of state observable behavior depends on
     * (see checkpoint.hh). Serial points only.
     */
    ServerCheckpoint checkpointState() const;

    /**
     * Rebuild from a checkpoint. Call on a freshly constructed server
     * (same options) before any requests; throws InputError on an
     * internally inconsistent checkpoint.
     */
    void restoreState(const ServerCheckpoint &checkpoint);

  private:
    struct Tenant;
    struct PendingQuery;
    struct Counter; ///< A counted table row, resolved at compile time.

    /** Bump a counter and publish its `serve.*` registry path. */
    void count(Counter counter);

    /** Count an error and render its `err <code>:` response. */
    std::string fail(const std::string &code, const std::string &text);

    /**
     * Ingest step of both modes, after write-ahead: count the request
     * and answer a non-query (WAL committed); nullopt for a query.
     */
    std::optional<std::string> admit(const Request &request);

    std::string dispatchControl(const Request &request);
    std::string createTenant(const Request &request);
    std::string applyEvent(const Request &request);
    std::string rollTenant(const Request &request);
    std::string spliceFaults(const Request &request);
    std::string statsResponse() const;

    /** The request's tenant, touched; nullptr and `error` if none. */
    Tenant *lookupTenant(const Request &request, std::string &error);
    void touch(Tenant &tenant);
    void maybeAutoRoll(Tenant &tenant);
    void evictForCapacity();
    void logLine(const std::string &line);
    void commitWal();

    /**
     * Execute admitted queries in parallel from virtual `start_us`,
     * fill their responses, then complete the batch: advance the
     * clock, record latencies, commit the WAL. Returns the end time.
     */
    std::uint64_t executeBatch(std::vector<PendingQuery> &batch,
                               std::uint64_t start_us);

    ServerOptions options_;
    sim::ConcurrentRunner runner_;
    std::map<std::string, std::unique_ptr<Tenant>> tenants_;
    std::uint64_t useSeq_ = 0;
    std::uint64_t nextRequestId_ = 0;
    bool stopped_ = false;

    VirtualClock clock_;
    ServeSummary counters_;
    std::vector<std::uint64_t> latencies_;
    bool sawArrival_ = false;

    /**
     * Serial prediction of plan-cache residency, keyed like the real
     * cache. The `plan=hit|miss` response field reads this set, not
     * the cache itself, so the field survives a restore with a cold
     * cache (the replan happens silently; modeled costs are identical
     * either way). Ordered so checkpoints serialize canonically.
     */
    std::set<std::uint64_t> plannedKeys_;

    sim::FaultSpec activeFaults_; ///< Merged live `fault` verbs.

    std::unique_ptr<WalWriter> wal_;
    bool logging_ = true;    ///< False while recover() replays.
    bool recovering_ = false;
    std::uint64_t ackLines_ = 0;
    /** Evictions performed during recover(), matched against the
     *  log's evict records. */
    std::deque<std::string> recoveryEvicts_;
};

} // namespace ditile::serve

#endif // DITILE_SERVE_SERVER_HH
