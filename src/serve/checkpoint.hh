/**
 * @file
 * Checkpoint/restore for the streaming inference service.
 *
 * WAL replay alone makes restarts O(history): a server that has
 * absorbed a million events would re-execute a million lines.
 * Checkpoints bound that: a snapshot of all serving state is written
 * periodically (and on graceful shutdown), and restart becomes
 * "load newest checkpoint, replay only the WAL suffix with seq >
 * checkpoint.walSeq". Because every serving decision is a pure
 * function of the request schedule under the virtual clock, a
 * restored server answers `stats` and `query` byte-identically to one
 * that never crashed — at any --threads width. That identity is the
 * acceptance test for this whole module (chaos_test.cc).
 *
 * ### What is captured
 *
 * Everything observable state depends on: the virtual clock, request
 * ids, every summary counter and latency sample, the server-wide live
 * fault spec, the latched plan algorithm plus the predicted plan-key
 * set (so plan=hit/miss fields survive a restart with a cold real
 * cache), and per tenant: the provisioning spec, LRU stamp, circuit
 * breaker fields, window counters, and the window itself, delta-encoded
 * (below). Derived state (CSR arrays, window DynamicGraphs, plan sets)
 * is rebuilt on restore.
 *
 * ### File format
 *
 * A single JSON document on one line:
 *
 *   {"format":2,"crc":"<hex>","state":{...}}
 *
 * `crc` is FNV-1a over the canonical compact rendering of `state`;
 * verification re-renders the *parsed* struct and compares, which
 * checks integrity and round-trip fidelity in one step. Writes go to
 * `<path>.tmp` then rename(2), so the file at `path` is always a
 * complete checkpoint or absent — a crash mid-write costs nothing.
 *
 * Format 2 stores each tenant's window the way the window holds it,
 * so a checkpoint costs O(delta) per later snapshot, not O(snapshot):
 *
 *   "oldest":[u,v,u,v,...]               the oldest snapshot, in full
 *   "deltas":[[[added],[removed]],...]   one per later snapshot
 *   "pending":[[added],[removed]]        changes since the newest snapshot
 *
 * Edge lists are flat [u,v,...] arrays, written in canonical order
 * (u < v, ascending). A window of W snapshots carries W - 1 deltas,
 * and W is min(rolls + 1, window): restore checks the count, checks
 * every delta against the snapshot before it (canonical, removed edges
 * present, added edges absent), and patches the snapshots forward from
 * the oldest (SnapshotWindow::restore).
 *
 * Format 1 (written before delta encoding) stored every window
 * snapshot and the live set in full, as "ring":[[u,v,...],...] and
 * "live":[u,v,...]. It is still read: its crc is checked against its
 * own rendering, and its lists are converted to the format-2 form.
 * Only format 2 is written. WAL records are unaffected by either.
 */

#ifndef DITILE_SERVE_CHECKPOINT_HH
#define DITILE_SERVE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hh"
#include "graph/delta.hh"
#include "graph/window.hh"
#include "serve/protocol.hh"

namespace ditile::serve {

/**
 * Serialized state of one tenant.
 */
struct TenantCheckpoint
{
    TenantSpec spec;
    std::uint64_t lastUse = 0;

    int breakerState = 0; ///< CircuitBreaker::stateCode().
    int breakerFailures = 0;
    std::uint64_t breakerBackoffUs = 0;
    std::uint64_t breakerOpenUntilUs = 0;
    std::uint64_t breakerOpens = 0;

    graph::SnapshotWindow::Counters window;
    /** Oldest window snapshot as an edge list, canonical order. */
    std::vector<graph::Edge> oldest;
    /** Delta to each later window snapshot, oldest -> newest. */
    std::vector<graph::GraphDelta> deltas;
    /** Live edge set as a delta against the newest snapshot. */
    graph::GraphDelta pending;
};

/**
 * Serialized state of the whole server (see file comment).
 */
struct ServerCheckpoint
{
    static constexpr int kFormat = 2; ///< Written; 1 is still read.

    std::uint64_t walSeq = 0;   ///< Last WAL seq included.
    std::uint64_t ackLines = 0; ///< Non-Nop lines acknowledged.
    std::uint64_t clockUs = 0;
    std::uint64_t useSeq = 0;
    std::uint64_t nextRequestId = 0;
    bool sawArrival = false;
    bool stopped = false;

    int algo = -1;         ///< Latched AlgoKind; -1 = unlatched.
    std::string faultSpec; ///< Live merged spec ("" = none).
    std::vector<std::uint64_t> plannedKeys; ///< Sorted.

    /** Summary counters in a fixed, server-defined order. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::uint64_t> latencies;

    std::vector<TenantCheckpoint> tenants; ///< Name order.
};

/** Hex FNV-1a over the format-2 compact JSON of the state object. */
std::string checkpointStateHash(const ServerCheckpoint &checkpoint);

/** Full file content: format + crc + state, one line. */
std::string renderCheckpoint(const ServerCheckpoint &checkpoint);

/**
 * Parse and verify a checkpoint document (format 1 or 2). Throws
 * InputError (typed, recoverable) on malformed JSON, an unknown
 * format, a crc mismatch, a tenant spec no `tenant` line could
 * provision, or an edge outside its tenant's vertex range — callers
 * warn and fall back to WAL-only recovery. Deltas that do not apply
 * are InputErrors of Server::restoreState.
 */
ServerCheckpoint parseCheckpoint(const std::string &text);

/**
 * Atomically (tmp + fsync + rename) write `checkpoint` to `path`.
 * Throws InputError when the file cannot be written.
 */
void writeCheckpointFile(const std::string &path,
                         const ServerCheckpoint &checkpoint);

/**
 * Load and verify the checkpoint at `path`. Throws InputError when
 * the file is missing, unreadable, or fails parseCheckpoint().
 */
ServerCheckpoint loadCheckpointFile(const std::string &path);

} // namespace ditile::serve

#endif // DITILE_SERVE_CHECKPOINT_HH
