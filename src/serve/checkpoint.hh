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
 * breaker fields, window counters, live edge set, and the full
 * snapshot ring as edge lists. Derived state (CSR arrays, window
 * DynamicGraphs, plan sets) is rebuilt on restore.
 *
 * ### File format
 *
 * A single JSON document:
 *
 *   {"format":1,"crc":"<hex>","state":{...}}
 *
 * `crc` is FNV-1a over the canonical compact rendering of `state`;
 * verification re-renders the *parsed* struct and compares, which
 * checks integrity and round-trip fidelity in one step. Writes go to
 * `<path>.tmp` then rename(2), so the file at `path` is always a
 * complete checkpoint or absent — a crash mid-write costs nothing.
 */

#ifndef DITILE_SERVE_CHECKPOINT_HH
#define DITILE_SERVE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hh"
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
    std::vector<graph::Edge> live; ///< Canonical order (sorted).
    /** Snapshot ring as edge lists, oldest -> newest. */
    std::vector<std::vector<graph::Edge>> ring;
};

/**
 * Serialized state of the whole server (see file comment).
 */
struct ServerCheckpoint
{
    static constexpr int kFormat = 1;

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

/** Hex FNV-1a over the compact JSON of the state object. */
std::string checkpointStateHash(const ServerCheckpoint &checkpoint);

/** Full file content: format + crc + state, one line. */
std::string renderCheckpoint(const ServerCheckpoint &checkpoint);

/**
 * Parse and verify a checkpoint document. Throws InputError (typed,
 * recoverable) on malformed JSON, an unknown format, a crc mismatch,
 * a tenant spec no `tenant` line could provision, or an edge outside
 * its tenant's vertex range — callers warn and fall back to WAL-only
 * recovery.
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
