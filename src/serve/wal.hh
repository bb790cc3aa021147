/**
 * @file
 * Write-ahead event log for the streaming inference service.
 *
 * The server keeps all tenant state in memory; without a durability
 * layer a crash, OOM-kill, or deploy restart silently loses every
 * acknowledged edge event. The WAL closes that hole with the classic
 * database recipe: every state-mutating protocol line is appended to
 * an append-only log *before* its response is acknowledged, so
 * restart = load the newest checkpoint + replay the WAL suffix.
 *
 * ### Record format
 *
 * One canonical-JSON record per line:
 *
 *   {"seq":12,"kind":"line","data":"event t0 add 3 7","crc":"9f3c..."}
 *
 *  - `seq`  strictly increasing from 1 with no gaps; a seq mismatch
 *    marks the tail invalid.
 *  - `kind` is "line" (a verbatim protocol line) or "evict" (a tenant
 *    LRU eviction that happened while executing the preceding line —
 *    replay verifies the recovered server made the same decision).
 *  - `crc`  FNV-1a over "<seq>|<kind>|<data>", hex. A flipped byte
 *    anywhere in the record invalidates it.
 *
 * ### Crash consistency
 *
 * recoverWal() validates records front to back and *truncates* the
 * file at the first invalid byte — a torn write, a half-flushed
 * record, or garbage from a disk error costs only the unsynced tail,
 * never an abort. The recovered prefix is exactly the acknowledged
 * history under `--wal-sync=always`; under `batch`/`off` the last
 * unsynced group may be lost, which is the documented trade.
 *
 * ### Sync policy (group commit)
 *
 *  - Always: fsync on every commit() — each request is durable before
 *    its response is written. Slowest, zero loss.
 *  - Batch:  fsync every `batchRecords` appended records. Bounded
 *    loss, amortized fsync cost.
 *  - Off:    OS-buffered only; flushed on graceful close. Fastest,
 *    loses everything since the last close on SIGKILL.
 */

#ifndef DITILE_SERVE_WAL_HH
#define DITILE_SERVE_WAL_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace ditile::serve {

/** Durability policy for WalWriter::commit(). */
enum class WalSync { Always, Batch, Off };

/** Parse "always" / "batch" / "off"; throws InputError otherwise. */
WalSync walSyncFromToken(const std::string &token);

/**
 * One validated log record.
 */
struct WalRecord
{
    enum class Kind { Line, Evict };

    std::uint64_t seq = 0;
    Kind kind = Kind::Line;
    std::string data;
};

/**
 * Result of scanning (and, when needed, repairing) a WAL file.
 */
struct WalRecovery
{
    /** Valid records, in seq order. */
    std::vector<WalRecord> records;

    /** Bytes of valid prefix (== file size when the tail was clean). */
    std::uint64_t validBytes = 0;

    /** Bytes discarded from a corrupted/torn tail. */
    std::uint64_t droppedBytes = 0;

    /** True when an invalid tail was found and truncated away. */
    bool truncatedTail = false;

    /** Seq the next appended record should carry. */
    std::uint64_t nextSeq() const
    {
        return records.empty() ? 1 : records.back().seq + 1;
    }
};

/**
 * Scan `path`, validate every record, and truncate the file at the
 * last valid record if the tail is corrupt (with a typed "wal:"
 * warning — never an abort). A missing file recovers to an empty log.
 * Unreadable/untruncatable files throw InputError.
 */
WalRecovery recoverWal(const std::string &path);

/**
 * Append-only record writer with group commit. Not thread-safe: the
 * serve control loop appends from one thread.
 */
class WalWriter
{
  public:
    /** Start a fresh log (truncates any existing file). */
    static std::unique_ptr<WalWriter>
    openFresh(const std::string &path, WalSync sync,
              std::size_t batch_records = 32);

    /**
     * Continue a recovered log: append after its valid prefix with
     * `next_seq` (from WalRecovery::nextSeq()).
     */
    static std::unique_ptr<WalWriter>
    openContinue(const std::string &path, WalSync sync,
                 std::uint64_t next_seq,
                 std::size_t batch_records = 32);

    ~WalWriter();

    WalWriter(const WalWriter &) = delete;
    WalWriter &operator=(const WalWriter &) = delete;

    /** Buffer one record (assigns the next seq). */
    void append(WalRecord::Kind kind, const std::string &data);

    /**
     * Commit boundary after one request's record group: applies the
     * sync policy (Always: flush+fsync now; Batch: every N records;
     * Off: leave OS-buffered).
     */
    void commit();

    /** Flush stdio buffers; optionally fsync to stable storage. */
    void flush(bool sync);

    /** Flush + fsync + close. Called by the destructor if needed. */
    void close();

    /** Seq of the last appended record (0 when none yet). */
    std::uint64_t lastSeq() const { return nextSeq_ - 1; }

    /** Records appended through this writer. */
    std::uint64_t appended() const { return appended_; }

    /** fsync() calls issued (group-commit efficiency metric). */
    std::uint64_t syncs() const { return syncs_; }

    const std::string &path() const { return path_; }

  private:
    WalWriter(std::string path, std::FILE *fp, WalSync sync,
              std::uint64_t next_seq, std::size_t batch_records);

    std::string path_;
    std::FILE *fp_ = nullptr;
    WalSync sync_ = WalSync::Batch;
    std::uint64_t nextSeq_ = 1;
    std::size_t batchRecords_ = 32;
    std::size_t uncommitted_ = 0; ///< Records since the last fsync.
    std::uint64_t appended_ = 0;
    std::uint64_t syncs_ = 0;
    std::string line_; ///< Record buffer, reused by every append().
};

/** Render one record in the canonical on-disk form (no newline). */
std::string formatWalRecord(const WalRecord &record);

} // namespace ditile::serve

#endif // DITILE_SERVE_WAL_HH
