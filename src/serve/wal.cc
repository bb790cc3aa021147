/**
 * @file
 * Write-ahead log implementation.
 */

#include "serve/wal.hh"

#include <cerrno>
#include <cstring>

#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ditile::serve {

namespace {

std::string
recordChecksum(std::uint64_t seq, const char *kind,
               const std::string &data)
{
    return hex64(fnv1a(std::to_string(seq) + "|" + kind + "|" + data));
}

const char *
kindToken(WalRecord::Kind kind)
{
    return kind == WalRecord::Kind::Line ? "line" : "evict";
}

/**
 * Validate one on-disk line against the expected seq. Returns false
 * (with no side effects) on any defect — bad JSON, missing fields,
 * checksum or sequence mismatch — so the caller can truncate there.
 */
bool
parseWalLine(const std::string &text, std::uint64_t expected_seq,
             WalRecord &out)
{
    JsonValue doc;
    try {
        doc = JsonValue::parse(text);
    } catch (const std::exception &) {
        return false;
    }
    if (doc.kind() != JsonValue::Kind::Object)
        return false;
    const JsonValue *seq = doc.find("seq");
    const JsonValue *kind = doc.find("kind");
    const JsonValue *data = doc.find("data");
    const JsonValue *crc = doc.find("crc");
    if (!seq || !kind || !data || !crc)
        return false;
    try {
        out.seq = seq->asUint();
        const std::string &k = kind->asString();
        if (k == "line")
            out.kind = WalRecord::Kind::Line;
        else if (k == "evict")
            out.kind = WalRecord::Kind::Evict;
        else
            return false;
        out.data = data->asString();
        if (out.seq != expected_seq)
            return false;
        return crc->asString() ==
            recordChecksum(out.seq, k.c_str(), out.data);
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace

WalSync
walSyncFromToken(const std::string &token)
{
    if (token == "always")
        return WalSync::Always;
    if (token == "batch")
        return WalSync::Batch;
    if (token == "off")
        return WalSync::Off;
    DITILE_THROW("unknown wal sync policy '", token,
                 "' (expected always, batch, or off)");
}

const char *
walSyncToken(WalSync sync)
{
    switch (sync) {
    case WalSync::Always:
        return "always";
    case WalSync::Batch:
        return "batch";
    default:
        return "off";
    }
}

std::string
formatWalRecord(const WalRecord &record)
{
    const char *kind = kindToken(record.kind);
    JsonObject obj;
    obj.add("seq", static_cast<long long>(record.seq));
    obj.add("kind", kind);
    obj.add("data", record.data);
    obj.add("crc", recordChecksum(record.seq, kind, record.data));
    return obj.toCompactString();
}

WalRecovery
recoverWal(const std::string &path)
{
    WalRecovery result;
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    if (!fp)
        return result; // Missing file == empty log.

    std::string contents;
    char buf[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), fp)) > 0)
        contents.append(buf, got);
    const bool read_error = std::ferror(fp) != 0;
    std::fclose(fp);
    if (read_error)
        DITILE_THROW("wal: cannot read '", path, "'");

    std::size_t pos = 0;
    while (pos < contents.size()) {
        const std::size_t nl = contents.find('\n', pos);
        if (nl == std::string::npos)
            break; // Torn final record (no newline): invalid tail.
        WalRecord record;
        if (!parseWalLine(contents.substr(pos, nl - pos),
                          result.nextSeq(), record))
            break;
        result.records.push_back(std::move(record));
        pos = nl + 1;
    }
    result.validBytes = pos;
    result.droppedBytes = contents.size() - pos;
    result.truncatedTail = result.droppedBytes > 0;

    if (result.truncatedTail) {
        warn("wal: '", path, "' has a corrupted/torn tail; keeping ",
             result.records.size(), " valid record(s) (",
             result.validBytes, " bytes), dropping ",
             result.droppedBytes, " trailing byte(s)");
        // Truncate in place so the continuation writer appends after
        // the last valid record.
        std::FILE *out = std::fopen(path.c_str(), "rb+");
        if (!out)
            DITILE_THROW("wal: cannot open '", path,
                         "' for tail truncation");
        bool ok = true;
#if defined(__unix__) || defined(__APPLE__)
        ok = ::ftruncate(fileno(out),
                         static_cast<off_t>(result.validBytes)) == 0;
#else
        // Portable fallback: rewrite the valid prefix.
        std::fclose(out);
        out = std::fopen(path.c_str(), "wb");
        ok = out &&
            std::fwrite(contents.data(), 1, result.validBytes, out) ==
                result.validBytes;
#endif
        if (out)
            std::fclose(out);
        if (!ok)
            DITILE_THROW("wal: failed to truncate '", path, "' to ",
                         result.validBytes, " bytes");
    }
    return result;
}

WalWriter::WalWriter(std::string path, std::FILE *fp, WalSync sync,
                     std::uint64_t next_seq, std::size_t batch_records)
    : path_(std::move(path)), fp_(fp), sync_(sync),
      nextSeq_(next_seq),
      batchRecords_(batch_records < 1 ? 1 : batch_records)
{
}

std::unique_ptr<WalWriter>
WalWriter::openFresh(const std::string &path, WalSync sync,
                     std::size_t batch_records)
{
    std::FILE *fp = std::fopen(path.c_str(), "wb");
    if (!fp)
        DITILE_THROW("wal: cannot create '", path,
                     "': ", std::strerror(errno));
    return std::unique_ptr<WalWriter>(
        new WalWriter(path, fp, sync, 1, batch_records));
}

std::unique_ptr<WalWriter>
WalWriter::openContinue(const std::string &path, WalSync sync,
                        std::uint64_t next_seq,
                        std::size_t batch_records)
{
    std::FILE *fp = std::fopen(path.c_str(), "ab");
    if (!fp)
        DITILE_THROW("wal: cannot append to '", path,
                     "': ", std::strerror(errno));
    return std::unique_ptr<WalWriter>(
        new WalWriter(path, fp, sync, next_seq, batch_records));
}

WalWriter::~WalWriter()
{
    close();
}

void
WalWriter::append(WalRecord::Kind kind, const std::string &data)
{
    DITILE_ASSERT(fp_, "append on a closed WAL");
    WalRecord record;
    record.seq = nextSeq_++;
    record.kind = kind;
    record.data = data;
    const std::string text = formatWalRecord(record) + "\n";
    if (std::fwrite(text.data(), 1, text.size(), fp_) != text.size())
        DITILE_THROW("wal: short write to '", path_, "'");
    ++appended_;
    ++uncommitted_;
}

void
WalWriter::commit()
{
    if (!fp_ || uncommitted_ == 0)
        return;
    switch (sync_) {
    case WalSync::Always:
        flush(true);
        break;
    case WalSync::Batch:
        if (uncommitted_ >= batchRecords_)
            flush(true);
        break;
    case WalSync::Off:
        break;
    }
}

void
WalWriter::flush(bool sync)
{
    if (!fp_)
        return;
    if (std::fflush(fp_) != 0)
        DITILE_THROW("wal: flush failed on '", path_, "'");
#if defined(__unix__) || defined(__APPLE__)
    if (sync) {
        ::fsync(fileno(fp_));
        ++syncs_;
    }
#else
    (void)sync;
#endif
    uncommitted_ = 0;
}

void
WalWriter::close()
{
    if (!fp_)
        return;
    flush(true);
    std::fclose(fp_);
    fp_ = nullptr;
}

} // namespace ditile::serve
