/**
 * @file
 * The content-addressed suite store (the persistence layer behind ltsd
 * and `ltsgen synth --store`).
 *
 * A SuiteStore is a single log-structured segment file plus an in-memory
 * index rebuilt by scanning it on open. Values are canonical suite/shard
 * bytes keyed by digest-derived strings (see synth/service.hh for the
 * key scheme: (modelDigest, bound, optionsDigest) manifests pointing at
 * content-addressed shard records). The format is deliberately dumb:
 *
 *   record := magic  u32 LE   ("LTS1", 0x3153544c)
 *             type   u8       (1 = put, the only type)
 *             keyLen u32 LE
 *             valLen u32 LE
 *             key    bytes
 *             value  bytes
 *             crc    u32 LE   (CRC-32 of type..value)
 *
 * Appends are single write(2) calls; a crash can only tear the tail.
 * On open, the scan stops at the first record that is incomplete, fails
 * its CRC or carries any type but put, and truncates the file there —
 * everything after a torn record is unreachable by construction in an
 * append-only log, so dropping it loses at most the writes that never
 * returned. Updates append a fresh record (the index keeps the newest
 * offset); there is no delete, so a key once put stays live. compact()
 * rewrites only live records into a temp segment and renames it into
 * place, which is atomic within a directory.
 *
 * The store keeps no copy of any value: get() is an index lookup plus
 * one pread(2) of the value bytes. Callers that want answers in memory
 * cache them above the store (synth::Service keeps its resident
 * results). The class is not thread-safe; ltsd serializes requests
 * onto one thread.
 */

#ifndef LTS_STORE_STORE_HH
#define LTS_STORE_STORE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace lts::store
{

/** Counters reported by `lts-store stats` and the daemon's status line. */
struct StoreStats
{
    uint64_t liveKeys = 0;   ///< keys with a current value
    uint64_t records = 0;    ///< records in the segment (incl. superseded)
    uint64_t fileBytes = 0;  ///< segment file size
    uint64_t liveBytes = 0;  ///< bytes of live records
    uint64_t deadBytes = 0;  ///< bytes reclaimable by compact()
    uint64_t tornBytesDropped = 0; ///< tail bytes truncated on open
};

/** Result of a full-segment integrity scan (`lts-store fsck`). */
struct FsckReport
{
    uint64_t records = 0;   ///< intact records scanned
    uint64_t liveKeys = 0;  ///< distinct keys with a live value
    uint64_t badCrc = 0;    ///< records whose checksum or type failed
    uint64_t tornBytes = 0; ///< trailing bytes not forming a whole record

    bool
    clean() const
    {
        return badCrc == 0 && tornBytes == 0;
    }

    std::string summary() const;
};

/**
 * Read-only integrity scan of a segment file. Unlike opening a
 * SuiteStore (which truncates a torn tail as part of recovery), this
 * never modifies the file — it is what `lts-store fsck` runs. Throws
 * std::runtime_error when the file cannot be opened.
 */
FsckReport fsckSegment(const std::string &segment_path);

class SuiteStore
{
  public:
    /**
     * Open (creating if needed) the store rooted at directory @p dir;
     * the segment lives at dir/segment.log. Scans the segment to
     * rebuild the index, truncating a torn tail. Throws
     * std::runtime_error when the directory or segment is unusable.
     */
    explicit SuiteStore(std::string dir);
    ~SuiteStore();

    SuiteStore(const SuiteStore &) = delete;
    SuiteStore &operator=(const SuiteStore &) = delete;

    /** Store @p value under @p key (appends; supersedes prior values). */
    void put(const std::string &key, const std::string &value);

    /**
     * Fetch the live value for @p key: an index lookup plus one read of
     * the value bytes from the segment. Throws std::runtime_error on a
     * short read.
     */
    std::optional<std::string> get(const std::string &key) const;

    /** Live keys in unspecified order. */
    std::vector<std::string> keys() const;

    StoreStats stats() const;

    /**
     * Rewrite live records into a fresh segment (temp file + atomic
     * rename), dropping superseded records. Returns the
     * number of bytes reclaimed.
     */
    uint64_t compact();

    /** fsync the segment (appends are otherwise only write(2)-durable). */
    void flush();

    const std::string &directory() const { return dir; }
    std::string segmentPath() const;

  private:
    struct Entry
    {
        uint64_t valueOffset = 0; ///< file offset of the value bytes
        uint32_t valueLen = 0;
        uint64_t recordBytes = 0; ///< whole-record size, for dead-byte math
    };

    void openSegment();
    void scanSegment();
    /** Index the put of @p key whose record starts at @p offset. */
    void indexPut(const std::string &key, uint64_t offset, size_t value_len,
                  uint64_t record_bytes);

    std::string dir;
    int fd = -1;
    uint64_t fileSize = 0;

    std::unordered_map<std::string, Entry> index;
    uint64_t deadBytes = 0;
    uint64_t recordCount = 0;
    uint64_t tornDropped = 0;
};

} // namespace lts::store

#endif // LTS_STORE_STORE_HH
