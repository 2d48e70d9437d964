#include "store/store.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <unordered_set>

#include "store/crc32.hh"

namespace lts::store
{

namespace
{

constexpr uint32_t kMagic = 0x3153544cu; // "LTS1" little-endian
constexpr uint8_t kTypePut = 1; // the only record type
constexpr size_t kHeaderBytes = 4 + 1 + 4 + 4; // magic, type, keyLen, valLen
constexpr size_t kTrailerBytes = 4;            // crc
constexpr uint32_t kMaxPayload = 512u << 20;   // sanity bound per field

void
putU32(std::string &out, uint32_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    out.push_back(static_cast<char>((v >> 24) & 0xff));
}

uint32_t
getU32(const unsigned char *p)
{
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

/** Read exactly @p len bytes at @p offset; false on short read/error. */
bool
preadAll(int fd, void *buf, size_t len, uint64_t offset)
{
    auto *p = static_cast<char *>(buf);
    while (len > 0) {
        ssize_t n = ::pread(fd, p, len, static_cast<off_t>(offset));
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        p += n;
        offset += static_cast<uint64_t>(n);
        len -= static_cast<size_t>(n);
    }
    return true;
}

void
writeAll(int fd, const char *p, size_t len)
{
    while (len > 0) {
        ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error(std::string("store: write failed: ") +
                                     std::strerror(errno));
        }
        p += n;
        len -= static_cast<size_t>(n);
    }
}

/** The on-disk bytes of one put record (see the format in store.hh). */
std::string
encodeRecord(const std::string &key, const std::string &value)
{
    std::string rec;
    rec.reserve(kHeaderBytes + key.size() + value.size() + kTrailerBytes);
    putU32(rec, kMagic);
    rec.push_back(static_cast<char>(kTypePut));
    putU32(rec, static_cast<uint32_t>(key.size()));
    putU32(rec, static_cast<uint32_t>(value.size()));
    rec += key;
    rec += value;
    uint32_t crc = crc32Init();
    crc = crc32Update(crc, rec.data() + 4, rec.size() - 4);
    putU32(rec, crc32Final(crc));
    return rec;
}

/**
 * Decode one record at @p offset. Returns false when the bytes from
 * @p offset to EOF do not form an intact put record (short, bad magic,
 * unknown type, oversized length field, or CRC mismatch) — the caller
 * treats that as the torn tail. On success fills key/value and the
 * record size.
 */
bool
readRecord(int fd, uint64_t offset, uint64_t file_size, std::string &key,
           std::string &value, uint64_t &record_bytes)
{
    if (offset + kHeaderBytes + kTrailerBytes > file_size)
        return false;
    unsigned char hdr[kHeaderBytes];
    if (!preadAll(fd, hdr, sizeof hdr, offset))
        return false;
    if (getU32(hdr) != kMagic)
        return false;
    uint32_t key_len = getU32(hdr + 5);
    uint32_t val_len = getU32(hdr + 9);
    if (hdr[4] != kTypePut)
        return false;
    if (key_len == 0 || key_len > kMaxPayload || val_len > kMaxPayload)
        return false;
    record_bytes = kHeaderBytes + static_cast<uint64_t>(key_len) + val_len +
                   kTrailerBytes;
    if (offset + record_bytes > file_size)
        return false;
    std::string payload(static_cast<size_t>(key_len) + val_len, '\0');
    if (!payload.empty() &&
        !preadAll(fd, payload.data(), payload.size(), offset + kHeaderBytes))
        return false;
    unsigned char crc_buf[4];
    if (!preadAll(fd, crc_buf, 4,
                  offset + kHeaderBytes + payload.size()))
        return false;
    uint32_t crc = crc32Init();
    crc = crc32Update(crc, hdr + 4, kHeaderBytes - 4); // type..valLen
    crc = crc32Update(crc, payload.data(), payload.size());
    if (crc32Final(crc) != getU32(crc_buf))
        return false;
    key.assign(payload, 0, key_len);
    value.assign(payload, key_len, val_len);
    return true;
}

} // namespace

std::string
FsckReport::summary() const
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%llu records, %llu live keys, %llu bad crc, "
                  "%llu torn tail bytes: %s",
                  static_cast<unsigned long long>(records),
                  static_cast<unsigned long long>(liveKeys),
                  static_cast<unsigned long long>(badCrc),
                  static_cast<unsigned long long>(tornBytes),
                  clean() ? "clean" : "CORRUPT");
    return buf;
}

SuiteStore::SuiteStore(std::string dir_) : dir(std::move(dir_))
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        throw std::runtime_error("store: cannot create " + dir + ": " +
                                 ec.message());
    }
    openSegment();
    scanSegment();
}

SuiteStore::~SuiteStore()
{
    if (fd >= 0)
        ::close(fd);
}

std::string
SuiteStore::segmentPath() const
{
    return dir + "/segment.log";
}

void
SuiteStore::openSegment()
{
    fd = ::open(segmentPath().c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
    if (fd < 0) {
        throw std::runtime_error("store: cannot open " + segmentPath() +
                                 ": " + std::strerror(errno));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        throw std::runtime_error("store: cannot stat " + segmentPath() +
                                 ": " + std::strerror(errno));
    }
    fileSize = static_cast<uint64_t>(st.st_size);
}

void
SuiteStore::scanSegment()
{
    index.clear();
    deadBytes = 0;
    recordCount = 0;
    uint64_t offset = 0;
    std::string key, value;
    uint64_t record_bytes;
    while (offset < fileSize &&
           readRecord(fd, offset, fileSize, key, value, record_bytes)) {
        indexPut(key, offset, value.size(), record_bytes);
        offset += record_bytes;
    }
    if (offset < fileSize) {
        // Torn tail: a crash mid-append (or trailing corruption). Drop
        // it so the next append starts at a record boundary.
        tornDropped = fileSize - offset;
        if (::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
            throw std::runtime_error("store: cannot truncate torn tail of " +
                                     segmentPath() + ": " +
                                     std::strerror(errno));
        }
        fileSize = offset;
    }
}

void
SuiteStore::indexPut(const std::string &key, uint64_t offset,
                     size_t value_len, uint64_t record_bytes)
{
    Entry e;
    e.valueOffset = offset + kHeaderBytes + key.size();
    e.valueLen = static_cast<uint32_t>(value_len);
    e.recordBytes = record_bytes;
    auto [it, inserted] = index.try_emplace(key, e);
    if (!inserted) {
        deadBytes += it->second.recordBytes; // superseded
        it->second = e;
    }
    recordCount++;
}

void
SuiteStore::put(const std::string &key, const std::string &value)
{
    if (key.empty())
        throw std::invalid_argument("store: empty key");
    if (key.size() > kMaxPayload || value.size() > kMaxPayload)
        throw std::invalid_argument("store: oversized record");
    auto it = index.find(key);
    if (it != index.end() && it->second.valueLen == value.size()) {
        // Same bytes already live? Skip the append so repeat warm
        // queries don't grow the segment.
        std::string current(value.size(), '\0');
        if ((value.empty() ||
             preadAll(fd, current.data(), current.size(),
                      it->second.valueOffset)) &&
            current == value) {
            return;
        }
    }
    const std::string rec = encodeRecord(key, value);
    writeAll(fd, rec.data(), rec.size());
    indexPut(key, fileSize, value.size(), rec.size());
    fileSize += rec.size();
}

std::optional<std::string>
SuiteStore::get(const std::string &key) const
{
    auto it = index.find(key);
    if (it == index.end())
        return std::nullopt;
    std::string value(it->second.valueLen, '\0');
    if (!value.empty() &&
        !preadAll(fd, value.data(), value.size(), it->second.valueOffset)) {
        throw std::runtime_error("store: short read in " + segmentPath());
    }
    return value;
}

std::vector<std::string>
SuiteStore::keys() const
{
    std::vector<std::string> out;
    out.reserve(index.size());
    for (const auto &[k, e] : index)
        out.push_back(k);
    return out;
}

StoreStats
SuiteStore::stats() const
{
    StoreStats s;
    s.liveKeys = index.size();
    s.records = recordCount;
    s.fileBytes = fileSize;
    s.deadBytes = deadBytes;
    s.liveBytes = fileSize - deadBytes;
    s.tornBytesDropped = tornDropped;
    return s;
}

FsckReport
fsckSegment(const std::string &segment_path)
{
    int fd = ::open(segment_path.c_str(), O_RDONLY);
    if (fd < 0) {
        throw std::runtime_error("store: cannot open " + segment_path +
                                 ": " + std::strerror(errno));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        int err = errno;
        ::close(fd);
        throw std::runtime_error("store: cannot stat " + segment_path +
                                 ": " + std::strerror(err));
    }
    const uint64_t file_size = static_cast<uint64_t>(st.st_size);
    FsckReport report;
    std::unordered_set<std::string> live;
    uint64_t offset = 0;
    std::string key, value;
    uint64_t record_bytes;
    while (offset < file_size) {
        if (!readRecord(fd, offset, file_size, key, value, record_bytes)) {
            // Distinguish a whole corrupt record (header-sized bytes
            // present, crc, type or framing bad) from a short tail only
            // by whether a header could even fit; both stop the scan,
            // exactly as recovery does on open.
            report.tornBytes = file_size - offset;
            if (offset + kHeaderBytes + kTrailerBytes <= file_size)
                report.badCrc++;
            break;
        }
        report.records++;
        live.insert(key);
        offset += record_bytes;
    }
    ::close(fd);
    report.liveKeys = live.size();
    return report;
}

uint64_t
SuiteStore::compact()
{
    const std::string tmp_path = segmentPath() + ".tmp";
    int tmp = ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (tmp < 0) {
        throw std::runtime_error("store: cannot open " + tmp_path + ": " +
                                 std::strerror(errno));
    }
    // Live records are re-read in index order; order inside a segment
    // carries no meaning once every key appears at most once.
    uint64_t before = fileSize;
    std::vector<std::pair<std::string, std::string>> records;
    records.reserve(index.size());
    for (const auto &[key, e] : index) {
        std::string value(e.valueLen, '\0');
        if (!value.empty() &&
            !preadAll(fd, value.data(), value.size(), e.valueOffset)) {
            ::close(tmp);
            ::unlink(tmp_path.c_str());
            throw std::runtime_error("store: short read during compact");
        }
        records.emplace_back(key, std::move(value));
    }
    try {
        for (const auto &[key, value] : records) {
            const std::string rec = encodeRecord(key, value);
            writeAll(tmp, rec.data(), rec.size());
        }
    } catch (...) {
        ::close(tmp);
        ::unlink(tmp_path.c_str());
        throw;
    }
    if (::fsync(tmp) != 0 ||
        ::rename(tmp_path.c_str(), segmentPath().c_str()) != 0) {
        int err = errno;
        ::close(tmp);
        ::unlink(tmp_path.c_str());
        throw std::runtime_error("store: compact commit failed: " +
                                 std::string(std::strerror(err)));
    }
    // Reopen in append mode and rebuild bookkeeping against the fresh
    // segment (every offset moved).
    ::close(tmp);
    ::close(fd);
    openSegment();
    scanSegment();
    return before > fileSize ? before - fileSize : 0;
}

void
SuiteStore::flush()
{
    if (fd >= 0 && ::fsync(fd) != 0) {
        throw std::runtime_error("store: fsync failed: " +
                                 std::string(std::strerror(errno)));
    }
}

} // namespace lts::store
