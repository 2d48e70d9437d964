/**
 * @file
 * SuiteStore durability tests: reads of superseded, compacted and
 * reopened records (every get() reads the segment), the pinned record
 * layout, crash recovery from a torn tail record, CRC rejection of
 * corrupted records, rejection of records of any type but put, and
 * compaction.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "store/crc32.hh"
#include "store/store.hh"

using namespace lts;
namespace fs = std::filesystem;

namespace
{

/** Fresh per-test directory under the system temp dir, removed on exit. */
class StoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir = (fs::temp_directory_path() /
               ("lts-store-test-" + std::to_string(::getpid()) + "-" +
                info->name()))
                  .string();
        fs::remove_all(dir);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir);
    }

    std::string
    segmentPath() const
    {
        return dir + "/segment.log";
    }

    std::string dir;
};

TEST_F(StoreTest, PutGetSupersede)
{
    store::SuiteStore s(dir);
    EXPECT_FALSE(s.get("k").has_value());

    s.put("k", "value-1");
    EXPECT_EQ(s.get("k").value(), "value-1");

    s.put("k", "value-2"); // supersede
    EXPECT_EQ(s.get("k").value(), "value-2");
    EXPECT_EQ(s.stats().liveKeys, 1u);
    EXPECT_EQ(s.stats().records, 2u);
}

TEST_F(StoreTest, PersistsAcrossReopen)
{
    {
        store::SuiteStore s(dir);
        s.put("a", "alpha");
        s.put("b", "beta");
        s.put("a", "alpha-2");
        s.flush();
    }
    store::SuiteStore s(dir);
    EXPECT_EQ(s.get("a").value(), "alpha-2");
    EXPECT_EQ(s.get("b").value(), "beta");
    EXPECT_FALSE(s.get("c").has_value());
    EXPECT_EQ(s.stats().liveKeys, 2u);
}

TEST_F(StoreTest, IdenticalPutDoesNotGrowSegment)
{
    store::SuiteStore s(dir);
    s.put("k", "same-bytes");
    uint64_t size_before = s.stats().fileBytes;
    s.put("k", "same-bytes");
    EXPECT_EQ(s.stats().fileBytes, size_before);
}

TEST_F(StoreTest, RecordLayoutIsPinned)
{
    // One put appends exactly one record in the documented layout:
    // magic, type, keyLen, valLen, key, value, CRC-32 of type..value.
    {
        store::SuiteStore s(dir);
        s.put("key", "value");
    }
    std::string body;
    body.push_back('\x01');                 // type: put
    body += std::string("\x03\0\0\0", 4); // keyLen
    body += std::string("\x05\0\0\0", 4); // valLen
    body += "keyvalue";
    uint32_t crc = store::crc32(body);
    std::string expected = "LTS1" + body;
    for (int i = 0; i < 4; i++)
        expected.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));

    std::ifstream f(segmentPath(), std::ios::binary);
    std::string segment((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(segment, expected);
}

TEST_F(StoreTest, TornTailIsTruncatedOnReopen)
{
    uint64_t intact_size;
    {
        store::SuiteStore s(dir);
        s.put("keep", "kept-value");
        s.flush();
        intact_size = s.stats().fileBytes;
        s.put("torn", "this record will be cut mid-write");
        s.flush();
    }
    // Simulate a crash mid-append: cut the last record in half.
    uint64_t full_size = fs::file_size(segmentPath());
    ASSERT_GT(full_size, intact_size);
    fs::resize_file(segmentPath(), intact_size + (full_size - intact_size) / 2);

    // A read-only fsck must flag the torn bytes without repairing them.
    store::FsckReport before = store::fsckSegment(segmentPath());
    EXPECT_FALSE(before.clean());
    EXPECT_GT(before.tornBytes, 0u);
    EXPECT_EQ(before.liveKeys, 1u);

    // Reopen: the torn tail is dropped, intact records survive.
    store::SuiteStore s(dir);
    EXPECT_EQ(s.get("keep").value(), "kept-value");
    EXPECT_FALSE(s.get("torn").has_value());
    EXPECT_GT(s.stats().tornBytesDropped, 0u);

    // After the repair the segment scans clean again.
    store::FsckReport after = store::fsckSegment(segmentPath());
    EXPECT_TRUE(after.clean());
    EXPECT_EQ(after.liveKeys, 1u);

    // And the store keeps working past the truncation point.
    s.put("new", "post-crash write");
    s.flush();
    store::SuiteStore reopened(dir);
    EXPECT_EQ(reopened.get("keep").value(), "kept-value");
    EXPECT_EQ(reopened.get("new").value(), "post-crash write");
}

TEST_F(StoreTest, CorruptedRecordFailsFsck)
{
    {
        store::SuiteStore s(dir);
        s.put("k", "payload-payload-payload");
        s.flush();
    }
    // Flip one payload byte in place: length still parses, CRC must not.
    std::fstream f(segmentPath(),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(20);
    f.put('X');
    f.close();

    store::FsckReport report = store::fsckSegment(segmentPath());
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.liveKeys, 0u);
}

TEST_F(StoreTest, RecordOfAnotherTypeIsRejectedLikeBadCrc)
{
    // Hand-built segment: put a, a CRC-valid record of another type for
    // a (2 was once a tombstone), put b. Only type 1 exists, so the
    // other record is damage: fsck counts it bad, and reopening keeps a
    // and truncates from that record onward.
    auto record = [](char type, const std::string &key,
                     const std::string &value) {
        auto u32 = [](uint32_t v) {
            std::string out;
            for (int i = 0; i < 4; i++)
                out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
            return out;
        };
        std::string body = std::string(1, type) +
                           u32(static_cast<uint32_t>(key.size())) +
                           u32(static_cast<uint32_t>(value.size())) + key +
                           value;
        return "LTS1" + body + u32(store::crc32(body));
    };
    const std::string put_a = record('\x01', "a", "alpha");
    const std::string put_b = record('\x01', "b", "beta");
    for (char type : {'\x02', '\x03'}) {
        SCOPED_TRACE(static_cast<int>(type));
        const std::string other = record(type, "a", "");
        fs::remove_all(dir);
        fs::create_directories(dir);
        {
            std::ofstream f(segmentPath(), std::ios::binary);
            f << put_a << other << put_b;
        }

        store::FsckReport report = store::fsckSegment(segmentPath());
        EXPECT_FALSE(report.clean());
        EXPECT_EQ(report.records, 1u);
        EXPECT_EQ(report.liveKeys, 1u);
        EXPECT_EQ(report.badCrc, 1u);
        EXPECT_EQ(report.tornBytes, other.size() + put_b.size());

        store::SuiteStore s(dir);
        EXPECT_EQ(s.get("a").value_or("<missing>"), "alpha");
        EXPECT_FALSE(s.get("b").has_value());
        EXPECT_EQ(s.stats().tornBytesDropped, other.size() + put_b.size());
        EXPECT_EQ(s.stats().fileBytes, put_a.size());
        EXPECT_EQ(fs::file_size(segmentPath()), put_a.size());
        EXPECT_TRUE(store::fsckSegment(segmentPath()).clean());
    }
}

TEST_F(StoreTest, CompactDropsSupersededRecords)
{
    store::SuiteStore s(dir);
    for (int i = 0; i < 10; i++)
        s.put("hot", "version-" + std::to_string(i));
    s.put("cold", "untouched");
    s.flush();
    uint64_t before = s.stats().fileBytes;
    ASSERT_GT(s.stats().deadBytes, 0u);

    uint64_t reclaimed = s.compact();
    EXPECT_GT(reclaimed, 0u);
    EXPECT_LT(s.stats().fileBytes, before);
    EXPECT_EQ(s.stats().deadBytes, 0u);
    EXPECT_EQ(s.get("hot").value(), "version-9");
    EXPECT_EQ(s.get("cold").value(), "untouched");
    EXPECT_EQ(s.stats().records, 2u);

    // The compacted segment must survive a reopen and an fsck.
    store::SuiteStore reopened(dir);
    EXPECT_EQ(reopened.get("hot").value(), "version-9");
    EXPECT_EQ(reopened.get("cold").value(), "untouched");
    EXPECT_TRUE(store::fsckSegment(segmentPath()).clean());
}

TEST_F(StoreTest, KeysListsLiveKeysOnly)
{
    store::SuiteStore s(dir);
    s.put("a", "1");
    s.put("b", "2");
    s.put("a", "3"); // supersedes the first record of "a"
    auto keys = s.keys();
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

TEST(Crc32Test, MatchesKnownVector)
{
    // The canonical IEEE CRC-32 check value.
    EXPECT_EQ(store::crc32("123456789"), 0xcbf43926u);
    EXPECT_EQ(store::crc32(""), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot)
{
    uint32_t crc = store::crc32Init();
    crc = store::crc32Update(crc, "1234", 4);
    crc = store::crc32Update(crc, "56789", 5);
    EXPECT_EQ(store::crc32Final(crc), store::crc32("123456789"));
}

TEST(Crc32Test, EightByteStepsMatchByteAtATime)
{
    // crc32Update folds eight bytes per step; the reference folds one
    // bit at a time. Every length up to three steps, at every alignment
    // and split into two updates, must give the same value.
    auto reference = [](const unsigned char *p, size_t len) {
        uint32_t crc = 0xffffffffu;
        for (size_t i = 0; i < len; i++) {
            crc ^= p[i];
            for (int k = 0; k < 8; k++)
                crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
        }
        return crc ^ 0xffffffffu;
    };
    unsigned char bytes[40];
    for (size_t i = 0; i < sizeof bytes; i++)
        bytes[i] = static_cast<unsigned char>(i * 97 + 13);
    for (size_t offset = 0; offset < 8; offset++) {
        for (size_t len = 0; offset + len <= 32; len++) {
            const unsigned char *p = bytes + offset;
            uint32_t want = reference(p, len);
            EXPECT_EQ(store::crc32(std::string_view(
                          reinterpret_cast<const char *>(p), len)),
                      want)
                << "offset " << offset << " length " << len;
            size_t cut = len / 3;
            uint32_t crc = store::crc32Update(store::crc32Init(), p, cut);
            crc = store::crc32Update(crc, p + cut, len - cut);
            EXPECT_EQ(store::crc32Final(crc), want);
        }
    }
}

} // namespace
