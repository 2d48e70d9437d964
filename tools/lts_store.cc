/**
 * @file
 * lts-store — inspect and maintain a suite store directory.
 *
 *   lts-store stats <dir>        # live keys, records, segment bytes
 *   lts-store fsck <dir>         # read-only integrity scan (exit 1 if bad)
 *   lts-store compact <dir>      # drop superseded records, atomic swap
 *   lts-store keys <dir>         # list live keys
 *   lts-store get <dir> <key>    # dump one value to stdout
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "store/store.hh"

using namespace lts;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: lts-store stats|fsck|compact|keys <dir>\n"
                 "       lts-store get <dir> <key>\n");
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string verb = argv[1];
    const std::string dir = argv[2];
    try {
        if (verb == "fsck") {
            // Read-only on purpose: opening a SuiteStore would repair
            // (truncate) a torn tail before we could report it.
            store::FsckReport report =
                store::fsckSegment(dir + "/segment.log");
            std::printf("%s\n", report.summary().c_str());
            return report.clean() ? 0 : 1;
        }
        store::SuiteStore suite_store(dir);
        if (verb == "stats") {
            store::StoreStats s = suite_store.stats();
            std::printf("live keys:    %llu\n"
                        "records:      %llu\n"
                        "segment:      %llu bytes (%llu live, %llu dead)\n"
                        "torn dropped: %llu bytes\n",
                        static_cast<unsigned long long>(s.liveKeys),
                        static_cast<unsigned long long>(s.records),
                        static_cast<unsigned long long>(s.fileBytes),
                        static_cast<unsigned long long>(s.liveBytes),
                        static_cast<unsigned long long>(s.deadBytes),
                        static_cast<unsigned long long>(s.tornBytesDropped));
            return 0;
        }
        if (verb == "compact") {
            unsigned long long reclaimed = suite_store.compact();
            std::printf("reclaimed %llu bytes\n", reclaimed);
            return 0;
        }
        if (verb == "keys") {
            for (const auto &key : suite_store.keys())
                std::printf("%s\n", key.c_str());
            return 0;
        }
        if (verb == "get") {
            if (argc < 4)
                return usage();
            auto value = suite_store.get(argv[3]);
            if (!value) {
                std::fprintf(stderr, "lts-store: no such key\n");
                return 1;
            }
            std::fwrite(value->data(), 1, value->size(), stdout);
            return 0;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lts-store: %s\n", e.what());
        return 1;
    }
    return usage();
}
