/**
 * @file
 * End-to-end daemon tests: runDaemon on a background thread, real
 * unix-socket clients, cold/warm cache behavior, the warm-speedup
 * acceptance bound, progress streaming, ping, and shutdown.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "litmus/canon.hh"
#include "mm/registry.hh"
#include "synth/daemon.hh"
#include "synth/service.hh"
#include "synth/synthesizer.hh"

using namespace lts;
namespace fs = std::filesystem;

namespace
{

class DaemonTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        // Unix socket paths are length-limited; keep them short.
        base = (fs::temp_directory_path() /
                ("ltsd-" + std::to_string(::getpid()) + "-" + info->name()))
                   .string();
        fs::remove_all(base);
        fs::create_directories(base);
        config.socketPath = base + "/d.sock";
        config.storeDir = base + "/store";
    }

    void
    TearDown() override
    {
        stopDaemon();
        fs::remove_all(base);
    }

    void
    startDaemon()
    {
        server = std::thread(
            [this] { synth::runDaemon(config, &stop); });
        // The socket appears once the daemon is listening.
        for (int i = 0; i < 200 && !synth::pingDaemon(config.socketPath);
             i++) {
            ::usleep(10 * 1000);
        }
        ASSERT_TRUE(synth::pingDaemon(config.socketPath));
    }

    void
    stopDaemon()
    {
        if (!server.joinable())
            return;
        stop.store(true);
        server.join();
    }

    std::string base;
    synth::DaemonConfig config;
    std::atomic<bool> stop{false};
    std::thread server;
};

TEST_F(DaemonTest, ColdThenWarmQueryIsByteIdenticalAndFast)
{
    startDaemon();

    synth::SuiteRequest request;
    request.model = "tso";
    request.maxSize = 4;

    synth::SuiteResult cold =
        synth::queryDaemon(config.socketPath, request);
    EXPECT_EQ(cold.cache, synth::CacheOutcome::Miss);
    EXPECT_GT(cold.shardsSynthesized, 0u);
    EXPECT_GT(cold.seconds, 0.0);

    synth::SuiteResult warm =
        synth::queryDaemon(config.socketPath, request);
    EXPECT_EQ(warm.cache, synth::CacheOutcome::Hit);
    EXPECT_EQ(warm.shardsSynthesized, 0u);

    // Byte identity: same digest, same serialized tests.
    EXPECT_EQ(warm.suiteDigest, cold.suiteDigest);
    ASSERT_EQ(warm.suites.size(), cold.suites.size());
    for (size_t i = 0; i < warm.suites.size(); i++) {
        ASSERT_EQ(warm.suites[i].tests.size(), cold.suites[i].tests.size());
        for (size_t j = 0; j < warm.suites[i].tests.size(); j++) {
            EXPECT_EQ(litmus::fullSerialize(warm.suites[i].tests[j]),
                      litmus::fullSerialize(cold.suites[i].tests[j]));
        }
    }

    // Acceptance: the warm repeat answer for TSO bound 4 costs at most
    // 1/100 of cold synthesis (daemon-side seconds, so socket and
    // client process costs don't blur the comparison).
    EXPECT_LE(warm.seconds * 100.0, cold.seconds)
        << "cold " << cold.seconds << "s vs warm " << warm.seconds << "s";
}

TEST_F(DaemonTest, WarmAnswerMatchesColdSynthesizeAll)
{
    startDaemon();

    synth::SynthOptions opt;
    opt.maxSize = 4;
    auto model = mm::makeModel("tso");
    auto cold_suites = synth::synthesizeAll(*model, opt);

    synth::SuiteRequest request;
    request.model = "tso";
    request.maxSize = 4;
    synth::queryDaemon(config.socketPath, request); // populate
    synth::SuiteResult warm =
        synth::queryDaemon(config.socketPath, request);

    EXPECT_EQ(warm.cache, synth::CacheOutcome::Hit);
    ASSERT_EQ(warm.suites.size(), cold_suites.size());
    const auto &warm_union = warm.unionSuite().tests;
    const auto &cold_union = cold_suites.back().tests;
    ASSERT_EQ(warm_union.size(), cold_union.size());
    for (size_t i = 0; i < warm_union.size(); i++) {
        EXPECT_EQ(litmus::fullSerialize(warm_union[i]),
                  litmus::fullSerialize(cold_union[i]));
    }
}

TEST_F(DaemonTest, StreamsProgressOnColdQueries)
{
    startDaemon();

    synth::SuiteRequest request;
    request.model = "sc";
    request.maxSize = 3;

    std::vector<std::string> lines;
    synth::queryDaemon(config.socketPath, request,
                       [&](const std::string &line) {
                           lines.push_back(line);
                       });
    EXPECT_FALSE(lines.empty()); // shard/suite progress on a cold run
}

TEST_F(DaemonTest, RejectsMalformedModels)
{
    startDaemon();

    synth::SuiteRequest request;
    request.model = "itanium"; // not a registered model
    request.maxSize = 3;
    EXPECT_THROW(synth::queryDaemon(config.socketPath, request),
                 std::runtime_error);

    // The daemon survives the error and keeps serving.
    EXPECT_TRUE(synth::pingDaemon(config.socketPath));
    request.model = "sc";
    EXPECT_NO_THROW(synth::queryDaemon(config.socketPath, request));
}

TEST_F(DaemonTest, RejectsOutOfRangeSizes)
{
    startDaemon();

    synth::SuiteRequest request;
    request.model = "sc";
    request.maxSize = 9; // beyond the paper's largest bound, 7
    try {
        synth::queryDaemon(config.socketPath, request);
        ADD_FAILURE() << "maxsize 9 was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("server error"),
                  std::string::npos)
            << e.what();
    }

    // The same daemon answers an in-range request normally.
    request.maxSize = 3;
    synth::SuiteResult result =
        synth::queryDaemon(config.socketPath, request);
    EXPECT_FALSE(result.unionSuite().tests.empty());
}

TEST_F(DaemonTest, ShutdownRequestStopsTheDaemon)
{
    startDaemon();
    EXPECT_TRUE(synth::shutdownDaemon(config.socketPath));
    server.join();
    EXPECT_FALSE(synth::pingDaemon(config.socketPath));
    EXPECT_FALSE(fs::exists(config.socketPath)); // socket file removed
}

TEST_F(DaemonTest, PingFailsWithoutADaemon)
{
    EXPECT_FALSE(synth::pingDaemon(base + "/nosuch.sock"));
    EXPECT_FALSE(synth::shutdownDaemon(base + "/nosuch.sock"));
}

} // namespace
