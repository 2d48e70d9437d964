/**
 * @file
 * Service-layer tests: cold/warm byte identity through the store and
 * the resident (daemon-mode) path, registry-wide agreement with a plain
 * synthesizeAll run, shard-level hits for axiom-scoped and smaller-bound
 * queries, shard-level invalidation when one axiom is edited, the
 * fallbacks for a damaged or stale manifest, digest semantics, and the
 * request/result wire payload round trip.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <optional>
#include <sstream>
#include <string>

#include "litmus/canon.hh"
#include "litmus/digest.hh"
#include "litmus/format.hh"
#include "mm/registry.hh"
#include "rel/formula.hh"
#include "store/store.hh"
#include "synth/service.hh"
#include "synth/synthesizer.hh"

using namespace lts;
namespace fs = std::filesystem;

namespace
{

class ServiceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir = (fs::temp_directory_path() /
               ("lts-service-test-" + std::to_string(::getpid()) + "-" +
                info->name()))
                  .string();
        fs::remove_all(dir);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir);
    }

    synth::ServiceConfig
    storeConfig(bool resident = false) const
    {
        synth::ServiceConfig config;
        config.storeDir = dir;
        config.residentEncodings = resident;
        return config;
    }

    /** A cold tso ≤3 query on a fresh store from a Service of its own;
     *  the manifest fallback tests all start from it. */
    synth::SuiteResult
    coldSmallTso(bool resident)
    {
        fs::remove_all(dir);
        return synth::Service(storeConfig(resident)).query(smallTso());
    }

    static synth::SuiteRequest
    smallTso()
    {
        synth::SuiteRequest request;
        request.model = "tso";
        request.maxSize = 3;
        return request;
    }

    /** The key of the one manifest a single query leaves in the store. */
    std::string
    manifestKey() const
    {
        for (const std::string &key : store::SuiteStore(dir).keys()) {
            if (key.rfind("suite/", 0) == 0)
                return key;
        }
        ADD_FAILURE() << "no manifest in the store";
        return std::string();
    }

    std::string dir;
};

/** Suites compare equal iff their tests serialize identically in order. */
void
expectSameTests(const synth::Suite &a, const synth::Suite &b)
{
    ASSERT_EQ(a.tests.size(), b.tests.size());
    for (size_t i = 0; i < a.tests.size(); i++) {
        EXPECT_EQ(litmus::fullSerialize(a.tests[i]),
                  litmus::fullSerialize(b.tests[i]))
            << "test " << i << " differs";
    }
}

TEST_F(ServiceTest, ColdThenWarmStoreQueryIsByteIdentical)
{
    synth::SuiteRequest request;
    request.model = "tso";
    request.maxSize = 4;

    synth::Service cold_service(storeConfig());
    synth::SuiteResult cold = cold_service.query(request);
    EXPECT_EQ(cold.cache, synth::CacheOutcome::Miss);
    EXPECT_EQ(cold.shardsCached, 0u);
    EXPECT_GT(cold.shardsSynthesized, 0u);

    // A separate Service on the same directory models a fresh process.
    synth::Service warm_service(storeConfig());
    synth::SuiteResult warm = warm_service.query(request);
    EXPECT_EQ(warm.cache, synth::CacheOutcome::Hit);
    EXPECT_EQ(warm.shardsSynthesized, 0u);
    EXPECT_EQ(warm.shardsCached, cold.shardsSynthesized);
    for (const auto &shard : warm.shards)
        EXPECT_TRUE(shard.cached);

    EXPECT_EQ(warm.suiteDigest, cold.suiteDigest);
    EXPECT_EQ(warm.modelDigest, cold.modelDigest);
    ASSERT_EQ(warm.suites.size(), cold.suites.size());
    for (size_t i = 0; i < warm.suites.size(); i++)
        expectSameTests(warm.suites[i], cold.suites[i]);

    // The warm path must not have touched a solver at all.
    EXPECT_EQ(warm.progress.jobsQueued, 0u);
    EXPECT_EQ(warm.progress.instances, 0u);
}

TEST_F(ServiceTest, RegistryWideWarmResidentMatchesColdSynthesizeAll)
{
    // Every registered model: a warm daemon-style answer (resident
    // encodings + store) must be byte-identical to a plain cold
    // synthesizeAll run, digest and test bytes alike.
    for (const std::string &name : mm::modelNames()) {
        SCOPED_TRACE(name);
        auto model = mm::makeModel(name);

        // Power and ARMv7 cost ~25s per run at bound 3; bound 2 still
        // exercises their full axiom set through both paths.
        const int bound = (name == "power" || name == "armv7") ? 2 : 3;
        synth::SynthOptions opt;
        opt.maxSize = bound;
        auto cold_suites = synth::synthesizeAll(*model, opt);

        synth::SuiteRequest request;
        request.model = name;
        request.maxSize = bound;

        synth::Service daemonish(storeConfig(/*resident=*/true));
        synth::SuiteResult first = daemonish.query(request);
        synth::SuiteResult warm = daemonish.query(request);

        EXPECT_EQ(warm.cache, synth::CacheOutcome::Hit);
        EXPECT_EQ(warm.suiteDigest, first.suiteDigest);
        EXPECT_EQ(warm.suiteDigest,
                  litmus::suiteDigest(cold_suites.back().tests));
        ASSERT_EQ(warm.suites.size(), cold_suites.size());
        for (size_t i = 0; i < warm.suites.size(); i++)
            expectSameTests(warm.suites[i], cold_suites[i]);

        fs::remove_all(dir); // fresh store for the next model
    }
}

TEST_F(ServiceTest, EditingOneAxiomResynthesizesOnlyItsShards)
{
    // At jobs 4 the daemon's size jobs run on pool threads; the cache
    // must come back whole either way.
    for (int jobs : {1, 4}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        fs::remove_all(dir); // fresh store per job count
        auto model = mm::makeModel("tso");
        const std::string edited = model->axioms().front().name;
        const size_t n_axioms = model->axioms().size();
        ASSERT_GT(n_axioms, 1u);

        // Freeze the relaxed form first: relaxedPred defaults to pred,
        // and the minimality base renders every axiom's relaxed form, so
        // editing pred without pinning relaxedPred would change every
        // base digest (and so every shard key) instead of one axiom's
        // shards.
        auto &target = model->axiomMut(edited);
        target.relaxedPred = target.pred;

        synth::SuiteRequest request;
        request.model = "tso";
        request.maxSize = 4;
        request.options.jobs = jobs;
        const size_t n_sizes = static_cast<size_t>(
            request.maxSize - request.options.minSize + 1);

        synth::Service daemonish(storeConfig(/*resident=*/true));
        synth::SuiteResult before = daemonish.query(*model, request);
        EXPECT_EQ(before.shardsSynthesized, n_axioms * n_sizes);

        // Edit the axiom's predicate to a structurally different,
        // logically equivalent formula: the axiom's violation digest
        // changes, the shared base formula does not.
        auto original = target.pred;
        target.pred = [original](const mm::Model &m, const mm::Env &env,
                                 size_t n) {
            auto f = original(m, env, n);
            return rel::mkAnd(f, f);
        };

        synth::SuiteResult after = daemonish.query(*model, request);
        EXPECT_EQ(after.cache, synth::CacheOutcome::Partial);
        EXPECT_EQ(after.shardsSynthesized, n_sizes);
        EXPECT_EQ(after.shardsCached, (n_axioms - 1) * n_sizes);
        for (const auto &shard : after.shards) {
            EXPECT_EQ(shard.cached, shard.axiom != edited)
                << shard.axiom << "@" << shard.size;
        }
        // Only the edited axiom's shards went through a solver.
        EXPECT_EQ(after.progress.jobsQueued, n_sizes);

        // The edit was logically a no-op, so the suite bytes must agree.
        EXPECT_EQ(after.suiteDigest, before.suiteDigest);
    }
}

TEST_F(ServiceTest, ScopedAndSmallerBoundQueriesReuseFullQueryShards)
{
    // After a full query, an axiom-scoped query and a smaller-bound one
    // have no manifest of their own: each is assembled from the full
    // query's shard records, read back from the store segment.
    const std::string first_axiom =
        mm::makeModel("tso")->axioms().front().name;
    for (bool resident : {false, true}) {
        SCOPED_TRACE(resident ? "resident" : "one-shot");
        fs::remove_all(dir); // fresh store per mode
        synth::Service service(storeConfig(resident));

        synth::SuiteRequest full;
        full.model = "tso";
        full.maxSize = 4;
        EXPECT_EQ(service.query(full).cache, synth::CacheOutcome::Miss);

        synth::SuiteRequest scoped = full;
        scoped.axiom = first_axiom;
        synth::SuiteRequest smaller = full;
        smaller.maxSize = 3;
        for (const synth::SuiteRequest &request : {scoped, smaller}) {
            SCOPED_TRACE("axiom '" + request.axiom + "' max size " +
                         std::to_string(request.maxSize));
            synth::SuiteResult warm = service.query(request);
            EXPECT_EQ(warm.cache, synth::CacheOutcome::Hit);
            EXPECT_EQ(warm.shardsSynthesized, 0u);
            EXPECT_EQ(warm.progress.jobsQueued, 0u);

            synth::SuiteResult cold = synth::Service().query(request);
            EXPECT_EQ(warm.suiteDigest, cold.suiteDigest);
            ASSERT_EQ(warm.suites.size(), cold.suites.size());
            for (size_t i = 0; i < warm.suites.size(); i++)
                expectSameTests(warm.suites[i], cold.suites[i]);
        }
    }
}

TEST_F(ServiceTest, UnparseableManifestIsRederivedFromShards)
{
    for (bool resident : {false, true}) {
        SCOPED_TRACE(resident ? "resident" : "one-shot");
        synth::SuiteResult cold = coldSmallTso(resident);
        const std::string key = manifestKey();
        std::optional<std::string> manifest;
        {
            store::SuiteStore store(dir);
            manifest = store.get(key);
            ASSERT_TRUE(manifest);
            store.put(key, "not a manifest\n");
            store.flush();
        }

        synth::SuiteResult warm =
            synth::Service(storeConfig(resident)).query(smallTso());
        EXPECT_EQ(warm.cache, synth::CacheOutcome::Hit);
        EXPECT_EQ(warm.shardsSynthesized, 0u);
        EXPECT_EQ(warm.progress.jobsQueued, 0u);
        EXPECT_EQ(warm.suiteDigest, cold.suiteDigest);
        // Re-derived from the shard records, the manifest is whole again.
        EXPECT_EQ(store::SuiteStore(dir).get(key), manifest);
    }
}

TEST_F(ServiceTest, ManifestMissingAShardSynthesizesOnlyThatShard)
{
    for (bool resident : {false, true}) {
        SCOPED_TRACE(resident ? "resident" : "one-shot");
        synth::SuiteResult cold = coldSmallTso(resident);
        const std::string key = manifestKey();
        {
            // The store has no delete: copy every record but the shard
            // into a fresh store and put that in place of the old one.
            store::SuiteStore store(dir);
            std::string manifest = store.get(key).value_or("");
            size_t at = manifest.find("\nshard ");
            ASSERT_NE(at, std::string::npos) << manifest;
            at += 7;
            std::string shard =
                manifest.substr(at, manifest.find('\n', at) - at);
            ASSERT_TRUE(store.get(shard).has_value()) << shard;
            store::SuiteStore pruned(dir + ".pruned");
            for (const std::string &k : store.keys()) {
                if (k != shard)
                    pruned.put(k, store.get(k).value());
            }
            pruned.flush();
        }
        fs::remove_all(dir);
        fs::rename(dir + ".pruned", dir);

        synth::SuiteResult warm =
            synth::Service(storeConfig(resident)).query(smallTso());
        EXPECT_EQ(warm.cache, synth::CacheOutcome::Partial);
        EXPECT_EQ(warm.shardsSynthesized, 1u);
        EXPECT_EQ(warm.progress.jobsQueued, 1u);
        EXPECT_EQ(warm.suiteDigest, cold.suiteDigest);

        synth::SuiteResult again =
            synth::Service(storeConfig(resident)).query(smallTso());
        EXPECT_EQ(again.cache, synth::CacheOutcome::Hit);
        EXPECT_EQ(again.shardsSynthesized, 0u);
        EXPECT_EQ(again.suiteDigest, cold.suiteDigest);
    }
}

TEST_F(ServiceTest, PartialQueryPersistsColdShardBytesAndCounts)
{
    // Assembly moves the tests out of every shard, so a partial query
    // must take what it persists and counts first: the shards it
    // synthesizes are stored with the test bytes a cold query stores,
    // which are the tests synthesizeAll finds at that size, and each
    // provenance entry counts its shard record's tests.
    auto testsOf = [](const std::string &record) {
        size_t at = record.find("\ntests ");
        EXPECT_NE(at, std::string::npos) << record;
        return record.substr(at + 1); // the "tests N" line and the tests
    };
    synth::SuiteRequest full;
    full.model = "tso";
    full.maxSize = 4;
    synth::SuiteRequest smaller = full;
    smaller.maxSize = 3;
    synth::SynthOptions options;
    options.maxSize = full.maxSize;
    const std::vector<synth::Suite> reference =
        synth::synthesizeAll(*mm::makeModel("tso"), options);
    auto referenceTests = [&](const std::string &axiom, int size) {
        std::vector<std::string> keys;
        for (const synth::Suite &suite : reference) {
            for (const auto &t : suite.tests) {
                if (suite.axiom == axiom &&
                    t.size() == static_cast<size_t>(size))
                    keys.push_back(litmus::fullSerialize(t));
            }
        }
        return keys;
    };
    auto recordTests = [&](const std::string &record) {
        std::istringstream in(testsOf(record));
        std::string count_line;
        std::getline(in, count_line);
        std::vector<std::string> keys;
        for (const auto &t : litmus::parseLitmusSuite(in))
            keys.push_back(litmus::fullSerialize(t));
        return keys;
    };

    const std::string cold_dir = dir + ".cold";
    fs::remove_all(cold_dir);
    synth::ServiceConfig cold_config;
    cold_config.storeDir = cold_dir;
    EXPECT_EQ(synth::Service(cold_config).query(full).cache,
              synth::CacheOutcome::Miss);
    store::SuiteStore cold(cold_dir);

    for (bool resident : {false, true}) {
        SCOPED_TRACE(resident ? "resident" : "one-shot");
        fs::remove_all(dir);
        synth::SuiteResult partial;
        {
            synth::Service service(storeConfig(resident));
            service.query(smaller);
            partial = service.query(full);
        }
        EXPECT_EQ(partial.cache, synth::CacheOutcome::Partial);
        EXPECT_GT(partial.shardsSynthesized, 0u);
        EXPECT_GT(partial.shardsCached, 0u);

        // The full query's manifest lists its shard keys in provenance
        // order: axioms in scope order, sizes ascending within each.
        store::SuiteStore warm(dir);
        std::string manifest;
        for (const std::string &key : warm.keys()) {
            if (key.rfind("suite/", 0) == 0 &&
                key.find("/n2-4/") != std::string::npos)
                manifest = warm.get(key).value_or("");
        }
        std::vector<std::string> keys;
        std::istringstream lines(manifest);
        for (std::string line; std::getline(lines, line);) {
            if (line.rfind("shard ", 0) == 0)
                keys.push_back(line.substr(6));
        }
        ASSERT_EQ(keys.size(), partial.shards.size()) << manifest;
        for (size_t i = 0; i < keys.size(); i++) {
            const synth::ShardProvenance &prov = partial.shards[i];
            SCOPED_TRACE(prov.axiom + "@" + std::to_string(prov.size));
            std::optional<std::string> record = warm.get(keys[i]);
            std::optional<std::string> stored_cold = cold.get(keys[i]);
            ASSERT_TRUE(record && stored_cold);
            EXPECT_EQ(testsOf(*record), testsOf(*stored_cold));
            EXPECT_EQ(recordTests(*record),
                      referenceTests(prov.axiom, prov.size));
            EXPECT_EQ(testsOf(*record).rfind(
                          "tests " + std::to_string(prov.tests) + "\n", 0),
                      0u);
        }
    }
    fs::remove_all(cold_dir);
}

TEST_F(ServiceTest, ManifestDigestMismatchIsRewritten)
{
    for (bool resident : {false, true}) {
        SCOPED_TRACE(resident ? "resident" : "one-shot");
        synth::SuiteResult cold = coldSmallTso(resident);
        const std::string key = manifestKey();
        std::string manifest;
        {
            store::SuiteStore store(dir);
            manifest = store.get(key).value_or("");
            const std::string line = "digest " + cold.suiteDigest + "\n";
            size_t at = manifest.find(line);
            ASSERT_NE(at, std::string::npos) << manifest;
            std::string stale = manifest;
            stale.replace(at, line.size(),
                          "digest lts-suite-v1:0000000000000000\n");
            store.put(key, stale);
            store.flush();
        }

        synth::SuiteResult warm =
            synth::Service(storeConfig(resident)).query(smallTso());
        EXPECT_EQ(warm.cache, synth::CacheOutcome::Hit);
        EXPECT_EQ(warm.shardsSynthesized, 0u);
        EXPECT_EQ(warm.suiteDigest, cold.suiteDigest);
        // The stale manifest is overwritten with the served digest.
        EXPECT_EQ(store::SuiteStore(dir).get(key), manifest);
    }
}

TEST_F(ServiceTest, ResidentAndOneShotColdQueriesCountTheSameWork)
{
    // Daemon mode keeps models and results resident, one-shot mode
    // does not; the same cold query must report the same work either
    // way, construction-time simplify included, serially and with size
    // jobs on pool threads.
    for (int jobs : {1, 4}) {
        for (const char *name : {"tso", "scc"}) {
            SCOPED_TRACE(std::string(name) + " jobs " +
                         std::to_string(jobs));
            synth::SuiteRequest request;
            request.model = name;
            request.maxSize = 3;
            request.options.jobs = jobs;
            synth::SynthProgressSnapshot p[2];
            for (bool resident : {false, true}) {
                synth::ServiceConfig config;
                config.residentEncodings = resident;
                synth::Service service(config);
                p[resident] = service.query(request).progress;
            }
            EXPECT_EQ(p[0].jobsQueued, 2u);
            EXPECT_GT(p[0].eliminatedVars, 0u);
            EXPECT_EQ(p[1].jobsQueued, p[0].jobsQueued);
            EXPECT_EQ(p[1].conflicts, p[0].conflicts);
            EXPECT_EQ(p[1].restarts, p[0].restarts);
            EXPECT_EQ(p[1].instances, p[0].instances);
            EXPECT_EQ(p[1].sbpClauses, p[0].sbpClauses);
            EXPECT_EQ(p[1].eliminatedVars, p[0].eliminatedVars);
            EXPECT_EQ(p[1].subsumedClauses, p[0].subsumedClauses);
        }
    }
}

TEST_F(ServiceTest, OptionsDigestIgnoresEngineKnobs)
{
    synth::SynthOptions semantic;
    synth::SynthOptions engine = semantic;
    // Engine knobs: byte-identical output by contract, so repeat queries
    // under a different execution strategy still hit.
    engine.jobs = 7;
    engine.symmetryBreaking = !engine.symmetryBreaking;
    engine.simplify = !engine.simplify;
    EXPECT_EQ(synth::optionsDigest(semantic), synth::optionsDigest(engine));

    synth::SynthOptions canon_off = semantic;
    canon_off.canon = litmus::CanonMode::Off;
    EXPECT_NE(synth::optionsDigest(semantic),
              synth::optionsDigest(canon_off));

    synth::SynthOptions capped = semantic;
    capped.maxTestsPerSize = 5;
    EXPECT_NE(synth::optionsDigest(semantic), synth::optionsDigest(capped));
}

TEST_F(ServiceTest, ModelDigestIsStableAndEditSensitive)
{
    EXPECT_EQ(mm::makeModel("tso")->digest(), mm::makeModel("tso")->digest());
    EXPECT_NE(mm::makeModel("tso")->digest(), mm::makeModel("sc")->digest());

    auto model = mm::makeModel("tso");
    std::string before = model->digest();
    auto &axiom = model->axiomMut(model->axioms().front().name);
    axiom.relaxedPred = axiom.pred;
    auto original = axiom.pred;
    axiom.pred = [original](const mm::Model &m, const mm::Env &env,
                            size_t n) {
        auto f = original(m, env, n);
        return rel::mkAnd(f, f);
    };
    EXPECT_NE(model->digest(), before);
}

TEST_F(ServiceTest, RequestPayloadRoundTrips)
{
    synth::SuiteRequest request;
    request.model = "scc";
    request.axiom = "sc";
    request.maxSize = 5;
    request.options.minSize = 3;
    request.options.canon = litmus::CanonMode::Off;
    request.options.jobs = 4;
    request.options.symmetryBreaking = false;
    request.options.simplify = false;
    request.options.maxTestsPerSize = 17;

    synth::SuiteRequest back =
        synth::parseSuiteRequest(synth::serializeSuiteRequest(request));
    EXPECT_EQ(back.model, request.model);
    EXPECT_EQ(back.axiom, request.axiom);
    EXPECT_EQ(back.maxSize, request.maxSize);
    EXPECT_EQ(back.options.minSize, request.options.minSize);
    EXPECT_EQ(back.options.canon, request.options.canon);
    EXPECT_EQ(back.options.jobs, request.options.jobs);
    EXPECT_EQ(back.options.symmetryBreaking,
              request.options.symmetryBreaking);
    EXPECT_EQ(back.options.simplify, request.options.simplify);
    EXPECT_EQ(back.options.maxTestsPerSize, request.options.maxTestsPerSize);
}

TEST_F(ServiceTest, RequestPayloadRejectsOutOfRangeSizes)
{
    // Sizes arrive from the wire and set a request's cost: negative,
    // inverted and beyond-the-paper (> 7) bounds are refused at parse.
    auto payload = [](int min_size, int max_size) {
        synth::SuiteRequest request;
        request.model = "sc";
        request.maxSize = max_size;
        request.options.minSize = min_size;
        return synth::serializeSuiteRequest(request);
    };
    EXPECT_NO_THROW(synth::parseSuiteRequest(payload(2, 7)));
    EXPECT_NO_THROW(synth::parseSuiteRequest(payload(0, 0)));
    EXPECT_THROW(synth::parseSuiteRequest(payload(-1, 3)),
                 std::runtime_error);
    EXPECT_THROW(synth::parseSuiteRequest(payload(4, 3)),
                 std::runtime_error);
    EXPECT_THROW(synth::parseSuiteRequest(payload(2, 8)),
                 std::runtime_error);
    // So is a canon value outside paper|exact|off, rather than read as
    // paper.
    std::string bogus = payload(2, 4);
    bogus.replace(bogus.find("canon paper"), 11, "canon bogus");
    EXPECT_THROW(synth::parseSuiteRequest(bogus), std::runtime_error);
}

TEST_F(ServiceTest, ResultPayloadRoundTrips)
{
    synth::SuiteRequest request;
    request.model = "sc";
    request.maxSize = 3;

    synth::Service service(storeConfig());
    synth::SuiteResult result = service.query(request);

    synth::SuiteResult back =
        synth::parseSuiteResult(synth::serializeSuiteResult(result));
    EXPECT_EQ(back.suiteDigest, result.suiteDigest);
    EXPECT_EQ(back.modelDigest, result.modelDigest);
    EXPECT_EQ(back.optionsDigest, result.optionsDigest);
    EXPECT_EQ(back.cache, result.cache);
    EXPECT_EQ(back.shardsCached, result.shardsCached);
    EXPECT_EQ(back.shardsSynthesized, result.shardsSynthesized);
    EXPECT_EQ(back.progress.jobsQueued, result.progress.jobsQueued);
    EXPECT_EQ(back.progress.conflicts, result.progress.conflicts);
    EXPECT_EQ(back.progress.instances, result.progress.instances);
    EXPECT_EQ(back.progress.subsumedClauses,
              result.progress.subsumedClauses);
    ASSERT_EQ(back.shards.size(), result.shards.size());
    for (size_t i = 0; i < back.shards.size(); i++) {
        EXPECT_EQ(back.shards[i].axiom, result.shards[i].axiom);
        EXPECT_EQ(back.shards[i].size, result.shards[i].size);
        EXPECT_EQ(back.shards[i].cached, result.shards[i].cached);
        EXPECT_EQ(back.shards[i].tests, result.shards[i].tests);
    }
    ASSERT_EQ(back.suites.size(), result.suites.size());
    for (size_t i = 0; i < back.suites.size(); i++)
        expectSameTests(back.suites[i], result.suites[i]);
    // Round-tripped bytes digest to the same suite digest.
    EXPECT_EQ(litmus::suiteDigest(back.unionSuite().tests),
              result.suiteDigest);
}

} // namespace
