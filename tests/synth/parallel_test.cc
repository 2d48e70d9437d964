/**
 * @file
 * Parallel-engine tests: the sharded synthesizer must produce
 * byte-identical suites regardless of the job count (the deterministic
 * merge guarantee), the runner's counters and worker cap, and
 * unionSuites must store canonicalized, renamed tests (regression for
 * the dedup-key/raw-test mismatch).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "litmus/canon.hh"
#include "litmus/test.hh"
#include "mm/registry.hh"
#include "synth/minimality.hh"
#include "synth/synthesizer.hh"

namespace lts::synth
{
namespace
{

using litmus::LitmusTest;
using litmus::TestBuilder;

/** Everything observable about a suite vector except timings. */
std::string
serializeSuites(const std::vector<Suite> &suites)
{
    std::string s;
    for (const auto &suite : suites) {
        s += suite.model + "/" + suite.axiom + " raw=" +
             std::to_string(suite.rawInstances) +
             (suite.truncated ? " truncated" : "") + "\n";
        for (auto [size, count] : suite.testsBySize)
            s += "  n=" + std::to_string(size) + ": " +
                 std::to_string(count) + "\n";
        for (const auto &t : suite.tests)
            s += t.name + "\n" + litmus::fullSerialize(t) + "\n";
    }
    return s;
}

TEST(ParallelSynthesisTest, JobCountDoesNotChangeOutput)
{
    for (const char *name : {"tso", "sc"}) {
        auto model = mm::makeModel(name);
        SynthOptions serial;
        serial.minSize = 2;
        serial.maxSize = 4;
        serial.jobs = 1;
        SynthOptions parallel = serial;
        parallel.jobs = 4;

        auto a = synthesizeAll(*model, serial);
        auto b = synthesizeAll(*model, parallel);
        EXPECT_EQ(serializeSuites(a), serializeSuites(b)) << name;
    }
}

TEST(ParallelSynthesisTest, SingleAxiomJobCountDoesNotChangeOutput)
{
    auto tso = mm::makeModel("tso");
    SynthOptions serial;
    serial.minSize = 2;
    serial.maxSize = 4;
    serial.jobs = 1;
    SynthOptions parallel = serial;
    parallel.jobs = 3;
    Suite a = synthesizeAxiom(*tso, "causality", serial);
    Suite b = synthesizeAxiom(*tso, "causality", parallel);
    EXPECT_EQ(serializeSuites({a}), serializeSuites({b}));
}

TEST(ParallelSynthesisTest, ProgressCountersCoverEveryJob)
{
    // runSizeJobs returns the sum of its jobs' counters: one job per
    // size, each job's instances its shards' raw instances.
    auto tso = mm::makeModel("tso");
    SynthOptions opt;
    opt.jobs = 4;
    std::vector<SizeJob> jobs(2);
    for (int i = 0; i < 2; i++) {
        jobs[i].size = 2 + i;
        for (const auto &axiom : tso->axioms())
            jobs[i].tracks.push_back(axiomTrack(*tso, axiom.name));
    }
    SynthProgressSnapshot counters = runSizeJobs(*tso, jobs, opt);
    EXPECT_EQ(counters.jobsQueued, 2u);
    uint64_t raw = 0;
    for (const SizeJob &job : jobs) {
        EXPECT_EQ(job.shards.size(), tso->axioms().size());
        for (const ShardResult &shard : job.shards)
            raw += shard.rawInstances;
    }
    EXPECT_GT(raw, 0u);
    EXPECT_EQ(counters.instances, raw);
    EXPECT_GT(counters.conflicts, 0u);

    // The same sizes through synthesizeAll enumerate the same models.
    opt.minSize = 2;
    opt.maxSize = 3;
    uint64_t suite_raw = 0;
    for (const auto &s : synthesizeAll(*tso, opt)) {
        if (s.axiom != "union")
            suite_raw += s.rawInstances;
    }
    EXPECT_EQ(suite_raw, raw);

    // A single size-3 SizeJob carrying every axiom counts one job.
    std::vector<SizeJob> one_size(1);
    one_size[0].size = 3;
    one_size[0].tracks = jobs[1].tracks;
    EXPECT_EQ(runSizeJobs(*tso, one_size, opt).jobsQueued, 1u);
    EXPECT_EQ(one_size[0].shards.size(), tso->axioms().size());
}

/** The "Threads:" count of /proc/self/status, or 0 if unreadable. */
int
osThreadCount()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return std::atoi(line.c_str() + 8);
    }
    return 0;
}

TEST(ParallelSynthesisTest, PoolStartsAtMostOneWorkerPerJob)
{
    // A wire request can ask for any job count; the pool must not start
    // more workers than there are size jobs to run.
    int baseline = osThreadCount();
    ASSERT_GT(baseline, 0);
    auto tso = mm::makeModel("tso");
    const std::string axiom = tso->axioms().front().name;
    std::mutex mu;
    int seen = 0;
    Track probe{axiom, [&](size_t n) {
                    std::lock_guard<std::mutex> lock(mu);
                    seen = std::max(seen, osThreadCount());
                    return axiomViolation(*tso, axiom, n);
                }};
    std::vector<SizeJob> jobs(2);
    jobs[0].size = 2;
    jobs[1].size = 3;
    jobs[0].tracks = jobs[1].tracks = {probe};
    SynthOptions opt;
    opt.jobs = 64;
    runSizeJobs(*tso, jobs, opt);
    EXPECT_GT(seen, 0);
    EXPECT_LE(seen, baseline + 2);
}

/** Hand-built MP (the Table 4 shape) for the union regression tests. */
LitmusTest
mpTest()
{
    TestBuilder b;
    int t0 = b.newThread();
    b.write(t0, "x");
    int wf = b.write(t0, "y");
    int t1 = b.newThread();
    int rf = b.read(t1, "y");
    int rd = b.read(t1, "x");
    b.readsFrom(wf, rf);
    b.readsInitial(rd);
    return b.build("MP");
}

TEST(UnionSuitesTest, StoresCanonicalFormAndRenumbers)
{
    LitmusTest mp = mpTest();
    // The same test under a thread swap: identical symmetry class,
    // different serialization. At most one of the two is canonical.
    LitmusTest swapped = litmus::permuteThreads(mp, {1, 0});
    ASSERT_NE(litmus::staticSerialize(mp), litmus::staticSerialize(swapped));

    Suite a;
    a.model = "tso";
    a.axiom = "causality";
    mp.name = "tso/causality#0";
    a.tests.push_back(mp);

    Suite b;
    b.model = "tso";
    b.axiom = "other";
    swapped.name = "tso/other#0";
    b.tests.push_back(swapped);

    SynthOptions opt; // useCanon = true, paper mode
    Suite u = unionSuites({a, b}, opt);

    // The symmetric copies merge, the stored test is the canonical
    // representative, and members are renamed into the union namespace.
    ASSERT_EQ(u.tests.size(), 1u);
    LitmusTest canon = litmus::canonicalize(mpTest(),
                                            litmus::CanonMode::Paper);
    EXPECT_EQ(litmus::staticSerialize(u.tests[0]),
              litmus::staticSerialize(canon));
    EXPECT_EQ(u.tests[0].name, "tso/union#0");
    EXPECT_EQ(u.testsBySize[4], 1);
}

TEST(UnionSuitesTest, RenumbersSequentiallyAcrossSuites)
{
    auto tso = mm::makeModel("tso");
    SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 4;
    auto suites = synthesizeAll(*tso, opt);
    const Suite &u = suites.back();
    ASSERT_FALSE(u.tests.empty());
    for (size_t i = 0; i < u.tests.size(); i++) {
        EXPECT_EQ(u.tests[i].name,
                  "tso/union#" + std::to_string(i));
        // Union members are stored canonically: canonicalizing again is
        // a no-op on the serialized form.
        EXPECT_EQ(litmus::staticSerialize(u.tests[i]),
                  litmus::staticSerialize(litmus::canonicalize(
                      u.tests[i], opt.canonMode)));
    }
}

} // namespace
} // namespace lts::synth
