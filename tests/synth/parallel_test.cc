/**
 * @file
 * Parallel-engine tests: the sharded synthesizer must produce
 * byte-identical suites regardless of the job count (the deterministic
 * merge guarantee), and unionSuites must store canonicalized, renamed
 * tests (regression for the dedup-key/raw-test mismatch).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "litmus/canon.hh"
#include "litmus/test.hh"
#include "mm/registry.hh"
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
    auto tso = mm::makeModel("tso");
    SynthProgress progress;
    SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 3;
    opt.jobs = 4;
    opt.progress = &progress;
    auto suites = synthesizeAll(*tso, opt);
    // Incremental engine: one shared-solver job per size.
    EXPECT_EQ(progress.jobsQueued.load(), 2u);
    EXPECT_EQ(progress.jobsDone.load(), 2u);
    EXPECT_EQ(progress.jobsRunning.load(), 0u);
    uint64_t raw = 0;
    for (const auto &s : suites) {
        if (s.axiom != "union")
            raw += s.rawInstances;
    }
    EXPECT_EQ(progress.instances.load(), raw);

    // The job count follows the sizes swept, not the axioms: one axiom
    // still costs one job per size, and a single size-3 SizeJob
    // carrying every axiom queues exactly one job.
    SynthProgress one_axiom;
    opt.progress = &one_axiom;
    synthesizeAxiom(*tso, "causality", opt);
    EXPECT_EQ(one_axiom.jobsQueued.load(), 2u);
    EXPECT_EQ(one_axiom.jobsDone.load(), 2u);

    SynthProgress one_size;
    opt.progress = &one_size;
    std::vector<SizeJob> jobs(1);
    jobs[0].size = 3;
    for (const auto &axiom : tso->axioms())
        jobs[0].tracks.push_back(axiomTrack(*tso, axiom.name));
    runSizeJobs(*tso, jobs, opt);
    EXPECT_EQ(jobs[0].shards.size(), tso->axioms().size());
    EXPECT_EQ(one_size.jobsQueued.load(), 1u);
    EXPECT_EQ(one_size.jobsDone.load(), 1u);
    EXPECT_EQ(one_size.jobsRunning.load(), 0u);
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
