/**
 * @file
 * Suite-equivalence tests for formula simplification: synthesized
 * suites must be byte-identical with the pass on or off and at any
 * worker count — simplification may only change search effort, never
 * what is emitted. This pins the determinism contract registry-wide, the
 * library-level counterpart of the CI bench-smoke digest assertions.
 */

#include <gtest/gtest.h>

#include "litmus/canon.hh"
#include "mm/registry.hh"
#include "synth/options.hh"
#include "synth/synthesizer.hh"

namespace lts::synth
{
namespace
{

/** Axiom names plus every test's serialization — no effort counters. */
std::string
suiteKey(const std::vector<Suite> &suites)
{
    std::string key;
    for (const Suite &suite : suites) {
        key += suite.model + "/" + suite.axiom + "\n";
        for (const auto &test : suite.tests)
            key += litmus::fullSerialize(test) + "\n";
    }
    return key;
}

std::string
run(const mm::Model &model, SynthOptions opt, bool simplify, int jobs)
{
    opt.simplify = simplify;
    opt.jobs = jobs;
    return suiteKey(synthesizeAll(model, opt));
}

void
checkModel(const std::string &name, int max_size)
{
    auto model = mm::makeModel(name);
    SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = max_size;

    // Reference: simplify on, serial (the library default).
    std::string reference = run(*model, opt, true, 1);

    EXPECT_EQ(reference, run(*model, opt, false, 1))
        << name << ": simplify off changed the suite";
    EXPECT_EQ(reference, run(*model, opt, true, 4))
        << name << ": parallel suite differs with simplify on";
    EXPECT_EQ(reference, run(*model, opt, false, 4))
        << name << ": parallel suite differs with simplify off";
}

TEST(SimplifyIdentityTest, TsoSuitesIdenticalAcrossAllModes)
{
    checkModel("tso", 4);
}

TEST(SimplifyIdentityTest, ScSuitesIdenticalAcrossAllModes)
{
    checkModel("sc", 4);
}

TEST(SimplifyIdentityTest, RegistryWideSuitesIdenticalAcrossAllModes)
{
    // Every registered model at the largest size that keeps this a unit
    // test; TSO/SC run a size bigger above.
    for (const std::string &name : mm::modelNames())
        checkModel(name, 3);
}

TEST(SimplifyIdentityTest, SimplifyActuallyEliminatesVariables)
{
    // The identity tests pass trivially if the pass never installs;
    // pin that synthesis actually runs it and it actually bites.
    auto tso = mm::makeModel("tso");
    std::vector<SizeJob> jobs(3);
    for (int i = 0; i < 3; i++) {
        jobs[i].size = 2 + i;
        for (const auto &axiom : tso->axioms())
            jobs[i].tracks.push_back(axiomTrack(*tso, axiom.name));
    }
    EXPECT_GT(runSizeJobs(*tso, jobs, SynthOptions()).eliminatedVars, 0u);
}

} // namespace
} // namespace lts::synth
