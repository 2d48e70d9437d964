/**
 * @file
 * End-to-end integration tests tying the whole pipeline together:
 *
 *  - axiomatic-vs-operational: on every synthesized TSO test (and on the
 *    Owens baseline) the store-buffer machine's outcome set must equal
 *    the axiomatic model's legal set, and the declared forbidden outcome
 *    must be unobservable;
 *  - one-instruction-weakened variants of synthesized tests must expose
 *    the forbidden outcome operationally (the minimality promise made
 *    executable);
 *  - the full synthesize -> canonicalize -> audit -> compare loop.
 */

#include <gtest/gtest.h>

#include <set>

#include "litmus/print.hh"
#include "mm/registry.hh"
#include "sim/opsim.hh"
#include "suites/owens.hh"
#include "synth/compare.hh"
#include "synth/executor.hh"
#include "synth/minimality.hh"
#include "synth/synthesizer.hh"

namespace lts
{
namespace
{

using litmus::LitmusTest;
using litmus::Outcome;

/** Axiomatic legal outcomes as operational-style signatures. */
std::set<sim::Signature>
axiomaticSignatures(const mm::Model &model, const LitmusTest &test)
{
    std::set<sim::Signature> out;
    for (const auto &o : synth::legalOutcomes(model, test))
        out.insert(sim::observableSignature(test, o));
    return out;
}

TEST(PipelineTest, AxiomaticTsoEqualsStoreBufferMachineOnSynthesizedTests)
{
    auto tso = mm::makeModel("tso");
    synth::SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 4;
    auto suites = synth::synthesizeAll(*tso, opt);
    const synth::Suite &u = suites.back();
    ASSERT_FALSE(u.tests.empty());
    for (const auto &t : u.tests) {
        auto ax = axiomaticSignatures(*tso, t);
        auto op = sim::tsoOutcomes(t);
        EXPECT_EQ(ax, op) << litmus::toString(t);
        // The forbidden outcome must not be observable either way.
        auto forbidden = sim::observableSignature(t, t.forbidden);
        EXPECT_FALSE(op.count(forbidden)) << litmus::toString(t);
    }
}

TEST(PipelineTest, AxiomaticTsoEqualsStoreBufferMachineOnOwens)
{
    auto tso = mm::makeModel("tso");
    for (const auto &e : suites::owensSuite()) {
        auto ax = axiomaticSignatures(*tso, e.test);
        auto op = sim::tsoOutcomes(e.test);
        EXPECT_EQ(ax, op) << e.test.name;
        auto outcome = sim::observableSignature(e.test, e.test.forbidden);
        EXPECT_EQ(op.count(outcome) > 0, !e.expectForbidden) << e.test.name;
    }
}

TEST(PipelineTest, AxiomaticScEqualsInterleavingMachineOnSynthesizedTests)
{
    auto sc = mm::makeModel("sc");
    synth::SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 4;
    auto suites_list = synth::synthesizeAll(*sc, opt);
    for (const auto &t : suites_list.back().tests) {
        auto ax = axiomaticSignatures(*sc, t);
        auto op = sim::scOutcomes(t);
        EXPECT_EQ(ax, op) << litmus::toString(t);
    }
}

/** Weaken test by deleting event @p victim (the RI relaxation). */
LitmusTest
removeEvent(const LitmusTest &test, int victim)
{
    litmus::TestBuilder b;
    for (int t = 0; t < test.numThreads; t++)
        b.newThread();
    std::vector<int> remap(test.size(), -1);
    for (size_t i = 0; i < test.size(); i++) {
        if (static_cast<int>(i) == victim)
            continue;
        const auto &e = test.events[i];
        std::string loc = "m";
        loc += std::to_string(e.loc);
        switch (e.type) {
          case litmus::EventType::Read:
            remap[i] = b.read(e.tid, loc, e.order);
            break;
          case litmus::EventType::Write:
            remap[i] = b.write(e.tid, loc, e.order);
            break;
          case litmus::EventType::Fence:
            remap[i] = b.fence(e.tid, e.order);
            break;
        }
    }
    LitmusTest out = b.build(test.name + "-RI" + std::to_string(victim));
    // Threads may have become empty; rebuild thread numbering by
    // revalidating (TestBuilder produced contiguous blocks already).
    return out;
}

TEST(PipelineTest, WeakenedTsoTestsExposeTheirOutcomeOperationally)
{
    // For each synthesized fence-free TSO causality test: deleting any
    // single instruction must make *some part* of the forbidden outcome
    // observable on the store-buffer machine. We check the projection
    // restricted to surviving reads and locations, mirroring Figure 3.
    auto tso = mm::makeModel("tso");
    synth::SynthOptions opt;
    opt.minSize = 4;
    opt.maxSize = 4;
    synth::Suite suite = synth::synthesizeAxiom(*tso, "causality", opt);
    for (const auto &t : suite.tests) {
        auto forbidden_sig = sim::observableSignature(t, t.forbidden);
        ASSERT_FALSE(sim::tsoOutcomes(t).count(forbidden_sig));
        for (size_t victim = 0; victim < t.size(); victim++) {
            LitmusTest weak = removeEvent(t, static_cast<int>(victim));
            if (weak.numThreads != t.numThreads)
                continue; // removing a whole thread changes projections
            auto outcomes = sim::tsoOutcomes(weak);
            // Project the forbidden signature onto surviving reads only;
            // writes' values may differ after removal, so compare only
            // the "reads initial vs reads something" skeleton.
            bool witnessed = false;
            for (const auto &sig : outcomes) {
                bool compatible = true;
                for (size_t i = 0, j = 0; i < t.size(); i++) {
                    if (static_cast<int>(i) == static_cast<int>(victim))
                        continue;
                    const auto &e = t.events[i];
                    size_t weak_id = j++;
                    if (!e.isRead())
                        continue;
                    // A read whose sourcing store was removed is left
                    // unconstrained (Figure 3d): any value matches.
                    if (t.forbidden.rf.test(victim, i))
                        continue;
                    bool was_zero = forbidden_sig[i] == 0;
                    bool is_zero = sig[weak_id] == 0;
                    if (was_zero != is_zero)
                        compatible = false;
                }
                if (compatible)
                    witnessed = true;
            }
            EXPECT_TRUE(witnessed)
                << litmus::toString(t) << " victim " << victim;
        }
    }
}

TEST(PipelineTest, Table4ContainmentHoldsEndToEnd)
{
    // Synthesize the TSO union through size 6 and check the paper's
    // claim: every forbidden Owens test is either in the suite or
    // contains a suite test (Table 4).
    auto tso = mm::makeModel("tso");
    synth::SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 6;
    auto suites_list = synth::synthesizeAll(*tso, opt);
    const synth::Suite &u = suites_list.back();

    auto results =
        synth::compareSuites(suites::owensForbidden(), u.tests);
    for (const auto &r : results) {
        // Tests longer than the synthesis bound can only be subsumed.
        EXPECT_TRUE(r.subsumed) << r.baselineName;
    }
    // And the Table 4 split: exactly the "Both" tests of size <= 6 are
    // present verbatim.
    std::set<std::string> in_suite;
    for (const auto &r : results) {
        if (r.inSuite)
            in_suite.insert(r.baselineName);
    }
    std::set<std::string> expected = {
        "MP", "LB", "S", "2+2W", "amd5/SB+mfences", "amd6/IRIW",
        "n4/R+mfence", "iwp2.8.a/WRC", "RWC+mfence",
    };
    EXPECT_EQ(in_suite, expected);
}

TEST(PipelineTest, SccRoundTripThroughAudit)
{
    auto scc = mm::makeModel("scc");
    synth::SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 3;
    auto suites_list = synth::synthesizeAll(*scc, opt);
    for (const auto &t : suites_list.back().tests) {
        EXPECT_FALSE(synth::minimalAxioms(*scc, t).empty())
            << litmus::toString(t);
    }
}

} // namespace
} // namespace lts
