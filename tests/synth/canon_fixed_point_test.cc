/**
 * @file
 * Paper-mode canonicalize returns a test that permuteThreads would give
 * back unchanged as it is, without remapping it. These tests pin what
 * that fast path relies on, registry-wide at sizes 2-4 (power and sscc
 * 2-3, whose size-4 runs are far slower): every test of every per-axiom
 * suite is a fixed point of canonicalize in both modes, so assembling
 * the union copies no permutation; and on every thread permutation of
 * those tests, the fast path gives the test the remapping path gives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "litmus/canon.hh"
#include "mm/registry.hh"
#include "synth/synthesizer.hh"

namespace lts::synth
{
namespace
{

using litmus::CanonMode;
using litmus::Event;
using litmus::LitmusTest;

/** Equal in every field, event fields included. */
::testing::AssertionResult
sameFields(const LitmusTest &a, const LitmusTest &b)
{
    bool same = a.name == b.name && a.numThreads == b.numThreads &&
                a.numLocs == b.numLocs && a.threadWg == b.threadWg &&
                a.addrDep == b.addrDep && a.dataDep == b.dataDep &&
                a.ctrlDep == b.ctrlDep && a.rmw == b.rmw &&
                a.forbidden == b.forbidden &&
                a.hasForbidden == b.hasForbidden &&
                a.events.size() == b.events.size();
    for (size_t i = 0; same && i < a.events.size(); i++) {
        const Event &x = a.events[i];
        const Event &y = b.events[i];
        same = x.id == y.id && x.tid == y.tid && x.type == y.type &&
               x.loc == y.loc && x.order == y.order && x.scope == y.scope;
    }
    if (same)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << litmus::fullSerialize(a) << " vs " << litmus::fullSerialize(b);
}

/**
 * Copies of @p test that canonicalize to what it does but are no fixed
 * point of permuteThreads, so they take the remapping path. One has
 * explicit workgroup labels the remap renumbers back (identity labels
 * when no group is shared, every label shifted by one otherwise); the
 * other, when the test uses two locations or more, has its locations
 * numbered in reverse, which the remap renames by first use. Thread
 * signatures see neither, so the thread order stays the same.
 */
std::vector<LitmusTest>
offFixedPoints(const LitmusTest &test)
{
    std::vector<LitmusTest> out(1, test);
    LitmusTest &groups = out.back();
    if (groups.hasWorkgroups()) {
        for (int &wg : groups.threadWg)
            wg++;
    } else {
        groups.threadWg.resize(static_cast<size_t>(groups.numThreads));
        std::iota(groups.threadWg.begin(), groups.threadWg.end(), 0);
    }
    if (test.numLocs >= 2) {
        LitmusTest &locs = out.emplace_back(test);
        for (Event &e : locs.events) {
            if (e.isMemory())
                e.loc = locs.numLocs - 1 - e.loc;
        }
    }
    return out;
}

/** The per-axiom suites of every registry model, synthesized in @p mode. */
std::vector<Suite>
registrySuites(CanonMode mode)
{
    std::vector<Suite> out;
    for (const std::string &name : mm::modelNames()) {
        auto model = mm::makeModel(name);
        SynthOptions options;
        options.maxSize = name == "power" || name == "sscc" ? 3 : 4;
        options.canon = mode;
        options.jobs = 0;
        std::vector<Suite> suites = synthesizeAll(*model, options);
        suites.pop_back(); // the union
        for (Suite &suite : suites)
            out.push_back(std::move(suite));
    }
    return out;
}

TEST(CanonFixedPointTest, PerAxiomSuitesAreExactFixedPoints)
{
    size_t tests = 0;
    for (const Suite &suite : registrySuites(CanonMode::Exact)) {
        for (const LitmusTest &test : suite.tests) {
            EXPECT_TRUE(sameFields(
                litmus::canonicalize(test, CanonMode::Exact), test))
                << test.name;
            tests++;
        }
    }
    EXPECT_GT(tests, 3000u);
}

TEST(CanonFixedPointTest, PaperFastPathMatchesRemapOnEveryPermutation)
{
    size_t tests = 0, permutations = 0;
    for (const Suite &suite : registrySuites(CanonMode::Paper)) {
        for (const LitmusTest &test : suite.tests) {
            // Every per-axiom test comes back as it is, which is what
            // permuteThreads gives at the identity order.
            std::vector<int> order(static_cast<size_t>(test.numThreads));
            std::iota(order.begin(), order.end(), 0);
            LitmusTest canon = litmus::canonicalize(test, CanonMode::Paper);
            EXPECT_TRUE(sameFields(canon, test)) << test.name;
            EXPECT_TRUE(sameFields(canon, litmus::permuteThreads(test, order)))
                << test.name;
            tests++;
            do {
                LitmusTest permuted = litmus::permuteThreads(test, order);
                LitmusTest fast =
                    litmus::canonicalize(permuted, CanonMode::Paper);
                for (const LitmusTest &off : offFixedPoints(permuted)) {
                    EXPECT_TRUE(sameFields(
                        fast, litmus::canonicalize(off, CanonMode::Paper)))
                        << test.name;
                }
                permutations++;
            } while (std::next_permutation(order.begin(), order.end()));
        }
    }
    EXPECT_GT(tests, 3000u);
    EXPECT_GT(permutations, tests);
}

} // namespace
} // namespace lts::synth
