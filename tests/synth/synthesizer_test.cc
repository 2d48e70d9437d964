/**
 * @file
 * Synthesizer tests: the headline results of Section 6.
 *
 * The TSO size-4 causality suite must be exactly {MP, LB, S, 2+2W}
 * (Table 4's "Both" row); the coherence and rmw suites must saturate;
 * SAT and explicit engines must agree on every model at small bounds;
 * the WWC symmetry miss must show up under the paper-mode canonicalizer
 * and disappear in exact mode.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "litmus/canon.hh"
#include "litmus/print.hh"
#include "mm/registry.hh"
#include "synth/compare.hh"
#include "synth/explicit.hh"
#include "synth/minimality.hh"
#include "synth/synthesizer.hh"

namespace lts::synth
{
namespace
{

using litmus::CanonMode;
using litmus::LitmusTest;
using litmus::TestBuilder;

std::set<std::string>
canonKeys(const std::vector<LitmusTest> &tests)
{
    std::set<std::string> out;
    for (const auto &t : tests) {
        out.insert(litmus::staticSerialize(
            litmus::canonicalize(t, CanonMode::Exact)));
    }
    return out;
}

TEST(SynthesizerTest, TsoCausalitySize4IsExactlyTheTable4Core)
{
    auto tso = mm::makeModel("tso");
    SynthOptions opt;
    opt.minSize = 4;
    opt.maxSize = 4;
    Suite suite = synthesizeAxiom(*tso, "causality", opt);
    EXPECT_EQ(suite.tests.size(), 4u);

    // Build the four named tests and compare canonically.
    std::vector<LitmusTest> expected;
    {
        TestBuilder b; // MP
        int t0 = b.newThread();
        b.write(t0, "x");
        int wf = b.write(t0, "y");
        int t1 = b.newThread();
        int rf = b.read(t1, "y");
        int rd = b.read(t1, "x");
        b.readsFrom(wf, rf);
        b.readsInitial(rd);
        expected.push_back(b.build("MP"));
    }
    {
        TestBuilder b; // LB
        int t0 = b.newThread();
        int r0 = b.read(t0, "x");
        int w0 = b.write(t0, "y");
        int t1 = b.newThread();
        int r1 = b.read(t1, "y");
        int w1 = b.write(t1, "x");
        b.readsFrom(w1, r0);
        b.readsFrom(w0, r1);
        expected.push_back(b.build("LB"));
    }
    {
        TestBuilder b; // S
        int t0 = b.newThread();
        int wx2 = b.write(t0, "x");
        int wy = b.write(t0, "y");
        int t1 = b.newThread();
        int ry = b.read(t1, "y");
        int wx1 = b.write(t1, "x");
        b.readsFrom(wy, ry);
        b.coOrder(wx1, wx2);
        expected.push_back(b.build("S"));
    }
    {
        TestBuilder b; // 2+2W
        int t0 = b.newThread();
        int wx1 = b.write(t0, "x");
        int wy2 = b.write(t0, "y");
        int t1 = b.newThread();
        int wy1 = b.write(t1, "y");
        int wx2 = b.write(t1, "x");
        b.coOrder(wx2, wx1);
        b.coOrder(wy2, wy1);
        expected.push_back(b.build("2+2W"));
    }
    EXPECT_EQ(canonKeys(suite.tests), canonKeys(expected));
}

TEST(SynthesizerTest, TsoCoherenceSuiteSaturates)
{
    auto tso = mm::makeModel("tso");
    SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 5;
    Suite suite = synthesizeAxiom(*tso, "sc_per_loc", opt);
    // Everything arrives by size 3; sizes 4 and 5 add nothing.
    EXPECT_GT(suite.testsBySize[2], 0);
    EXPECT_GT(suite.testsBySize[3], 0);
    EXPECT_EQ(suite.testsBySize[4], 0);
    EXPECT_EQ(suite.testsBySize[5], 0);
    EXPECT_EQ(suite.tests.size(), 5u);
}

TEST(SynthesizerTest, TsoRmwAtomicitySuiteSaturates)
{
    auto tso = mm::makeModel("tso");
    SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 5;
    Suite suite = synthesizeAxiom(*tso, "rmw_atomicity", opt);
    EXPECT_EQ(suite.tests.size(), 1u);
    EXPECT_EQ(suite.testsBySize[3], 1);
    EXPECT_EQ(suite.testsBySize[4], 0);
    EXPECT_EQ(suite.testsBySize[5], 0);
    // The one test is the RMW-with-intervening-store shape (Figure 12
    // family): an rmw pair plus a remote store.
    const LitmusTest &t = suite.tests[0];
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.rmw.count(), 1u);
}

TEST(SynthesizerTest, SbIsAbsentFromTsoSuites)
{
    // SB's interesting outcome is allowed under TSO, so no TSO suite may
    // contain the fence-free SB.
    auto tso = mm::makeModel("tso");
    SynthOptions opt;
    opt.minSize = 4;
    opt.maxSize = 4;
    TestBuilder b;
    int t0 = b.newThread();
    b.write(t0, "x");
    int r0 = b.read(t0, "y");
    int t1 = b.newThread();
    b.write(t1, "y");
    int r1 = b.read(t1, "x");
    b.readsInitial(r0);
    b.readsInitial(r1);
    std::string sb_key = litmus::staticSerialize(
        litmus::canonicalize(b.build("SB"), CanonMode::Exact));

    for (const auto &axiom : {"sc_per_loc", "rmw_atomicity", "causality"}) {
        Suite suite = synthesizeAxiom(*tso, axiom, opt);
        EXPECT_FALSE(canonKeys(suite.tests).count(sb_key)) << axiom;
    }
}

TEST(SynthesizerTest, UnionDeduplicatesAcrossAxioms)
{
    auto tso = mm::makeModel("tso");
    SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 4;
    auto suites = synthesizeAll(*tso, opt);
    ASSERT_EQ(suites.size(), 4u); // 3 axioms + union
    const Suite &u = suites.back();
    EXPECT_EQ(u.axiom, "union");
    size_t sum = 0;
    for (size_t i = 0; i + 1 < suites.size(); i++)
        sum += suites[i].tests.size();
    // Overlap (Section 5.2): the union is strictly smaller than the sum.
    EXPECT_LT(u.tests.size(), sum);
    EXPECT_GE(u.tests.size(), suites[0].tests.size());
    // And the union equals the set-union of the parts.
    std::set<std::string> expect;
    for (size_t i = 0; i + 1 < suites.size(); i++) {
        auto keys = canonKeys(suites[i].tests);
        expect.insert(keys.begin(), keys.end());
    }
    EXPECT_EQ(canonKeys(u.tests), expect);
}

TEST(SynthesizerTest, EverySynthesizedTestAuditsAsMinimal)
{
    auto tso = mm::makeModel("tso");
    SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 4;
    for (const auto &axiom : {"sc_per_loc", "causality"}) {
        Suite suite = synthesizeAxiom(*tso, axiom, opt);
        for (const auto &t : suite.tests) {
            auto axioms = minimalAxioms(*tso, t);
            EXPECT_TRUE(std::find(axioms.begin(), axioms.end(), axiom) !=
                        axioms.end())
                << litmus::toString(t);
        }
    }
}

TEST(SynthesizerTest, ConflictBudgetTruncates)
{
    auto tso = mm::makeModel("tso");
    SynthOptions opt;
    opt.minSize = 4;
    opt.maxSize = 4;
    opt.conflictBudget = 1;
    Suite suite = synthesizeAxiom(*tso, "causality", opt);
    EXPECT_TRUE(suite.truncated);
}

TEST(SynthesizerTest, BudgetCutShardsAreTruncatedOrExact)
{
    // A budget can run out inside a witness's lex walk as well as in an
    // enumeration solve. A cut walk step proves nothing about its cell,
    // so it must truncate the shard rather than settle the cell and emit
    // a non-minimal witness: under a budget, a shard not flagged
    // truncated holds exactly the tests of the unbudgeted run. The
    // budgets stride past the conflicts of scc's size-3 tracks.
    auto scc = mm::makeModel("scc");
    auto run = [&](uint64_t budget) {
        std::vector<SizeJob> jobs(1);
        jobs[0].size = 3;
        for (const mm::Axiom &axiom : scc->axioms())
            jobs[0].tracks.push_back(axiomTrack(*scc, axiom.name));
        SynthOptions opt;
        opt.jobs = 1;
        opt.conflictBudget = budget;
        runSizeJobs(*scc, jobs, opt);
        std::vector<std::vector<std::string>> out;
        std::vector<bool> truncated;
        for (const ShardResult &shard : jobs[0].shards) {
            out.emplace_back();
            for (const LitmusTest &t : shard.tests)
                out.back().push_back(litmus::fullSerialize(t));
            truncated.push_back(shard.truncated);
        }
        return std::make_pair(out, truncated);
    };
    auto [full, full_truncated] = run(0);
    ASSERT_FALSE(full.empty());
    size_t cut = 0;
    for (uint64_t budget = 1; budget <= 120; budget += 7) {
        auto [tests, truncated] = run(budget);
        ASSERT_EQ(tests.size(), full.size());
        for (size_t i = 0; i < tests.size(); i++) {
            ASSERT_FALSE(full_truncated[i]);
            if (truncated[i]) {
                cut++;
                continue;
            }
            EXPECT_EQ(tests[i], full[i])
                << "shard " << i << ", budget " << budget;
        }
    }
    EXPECT_GT(cut, 0u);
}

TEST(SynthesizerTest, MaxTestsPerSizeCaps)
{
    auto tso = mm::makeModel("tso");
    SynthOptions opt;
    opt.minSize = 4;
    opt.maxSize = 4;
    opt.maxTestsPerSize = 2;
    Suite suite = synthesizeAxiom(*tso, "causality", opt);
    EXPECT_TRUE(suite.truncated);
    EXPECT_EQ(suite.tests.size(), 2u);
}

// The model name is a std::string, not a const char *: gtest prints a
// char pointer's address, which ASLR changes on every run, so a pointer
// parameter would give the discovered ctest names a different value each
// build.
class CrossEngineTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(CrossEngineTest, SatAndExplicitEnginesAgree)
{
    auto [name, max_size] = GetParam();
    auto model = mm::makeModel(name);
    SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = max_size;
    for (const auto &axiom : model->axioms()) {
        Suite sat = synthesizeAxiom(*model, axiom.name, opt);
        Suite exp = explicitSynthesizeAxiom(*model, axiom.name, opt);
        EXPECT_EQ(canonKeys(sat.tests), canonKeys(exp.tests))
            << model->name() << "/" << axiom.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Models, CrossEngineTest,
    ::testing::Values(std::make_tuple(std::string("sc"), 4),
                      std::make_tuple(std::string("tso"), 4),
                      std::make_tuple(std::string("power"), 3),
                      std::make_tuple(std::string("armv7"), 3),
                      std::make_tuple(std::string("scc"), 3),
                      std::make_tuple(std::string("sscc"), 2),
                      std::make_tuple(std::string("c11"), 3)));

TEST(AllProgsTest, TestSpaceDwarfsSynthesizedSuites)
{
    auto tso = mm::makeModel("tso");
    auto counts = countAllPrograms(*tso, 2, 4, CanonMode::Exact);
    SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 4;
    auto suites = synthesizeAll(*tso, opt);
    const Suite &u = suites.back();
    // Figure 13a: the set of all programs grows much faster than the
    // synthesized union suite.
    uint64_t all4 = counts[4];
    EXPECT_GT(all4, 20 * static_cast<uint64_t>(u.testsBySize.at(4)));
    EXPECT_GT(counts[3], counts[2]);
    EXPECT_GT(counts[4], counts[3]);
}

TEST(WwcSymmetryTest, PaperCanonEmitsTwoWwcVariantsExactEmitsOne)
{
    // Figure 14: run TSO causality at size 5 under both canonicalizer
    // modes; paper mode emits one extra test (the WWC mirror image).
    auto tso = mm::makeModel("tso");
    SynthOptions paper_opt;
    paper_opt.minSize = 5;
    paper_opt.maxSize = 5;
    paper_opt.canon = CanonMode::Paper;
    SynthOptions exact_opt = paper_opt;
    exact_opt.canon = CanonMode::Exact;

    Suite paper_suite = synthesizeAxiom(*tso, "causality", paper_opt);
    Suite exact_suite = synthesizeAxiom(*tso, "causality", exact_opt);
    EXPECT_GE(paper_suite.tests.size(), exact_suite.tests.size());
    // Collapsing paper-mode output with the exact canonicalizer must
    // yield the exact-mode suite: the difference is pure redundancy.
    EXPECT_EQ(canonKeys(paper_suite.tests), canonKeys(exact_suite.tests));
}

} // namespace
} // namespace lts::synth
// Appended: direct vs merged union-suite generation (footnote 4).
namespace lts::synth
{
namespace
{

TEST(UnionDirectTest, DirectQueryMatchesMergedUnion)
{
    for (const char *name : {"tso", "scc"}) {
        auto model = mm::makeModel(name);
        SynthOptions opt;
        opt.minSize = 2;
        opt.maxSize = 3;
        auto suites = synthesizeAll(*model, opt);
        Suite direct = synthesizeUnionDirect(*model, opt);

        std::set<std::string> merged_keys, direct_keys;
        for (const auto &t : suites.back().tests) {
            merged_keys.insert(litmus::staticSerialize(
                litmus::canonicalize(t, litmus::CanonMode::Exact)));
        }
        for (const auto &t : direct.tests) {
            direct_keys.insert(litmus::staticSerialize(
                litmus::canonicalize(t, litmus::CanonMode::Exact)));
        }
        EXPECT_EQ(direct_keys, merged_keys) << name;
    }
}

TEST(UnionDirectTest, DirectUnionTestsAuditAsMinimalForSomeAxiom)
{
    auto tso = mm::makeModel("tso");
    SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 4;
    Suite direct = synthesizeUnionDirect(*tso, opt);
    EXPECT_EQ(direct.tests.size(), 10u);
    for (const auto &t : direct.tests)
        EXPECT_FALSE(minimalAxioms(*tso, t).empty()) << t.name;
}

} // namespace
} // namespace lts::synth
