/**
 * @file
 * Sweep-independence tests for the one synthesis engine: a size's
 * BaseEncoding sweeps every axiom over one shared solver, and the suite
 * it produces for each axiom must be byte-identical to sweeping that
 * axiom alone on a fresh (from-scratch) encoding — learned state carried
 * between axioms may change search effort, never what is emitted. The
 * same independence lets the service re-synthesize any subset of
 * (axiom, size) shards and get the cells of the full grid.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "litmus/canon.hh"
#include "mm/registry.hh"
#include "synth/synthesizer.hh"

namespace lts::synth
{
namespace
{

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
        for (auto [size, count] : suite.instancesBySize)
            s += "  models@" + std::to_string(size) + ": " +
                 std::to_string(count) + "\n";
        for (const auto &t : suite.tests)
            s += t.name + "\n" + litmus::fullSerialize(t) + "\n";
    }
    return s;
}

/** Each axiom swept alone on fresh encodings (synthesizeAxiom) must
 *  equal that axiom's suite from the full sweep (synthesizeAll). */
void
expectAxiomsAloneMatchFullSweep(const std::string &model_name, int max_size,
                                const SynthOptions &base)
{
    auto model = mm::makeModel(model_name);
    SynthOptions opt = base;
    opt.maxSize = max_size;

    std::vector<Suite> full = synthesizeAll(*model, opt);
    ASSERT_EQ(full.size(), model->axioms().size() + 1) << model_name;
    for (size_t a = 0; a < model->axioms().size(); a++) {
        const std::string &axiom = model->axioms()[a].name;
        Suite alone = synthesizeAxiom(*model, axiom, opt);
        EXPECT_EQ(serializeSuites({alone}), serializeSuites({full[a]}))
            << model_name << "/" << axiom;
    }
}

TEST(IncrementalEquivalenceTest, TsoMatchesFromScratchUpToSizeFour)
{
    expectAxiomsAloneMatchFullSweep("tso", 4, {});
}

TEST(IncrementalEquivalenceTest, SccMatchesFromScratchUpToSizeFour)
{
    expectAxiomsAloneMatchFullSweep("scc", 4, {});
}

TEST(IncrementalEquivalenceTest, EveryModelMatchesFromScratch)
{
    // The rest of the registry (tso and scc have dedicated tests above):
    // sizes 2-4, but 2-3 for sscc, whose size-4 sweep alone takes about
    // a minute, so tier-1 stays fast; the fig benches cover the large
    // sizes.
    for (const auto &name : mm::modelNames()) {
        if (name == "tso" || name == "scc")
            continue;
        expectAxiomsAloneMatchFullSweep(name, name == "sscc" ? 3 : 4, {});
    }
}

TEST(IncrementalEquivalenceTest, EnginesAgreeUnderParallelJobs)
{
    SynthOptions opt;
    opt.jobs = 4;
    expectAxiomsAloneMatchFullSweep("tso", 4, opt);
}

TEST(IncrementalEquivalenceTest, SingleShardSelectorMatchesFullGrid)
{
    // The service re-synthesizes exactly the shards a selector names;
    // each must equal its cell of the unselected grid, whatever else
    // its size's sweep skips.
    auto tso = mm::makeModel("tso");
    SynthOptions opt;
    opt.maxSize = 4;
    auto grid = synthesizeShards(*tso, opt);
    for (size_t a = 0; a < tso->axioms().size(); a++) {
        const std::string &axiom = tso->axioms()[a].name;
        for (int size = opt.minSize; size <= opt.maxSize; size++) {
            SCOPED_TRACE(axiom + "@" + std::to_string(size));
            auto cell = synthesizeShards(
                *tso, opt, [&](const std::string &ax, int n) {
                    return ax == axiom && n == size;
                });
            for (size_t b = 0; b < cell.size(); b++) {
                for (size_t si = 0; si < cell[b].size(); si++) {
                    const ShardResult &got = cell[b][si];
                    int n = opt.minSize + static_cast<int>(si);
                    if (b != a || n != size) {
                        // Deselected shards stay empty.
                        EXPECT_TRUE(got.tests.empty());
                        EXPECT_EQ(got.rawInstances, 0u);
                        continue;
                    }
                    const ShardResult &want = grid[b][si];
                    EXPECT_EQ(got.rawInstances, want.rawInstances);
                    EXPECT_EQ(got.truncated, want.truncated);
                    ASSERT_EQ(got.tests.size(), want.tests.size());
                    for (size_t t = 0; t < got.tests.size(); t++) {
                        EXPECT_EQ(litmus::fullSerialize(got.tests[t]),
                                  litmus::fullSerialize(want.tests[t]));
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace lts::synth
