/**
 * @file
 * Sweep-independence tests for the one synthesis engine: a size job
 * sweeps every axiom over one shared solver, and the suite
 * it produces for each axiom must be byte-identical to sweeping that
 * axiom alone on a fresh (from-scratch) encoding — learned state carried
 * between axioms may change search effort, never what is emitted. The
 * same independence lets the service re-synthesize any subset of
 * (axiom, size) shards, one SizeJob per size, and get the cells of the
 * full grid.
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

TEST(IncrementalEquivalenceTest, OneTrackSizeJobMatchesFullGrid)
{
    // The service re-synthesizes exactly its missing shards, one size
    // job carrying only the missing axioms' tracks; each shard must
    // equal its cell of the full grid, whatever else its size sweeps.
    auto tso = mm::makeModel("tso");
    SynthOptions opt;
    opt.maxSize = 4;
    std::vector<Suite> full = synthesizeAll(*tso, opt);
    for (size_t a = 0; a < tso->axioms().size(); a++) {
        const std::string &axiom = tso->axioms()[a].name;
        for (int size = opt.minSize; size <= opt.maxSize; size++) {
            SCOPED_TRACE(axiom + "@" + std::to_string(size));
            std::vector<SizeJob> jobs(1);
            jobs[0].size = size;
            jobs[0].tracks = {axiomTrack(*tso, axiom)};
            runSizeJobs(*tso, jobs, opt);
            ASSERT_EQ(jobs[0].shards.size(), 1u);
            const ShardResult &got = jobs[0].shards[0];
            EXPECT_FALSE(got.truncated);
            EXPECT_EQ(got.rawInstances, full[a].instancesBySize.at(size));
            std::vector<std::string> want;
            for (const auto &t : full[a].tests) {
                if (static_cast<int>(t.size()) == size)
                    want.push_back(litmus::fullSerialize(t));
            }
            ASSERT_EQ(got.tests.size(), want.size());
            for (size_t t = 0; t < got.tests.size(); t++)
                EXPECT_EQ(litmus::fullSerialize(got.tests[t]), want[t]);
        }
    }
}

} // namespace
} // namespace lts::synth
