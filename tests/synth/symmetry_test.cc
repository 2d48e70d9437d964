/**
 * @file
 * Suite-equivalence tests for in-solver symmetry breaking: for every
 * registered model, the synthesized suites must be byte-identical with
 * SBP on and off — SBP may only change how much raw enumeration
 * happens, never what is emitted. This is the
 * determinism contract the BENCH_*.json suiteDigest field asserts in
 * CI, checked here at the library level.
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

/**
 * Full byte-level fingerprint of a synthesis run's output: axiom names
 * and every test's serialization, but none of the effort counters
 * (rawInstances and friends legitimately differ across modes).
 */
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

struct RunResult
{
    std::string key;
    uint64_t rawInstances;
};

RunResult
run(const mm::Model &model, SynthOptions opt, bool sbp)
{
    opt.symmetryBreaking = sbp;
    auto suites = synthesizeAll(model, opt);
    uint64_t raw = 0;
    for (const Suite &suite : suites) {
        if (suite.axiom != "union")
            raw += suite.rawInstances;
    }
    return {suiteKey(suites), raw};
}

void
checkModel(const std::string &name, int max_size)
{
    auto model = mm::makeModel(name);
    SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = max_size;

    RunResult with_sbp = run(*model, opt, true);
    RunResult without = run(*model, opt, false);

    EXPECT_EQ(with_sbp.key, without.key)
        << name << ": SBP on/off suites differ";
    EXPECT_LE(with_sbp.rawInstances, without.rawInstances)
        << name << ": SBP enumerated more raw instances than no-SBP";
}

TEST(SynthSymmetryTest, TsoSuitesIdenticalAcrossSbp)
{
    checkModel("tso", 4);
}

TEST(SynthSymmetryTest, ScSuitesIdenticalAcrossSbp)
{
    checkModel("sc", 4);
}

TEST(SynthSymmetryTest, RegistryWideSuitesIdenticalAcrossSbp)
{
    // Every registered synthesizable model at the largest size that
    // keeps this a unit test; TSO/SC run a size bigger above.
    for (const std::string &name : mm::modelNames())
        checkModel(name, 3);
}

TEST(SynthSymmetryTest, SbpActuallyPrunesAtSizeFour)
{
    // The equivalence tests would pass trivially if the SBP never
    // installed; pin the tentpole's effect at a size where TSO has
    // real thread symmetry (two 2-op threads).
    auto tso = mm::makeModel("tso");
    SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 4;
    RunResult with_sbp = run(*tso, opt, true);
    RunResult without = run(*tso, opt, false);
    EXPECT_LT(with_sbp.rawInstances, without.rawInstances);
}

TEST(SynthSymmetryTest, AblationsIdenticalAcrossSbp)
{
    // The byte-identity contract must also hold under the ablation
    // knobs that change canonicalization and blocking granularity.
    auto tso = mm::makeModel("tso");
    for (int mode = 0; mode < 3; mode++) {
        SynthOptions opt;
        opt.minSize = 2;
        opt.maxSize = 3;
        if (mode == 0) {
            opt.canon = litmus::CanonMode::Exact;
        } else if (mode == 1) {
            opt.canon = litmus::CanonMode::Off;
        } else {
            opt.blockStaticOnly = false;
        }
        RunResult with_sbp = run(*tso, opt, true);
        RunResult without = run(*tso, opt, false);
        EXPECT_EQ(with_sbp.key, without.key) << "ablation mode " << mode;
        EXPECT_LE(with_sbp.rawInstances, without.rawInstances)
            << "ablation mode " << mode;
    }
}

} // namespace
} // namespace lts::synth
