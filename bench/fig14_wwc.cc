/**
 * @file
 * Reproduces Figure 14: the WWC symmetry the paper's canonicalizer
 * misses. Runs TSO causality synthesis at size 5 under both the paper's
 * thread-hash canonicalizer and the exact (permutation-minimizing)
 * canonicalizer, reports the redundancy, and prints the WWC pair that
 * fails to merge in paper mode.
 */

#include <cstdio>
#include <map>

#include "bench/bench_util.hh"
#include "common/flags.hh"
#include "litmus/canon.hh"
#include "litmus/print.hh"
#include "mm/registry.hh"
#include "synth/synthesizer.hh"

using namespace lts;

int
main(int argc, char **argv)
{
    Flags flags;
    flags.declare("size", "5", "test size to synthesize at");
    if (!flags.parse(argc, argv))
        return 1;
    int size = flags.getInt("size");

    bench::banner("Figure 14: WWC variants the paper-mode canonicalizer "
                  "cannot merge");

    auto tso = mm::makeModel("tso");
    synth::SynthOptions paper_opt;
    paper_opt.minSize = size;
    paper_opt.maxSize = size;
    paper_opt.canon = litmus::CanonMode::Paper;
    synth::SynthOptions exact_opt = paper_opt;
    exact_opt.canon = litmus::CanonMode::Exact;

    synth::Suite paper_suite =
        synth::synthesizeAxiom(*tso, "causality", paper_opt);
    synth::Suite exact_suite =
        synth::synthesizeAxiom(*tso, "causality", exact_opt);

    std::printf("causality @ n=%d: paper canonicalizer -> %zu tests, "
                "exact -> %zu tests (redundancy: %zu)\n\n",
                size, paper_suite.tests.size(), exact_suite.tests.size(),
                paper_suite.tests.size() - exact_suite.tests.size());

    // Group the paper-mode output by exact canonical key; groups with
    // more than one member are the symmetry classes paper mode split.
    std::map<std::string, std::vector<const litmus::LitmusTest *>> groups;
    for (const auto &t : paper_suite.tests) {
        groups[litmus::staticSerialize(
                   litmus::canonicalize(t, litmus::CanonMode::Exact))]
            .push_back(&t);
    }
    for (const auto &[key, members] : groups) {
        if (members.size() < 2)
            continue;
        std::printf("unmerged symmetry class (%zu variants):\n",
                    members.size());
        for (const auto *t : members)
            std::printf("%s\n", litmus::toString(*t).c_str());
    }
    if (paper_suite.tests.size() == exact_suite.tests.size())
        std::printf("(no unmerged classes at this bound)\n");
    return 0;
}
