/**
 * @file
 * Ablation study over the synthesizer's design choices (DESIGN.md):
 *
 *  1. Symmetry reduction (Section 5.1): raw SAT instances vs emitted
 *     canonical tests, and paper-mode vs exact canonicalization.
 *  2. Static-part blocking vs full-instance blocking: how many SAT
 *     models are enumerated to produce the same suite.
 *  3. The SCC lone-sc workaround (Figure 19): SB-style tests appear only
 *     with the relaxed-variant axioms.
 *
 * Flags: --max-size (default 4), --model (default tso).
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "common/flags.hh"
#include "common/timer.hh"
#include "mm/registry.hh"
#include "synth/synthesizer.hh"

using namespace lts;

int
main(int argc, char **argv)
{
    Flags flags;
    flags.declare("max-size", "5", "largest synthesized test size");
    flags.declare("model", "tso", "model to ablate");
    if (!flags.parse(argc, argv))
        return 1;
    int max_size = flags.getInt("max-size");
    auto model = mm::makeModel(flags.get("model"));

    bench::banner("Ablations: blocking granularity and symmetry handling");

    const std::string axiom = model->axioms().back().name;
    std::printf("model=%s axiom=%s sizes 2..%d\n\n", model->name().c_str(),
                axiom.c_str(), max_size);

    struct Config
    {
        const char *name;
        bool block_static;
        litmus::CanonMode canon;
    };
    const Config configs[] = {
        {"static-block + paper-canon (default)", true,
         litmus::CanonMode::Paper},
        {"static-block + exact-canon", true, litmus::CanonMode::Exact},
        {"static-block + no-canon", true, litmus::CanonMode::Off},
        {"full-instance-block + paper-canon", false,
         litmus::CanonMode::Paper},
    };

    std::vector<int> widths = {40, 10, 12, 10};
    bench::printRow({"configuration", "tests", "sat-models", "time(s)"},
                    widths);
    bench::printRule(widths);
    for (const auto &config : configs) {
        synth::SynthOptions opt;
        opt.minSize = 2;
        opt.maxSize = max_size;
        opt.blockStaticOnly = config.block_static;
        opt.canon = config.canon;
        Timer timer;
        synth::Suite suite = synth::synthesizeAxiom(*model, axiom, opt);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f", timer.seconds());
        bench::printRow({config.name, std::to_string(suite.tests.size()),
                         std::to_string(suite.rawInstances), buf},
                        widths);
    }
    // --- Footnote 4: direct union query vs per-axiom merge -----------
    {
        synth::SynthOptions opt;
        opt.minSize = 2;
        opt.maxSize = max_size;
        Timer merged_timer;
        auto suites = bench::querySuites(*model, opt);
        double merged_s = merged_timer.seconds();
        Timer direct_timer;
        synth::Suite direct = synth::synthesizeUnionDirect(*model, opt);
        double direct_s = direct_timer.seconds();
        std::printf("\nFootnote 4: union generation strategy\n");
        std::printf("  per-axiom + merge : %3zu tests in %.2fs\n",
                    suites.back().tests.size(), merged_s);
        std::printf("  direct union query: %3zu tests in %.2fs\n",
                    direct.tests.size(), direct_s);
    }

    std::printf("\nNotes: full-instance blocking enumerates every "
                "execution of every test, so its SAT-model count is the\n"
                "number of minimal (test, execution) pairs; static "
                "blocking stops at one witness per program. Without\n"
                "canonicalization, symmetric thread/address renamings "
                "are emitted as distinct tests.\n");
    return 0;
}
