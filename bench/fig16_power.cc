/**
 * @file
 * Reproduces the Power results of Section 6.2 / Figure 16:
 *
 *  - per-axiom suite sizes and runtimes (16b/16c), showing the large
 *    no_thin_air counts driven by dependency-type variety and the much
 *    larger runtime constants than TSO;
 *  - the Cambridge-suite comparison (16a): every forbidden Cambridge
 *    test is reproduced or subsumed, with the PPOAA sync-vs-lwsync
 *    minimality claim and the lb+addrs+ww addr-vs-data distinction
 *    checked explicitly;
 *  - the ARMv7 variant (no lwsync) alongside.
 *
 * Flags: --max-size (default 5; Power is the paper's most expensive
 * model and the same super-exponential growth holds here).
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "common/flags.hh"
#include "common/timer.hh"
#include "litmus/print.hh"
#include "mm/registry.hh"
#include "suites/cambridge.hh"
#include "synth/compare.hh"
#include "synth/executor.hh"
#include "synth/minimality.hh"
#include "synth/options.hh"
#include "synth/synthesizer.hh"

using namespace lts;

int
main(int argc, char **argv)
{
    Flags flags;
    synth::declareSynthFlags(flags);
    flags.declare("max-size", "5", "largest synthesized test size");
    flags.declare("arm", "true", "also run the ARMv7 variant");
    flags.declare("bench-json", "BENCH_fig16_power.json",
                  "machine-readable results file ('' = skip)");
    if (!flags.parse(argc, argv))
        return 1;
    int max_size = flags.getInt("max-size");

    bench::banner("Figure 16 + Section 6.2: Power (and ARMv7)");

    auto power = mm::makeModel("power");
    synth::SynthOptions opt = synth::synthOptionsFromFlags(flags);
    std::vector<synth::Suite> suites;
    std::vector<bench::ModeRun> runs;
    runs.push_back(
        bench::measureMode(*power, opt, opt.symmetryBreaking, &suites));
    bench::printModeRun(runs.back(), opt.jobs);

    std::printf("\nFigure 16b: tests per axiom per size bound\n");
    bench::printSuiteTable(suites, 2, max_size);
    std::printf("\nFigure 16c: suite generation runtime (seconds)\n");
    bench::printRuntimeTable(suites, 2, max_size);

    // ---- Figure 16a: Cambridge comparison ------------------------------
    std::printf("\nFigure 16a analogue: Cambridge baseline vs "
                "power-union\n");
    const synth::Suite &u = suites.back();
    auto cambridge = suites::cambridgeSuite();
    auto forbidden = suites::cambridgeForbidden();
    auto results = synth::compareSuites(forbidden, u.tests);
    std::vector<int> widths = {18, 6, 10, 10, 24};
    bench::printRow({"Cambridge test", "size", "minimal", "in-suite",
                     "covered-by"},
                    widths);
    bench::printRule(widths);
    for (size_t i = 0; i < forbidden.size(); i++) {
        const auto &t = forbidden[i];
        bool minimal = !synth::minimalAxioms(*power, t).empty();
        bench::printRow({t.name, std::to_string(t.size()),
                         minimal ? "yes" : "no",
                         results[i].inSuite ? "yes" : "no",
                         results[i].inSuite
                             ? "(itself)"
                             : (results[i].subsumed ? results[i].subsumedBy
                                                    : "beyond bound")},
                        widths);
    }

    // ---- The PPOAA claim -------------------------------------------------
    std::printf("\nSection 6.2 claims:\n");
    for (const auto &e : cambridge) {
        if (e.test.name == "PPOAA" || e.test.name == "PPOAA+lwsync") {
            auto axioms = synth::minimalAxioms(*power, e.test);
            std::printf("  %-14s minimal=%s%s\n", e.test.name.c_str(),
                        axioms.empty() ? "no" : "yes",
                        e.test.name == "PPOAA"
                            ? " (published with sync; lwsync suffices)"
                            : "");
        }
        if (e.test.name == "LB+addr+po+ww" ||
            e.test.name == "LB+data+po+ww") {
            bool legal = synth::isLegal(*power, e.test, e.test.forbidden);
            std::printf("  %-14s outcome %s (addr vs data strength)\n",
                        e.test.name.c_str(),
                        legal ? "ALLOWED" : "FORBIDDEN");
        }
    }

    // ---- ARMv7 -----------------------------------------------------------
    if (flags.getBool("arm")) {
        std::printf("\nARMv7 (Power skeleton without lwsync):\n");
        auto arm = mm::makeModel("armv7");
        auto arm_suites = bench::querySuites(*arm, opt);
        bench::printSuiteTable(arm_suites, 2, max_size);
    }

    if (!flags.get("bench-json").empty()) {
        bench::writeBenchJson(flags.get("bench-json"), "fig16_power",
                              "power", opt.minSize, max_size, runs);
    }
    return 0;
}
