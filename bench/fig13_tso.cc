/**
 * @file
 * Reproduces the TSO results of Section 6.1:
 *
 *  - Figure 13a: forbidden-test counts per size bound for the Owens
 *    baseline, the synthesized tso-union suite, and the set of all
 *    possible programs;
 *  - Figure 13b: per-axiom suite sizes per bound (sc_per_loc and
 *    rmw_atomicity saturate; causality grows without bound);
 *  - Figure 13c: per-suite generation runtime (super-exponential);
 *  - Figures 11 and 12: the coherence-only and rmw_atomicity test
 *    listings.
 *
 * Flags: --max-size (default 5; the paper ran 6-7 on a Xeon farm),
 * --all-progs-max (explicit-enumeration bound for the "All Progs" line).
 */

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "bench/bench_util.hh"
#include "common/flags.hh"
#include "common/timer.hh"
#include "litmus/canon.hh"
#include "litmus/print.hh"
#include "mm/registry.hh"
#include "suites/owens.hh"
#include "synth/explicit.hh"
#include "synth/options.hh"
#include "synth/synthesizer.hh"

using namespace lts;

int
main(int argc, char **argv)
{
    Flags flags;
    synth::declareSynthFlags(flags);
    flags.declare("max-size", "5", "largest test size to synthesize");
    flags.declare("all-progs-max", "4",
                  "largest size for explicit all-programs counting");
    flags.declare("bench-json", "BENCH_fig13_tso.json",
                  "machine-readable results file ('' = skip)");
    flags.declare("compare-sbp", "true",
                  "also run with symmetry breaking disabled and report the "
                  "raw-instance reduction");
    flags.declare("compare-simplify", "true",
                  "also run with simplification disabled and report the "
                  "conflict reduction");
    flags.declare("compare-proof", "true",
                  "also run with DRAT proof logging on and report the "
                  "wall-clock overhead");
    if (!flags.parse(argc, argv))
        return 1;
    int max_size = flags.getInt("max-size");
    int all_max = flags.getInt("all-progs-max");

    bench::banner("Figures 11, 12, 13 + TSO portion of Section 6.1");

    auto tso = mm::makeModel("tso");
    synth::SynthOptions opt = synth::synthOptionsFromFlags(flags);
    std::vector<synth::Suite> suites;
    std::vector<bench::ModeRun> runs;
    runs.push_back(
        bench::measureMode(*tso, opt, opt.symmetryBreaking, &suites));
    bench::printModeRun(runs.back(), opt.jobs);
    if (flags.getBool("compare-sbp")) {
        runs.push_back(bench::measureMode(*tso, opt, !opt.symmetryBreaking));
        bench::printModeRun(runs.back(), opt.jobs);
        const bench::ModeRun &base = runs.front();
        const bench::ModeRun &other = runs.back();
        const bench::ModeRun &with_sbp =
            base.sbp ? base : other;
        const bench::ModeRun &without_sbp =
            base.sbp ? other : base;
        std::printf("\nSBP raw-instance reduction: %llu -> %llu (%.2fx), "
                    "suites %s\n",
                    static_cast<unsigned long long>(without_sbp.instances),
                    static_cast<unsigned long long>(with_sbp.instances),
                    with_sbp.instances
                        ? static_cast<double>(without_sbp.instances) /
                              static_cast<double>(with_sbp.instances)
                        : 0.0,
                    with_sbp.suiteDigest == without_sbp.suiteDigest
                        ? "byte-identical"
                        : "DIFFER (bug!)");
    }
    if (flags.getBool("compare-simplify")) {
        synth::SynthOptions plain = opt;
        plain.simplify = false;
        runs.push_back(
            bench::measureMode(*tso, plain, opt.symmetryBreaking));
        bench::printModeRun(runs.back(), opt.jobs);
        const bench::ModeRun &with_simp = runs.front();
        const bench::ModeRun &without_simp = runs.back();
        std::printf("\nsimplify conflict reduction: %llu -> %llu "
                    "(%.2fx), suites %s\n",
                    static_cast<unsigned long long>(without_simp.conflicts),
                    static_cast<unsigned long long>(with_simp.conflicts),
                    with_simp.conflicts
                        ? static_cast<double>(without_simp.conflicts) /
                              static_cast<double>(with_simp.conflicts)
                        : 0.0,
                    with_simp.suiteDigest == without_simp.suiteDigest
                        ? "byte-identical"
                        : "DIFFER (bug!)");
    }
    if (flags.getBool("compare-proof")) {
        synth::SynthOptions proved = opt;
        bool temp_proofs = proved.proofDir.empty();
        if (temp_proofs) {
            proved.proofDir = (std::filesystem::temp_directory_path() /
                               ("fig13-proof-" + std::to_string(::getpid())))
                                  .string();
        }
        std::filesystem::create_directories(proved.proofDir);
        runs.push_back(
            bench::measureMode(*tso, proved, opt.symmetryBreaking));
        runs.back().mode += "-proof";
        bench::printModeRun(runs.back(), opt.jobs);
        const bench::ModeRun &without_proof = runs.front();
        const bench::ModeRun &with_proof = runs.back();
        std::printf("\nproof logging overhead: %.3fs -> %.3fs wall "
                    "(%.2fx), suites %s\n",
                    without_proof.wallSeconds, with_proof.wallSeconds,
                    without_proof.wallSeconds > 0
                        ? with_proof.wallSeconds / without_proof.wallSeconds
                        : 0.0,
                    with_proof.suiteDigest == without_proof.suiteDigest
                        ? "byte-identical"
                        : "DIFFER (bug!)");
        if (temp_proofs)
            std::filesystem::remove_all(proved.proofDir);
    }
    const synth::Suite &u = suites.back();

    // ---- Figure 13b: per-axiom counts ---------------------------------
    std::printf("\nFigure 13b: tests per axiom per size bound\n");
    bench::printSuiteTable(suites, 2, max_size);

    // ---- Figure 13c: runtimes -----------------------------------------
    std::printf("\nFigure 13c: suite generation runtime (seconds)\n");
    bench::printRuntimeTable(suites, 2, max_size);

    // ---- Figure 13a: Owens vs tso-union vs all programs ----------------
    std::printf("\nFigure 13a: forbidden tests per size bound "
                "(cumulative)\n");
    auto owens = suites::owensForbidden();
    auto all_programs =
        synth::countAllPrograms(*tso, 2, all_max, litmus::CanonMode::Paper);
    std::vector<int> widths = {12, 10, 10, 14};
    bench::printRow({"bound", "Owens", "tso-union", "All Progs"}, widths);
    bench::printRule(widths);
    uint64_t union_cum = 0;
    uint64_t all_cum = 0;
    for (int size = 2; size <= max_size; size++) {
        uint64_t owens_cum = 0;
        for (const auto &t : owens) {
            if (static_cast<int>(t.size()) <= size)
                owens_cum++;
        }
        auto it = u.testsBySize.find(size);
        union_cum += it == u.testsBySize.end() ? 0 : it->second;
        std::string all_str = "-";
        if (all_programs.count(size)) {
            all_cum += all_programs.at(size);
            all_str = std::to_string(all_cum);
        }
        bench::printRow({std::to_string(size), std::to_string(owens_cum),
                         std::to_string(union_cum), all_str},
                        widths);
    }
    std::printf("(All Progs = distinct canonical programs; counted by "
                "explicit enumeration up to n=%d)\n", all_max);

    // ---- Figure 11: tests in sc_per_loc but not causality --------------
    std::printf("\nFigure 11: tests in sc_per_loc but not in causality\n");
    std::set<std::string> causality_keys;
    for (const auto &t : suites[2].tests) {
        causality_keys.insert(litmus::staticSerialize(
            litmus::canonicalize(t, litmus::CanonMode::Exact)));
    }
    int only = 0;
    for (const auto &t : suites[0].tests) {
        std::string key = litmus::staticSerialize(
            litmus::canonicalize(t, litmus::CanonMode::Exact));
        if (!causality_keys.count(key)) {
            only++;
            std::printf("%s\n", litmus::toString(t).c_str());
        }
    }
    std::printf("(%d sc_per_loc-only tests; %zu of %zu overlap "
                "causality)\n",
                only, suites[0].tests.size() - only, suites[0].tests.size());

    // ---- Figure 12: the rmw_atomicity tests -----------------------------
    std::printf("\nFigure 12: the rmw_atomicity suite\n");
    for (const auto &t : suites[1].tests)
        std::printf("%s\n", litmus::toString(t).c_str());

    std::printf("\nSummary: union=%zu tests, raw SAT instances=%llu\n",
                u.tests.size(),
                static_cast<unsigned long long>(u.rawInstances));

    if (!flags.get("bench-json").empty()) {
        bench::writeBenchJson(flags.get("bench-json"), "fig13_tso", "tso",
                              opt.minSize, max_size, runs);
    }
    return 0;
}
