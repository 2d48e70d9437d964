/**
 * @file
 * Shared helpers for the table/figure reproduction binaries: aligned
 * table printing and suite-summary rows so every bench emits the same
 * format EXPERIMENTS.md references.
 */

#ifndef LTS_BENCH_BENCH_UTIL_HH
#define LTS_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/pool.hh"
#include "common/strings.hh"
#include "common/timer.hh"
#include "litmus/canon.hh"
#include "litmus/digest.hh"
#include "synth/service.hh"
#include "synth/synthesizer.hh"

namespace lts::bench
{

/** Print a row of cells with fixed column widths. */
inline void
printRow(const std::vector<std::string> &cells,
         const std::vector<int> &widths)
{
    std::string line;
    for (size_t i = 0; i < cells.size(); i++) {
        int w = i < widths.size() ? widths[i] : 12;
        line += padRight(cells[i], static_cast<size_t>(w)) + " ";
    }
    std::printf("%s\n", line.c_str());
}

/** Print a horizontal rule sized to the given widths. */
inline void
printRule(const std::vector<int> &widths)
{
    size_t total = 0;
    for (int w : widths)
        total += static_cast<size_t>(w) + 1;
    std::printf("%s\n", std::string(total, '-').c_str());
}

/** Header banner naming the paper artifact a binary reproduces. */
inline void
banner(const std::string &what)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", what.c_str());
    std::printf("(Lustig et al., \"Automated Synthesis of Comprehensive Memory\n");
    std::printf(" Model Litmus Test Suites\", ASPLOS 2017 — reproduction)\n");
    std::printf("==============================================================\n");
}

/** Per-size test-count/runtime rows for a set of suites. */
inline void
printSuiteTable(const std::vector<synth::Suite> &suites, int min_size,
                int max_size)
{
    std::vector<int> widths = {16};
    std::vector<std::string> header = {"axiom"};
    for (int s = min_size; s <= max_size; s++) {
        header.push_back("n=" + std::to_string(s));
        widths.push_back(8);
    }
    header.push_back("total");
    widths.push_back(8);
    header.push_back("time(s)");
    widths.push_back(10);
    printRow(header, widths);
    printRule(widths);
    for (const auto &suite : suites) {
        std::vector<std::string> row = {suite.axiom};
        for (int s = min_size; s <= max_size; s++) {
            auto it = suite.testsBySize.find(s);
            row.push_back(it == suite.testsBySize.end()
                              ? "-"
                              : std::to_string(it->second));
        }
        row.push_back(std::to_string(suite.tests.size()) +
                      (suite.truncated ? "*" : ""));
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f", suite.totalSeconds());
        row.push_back(buf);
        printRow(row, widths);
    }
}

/** Per-size runtime rows (the Figure 13c/16c/20b runtime series). */
inline void
printRuntimeTable(const std::vector<synth::Suite> &suites, int min_size,
                  int max_size)
{
    std::vector<int> widths = {16};
    std::vector<std::string> header = {"axiom"};
    for (int s = min_size; s <= max_size; s++) {
        header.push_back("n=" + std::to_string(s));
        widths.push_back(10);
    }
    printRow(header, widths);
    printRule(widths);
    for (const auto &suite : suites) {
        std::vector<std::string> row = {suite.axiom};
        for (int s = min_size; s <= max_size; s++) {
            auto it = suite.secondsBySize.find(s);
            if (it == suite.secondsBySize.end()) {
                row.push_back("-");
            } else {
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%.3f", it->second);
                row.push_back(buf);
            }
        }
        printRow(row, widths);
    }
}

/** Aggregate CPU seconds over per-axiom suites (excluding the union,
 *  whose per-size seconds are already the sum of its parts). */
inline double
aggregateCpuSeconds(const std::vector<synth::Suite> &suites)
{
    double s = 0;
    for (const auto &suite : suites) {
        if (suite.axiom != "union")
            s += suite.totalSeconds();
    }
    return s;
}

/** One engine-mode measurement for the BENCH_*.json comparison. */
struct ModeRun
{
    std::string mode; ///< "incremental", with "-nosbp" / "-nosimp"
                      ///< suffixed when disabled (see modeName)
    bool sbp = true;  ///< symmetry breaking was enabled for this run
    bool simplify = true; ///< SatELite-style preprocessing was enabled
    double wallSeconds = 0;
    double cpuSeconds = 0;
    uint64_t jobsQueued = 0;
    uint64_t conflicts = 0;
    uint64_t restarts = 0;
    uint64_t instances = 0;     ///< SAT models enumerated (rawInstances)
    uint64_t sbpClauses = 0;    ///< SBP clauses emitted, all solvers
    uint64_t eliminatedVars = 0;  ///< vars removed by simplify, all solvers
    uint64_t subsumedClauses = 0; ///< clauses removed by simplify
    std::map<int, uint64_t> instancesBySize;  ///< union suite, size -> models
    std::map<int, int> keptBySize;            ///< union suite, size -> tests
    std::map<int, uint64_t> sbpClausesBySize; ///< union suite, size -> clauses
    std::string suiteDigest; ///< hash of the union suite's serialized tests
};

/**
 * Synthesize every per-axiom suite (plus the union) for @p model
 * through the service layer — the one front door into synthesis. A
 * store-less Service degenerates to a plain engine run honoring every
 * knob in @p opt, so benches measure exactly what they always measured.
 */
inline std::vector<synth::Suite>
querySuites(const mm::Model &model, const synth::SynthOptions &opt,
            synth::SuiteResult *result_out = nullptr)
{
    synth::SuiteRequest request;
    request.model = model.name();
    request.maxSize = opt.maxSize;
    request.options = opt;
    synth::Service service;
    synth::SuiteResult result = service.query(model, request);
    if (result_out) {
        *result_out = std::move(result);
        return result_out->suites;
    }
    return std::move(result.suites);
}

/** The BENCH_*.json mode label of a run under @p opt. */
inline std::string
modeName(const synth::SynthOptions &opt)
{
    std::string mode = "incremental";
    if (!opt.symmetryBreaking)
        mode += "-nosbp";
    if (!opt.simplify)
        mode += "-nosimp";
    return mode;
}

/**
 * The BENCH_*.json record of one service query run under @p opt:
 * solver work from the SuiteResult's counters, per-size counts from
 * its union suite (the one axiom's suite for an axiom-scoped query).
 */
inline ModeRun
modeRun(const synth::SuiteResult &result, const synth::SynthOptions &opt,
        double wall_seconds)
{
    const synth::SynthProgressSnapshot &progress = result.progress;
    const synth::Suite &suite = result.unionSuite();
    ModeRun run;
    run.mode = modeName(opt);
    run.sbp = opt.symmetryBreaking;
    run.simplify = opt.simplify;
    run.wallSeconds = wall_seconds;
    run.cpuSeconds = aggregateCpuSeconds(result.suites);
    run.jobsQueued = progress.jobsQueued;
    run.conflicts = progress.conflicts;
    run.restarts = progress.restarts;
    run.instances = progress.instances;
    run.sbpClauses = progress.sbpClauses;
    run.eliminatedVars = progress.eliminatedVars;
    run.subsumedClauses = progress.subsumedClauses;
    run.instancesBySize = suite.instancesBySize;
    run.keptBySize = suite.testsBySize;
    run.sbpClausesBySize = suite.sbpClausesBySize;
    run.suiteDigest = result.suiteDigest;
    return run;
}

/**
 * Run one full synthesis under one engine mode and record it (modeRun).
 * The suites go to *out when the caller also wants the figure tables.
 */
inline ModeRun
measureMode(const mm::Model &model, synth::SynthOptions opt, bool sbp = true,
            std::vector<synth::Suite> *out = nullptr)
{
    opt.symmetryBreaking = sbp;
    Timer wall;
    synth::SuiteResult result;
    querySuites(model, opt, &result);
    ModeRun run = modeRun(result, opt, wall.seconds());
    if (out)
        *out = std::move(result.suites);
    return run;
}

/** One-line scheduling/solver-work summary for an engine-mode run. */
inline void
printModeRun(const ModeRun &run, int jobs)
{
    // runSizeJobs starts at most one worker per size job.
    std::printf("%s engine: %llu worker(s); %llu jobs; "
                "%llu SAT conflicts; %llu instances enumerated\n",
                run.mode.c_str(),
                static_cast<unsigned long long>(std::min<uint64_t>(
                    ThreadPool::resolveThreads(jobs), run.jobsQueued)),
                static_cast<unsigned long long>(run.jobsQueued),
                static_cast<unsigned long long>(run.conflicts),
                static_cast<unsigned long long>(run.instances));
    std::printf("wall-clock %.2fs, aggregate CPU %.2fs (%.2fx)\n",
                run.wallSeconds, run.cpuSeconds,
                run.wallSeconds > 0 ? run.cpuSeconds / run.wallSeconds : 0.0);
}

/**
 * Open "<path>.tmp" for a results file that finishAtomicWrite renames
 * into place, so a sweep script (or a concurrent reader tailing results)
 * never observes a half-written file; rename(2) within a directory is
 * atomic. Returns nullptr, after a diagnostic, when it cannot.
 */
inline std::FILE *
beginAtomicWrite(const std::string &path)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f)
        std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
    return f;
}

/**
 * Close a beginAtomicWrite file and rename it to @p path when every
 * write succeeded; otherwise remove it. Prints "wrote <path>" on
 * success and a diagnostic on stderr otherwise.
 */
inline void
finishAtomicWrite(std::FILE *f, const std::string &path)
{
    const std::string tmp = path + ".tmp";
    bool write_ok = std::ferror(f) == 0;
    if (std::fclose(f) != 0)
        write_ok = false;
    if (!write_ok) {
        std::fprintf(stderr, "error writing %s\n", tmp.c_str());
        std::remove(tmp.c_str());
        return;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr, "cannot rename %s to %s\n", tmp.c_str(),
                     path.c_str());
        std::remove(tmp.c_str());
        return;
    }
    std::printf("wrote %s\n", path.c_str());
}

/**
 * Write the machine-readable results file (BENCH_<name>.json) consumed
 * by sweep scripts: one entry per engine mode with wall/CPU seconds,
 * SAT conflicts, and union-suite instance counts per size.
 */
inline void
writeBenchJson(const std::string &path, const std::string &bench,
               const std::string &model, int min_size, int max_size,
               const std::vector<ModeRun> &runs)
{
    std::FILE *f = beginAtomicWrite(path);
    if (!f)
        return;
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"%s\",\n"
                 "  \"model\": \"%s\",\n"
                 "  \"minSize\": %d,\n"
                 "  \"maxSize\": %d,\n"
                 "  \"modes\": [\n",
                 bench.c_str(), model.c_str(), min_size, max_size);
    for (size_t i = 0; i < runs.size(); i++) {
        const ModeRun &run = runs[i];
        std::fprintf(f,
                     "    {\n"
                     "      \"mode\": \"%s\",\n"
                     "      \"sbp\": %s,\n"
                     "      \"simplify\": %s,\n"
                     "      \"wallSeconds\": %.6f,\n"
                     "      \"cpuSeconds\": %.6f,\n"
                     "      \"jobsQueued\": %llu,\n"
                     "      \"conflicts\": %llu,\n"
                     "      \"restarts\": %llu,\n"
                     "      \"rawInstances\": %llu,\n"
                     "      \"sbpClauses\": %llu,\n"
                     "      \"eliminatedVars\": %llu,\n"
                     "      \"subsumedClauses\": %llu,\n"
                     "      \"suiteDigest\": \"%s\",\n",
                     run.mode.c_str(), run.sbp ? "true" : "false",
                     run.simplify ? "true" : "false",
                     run.wallSeconds, run.cpuSeconds,
                     static_cast<unsigned long long>(run.jobsQueued),
                     static_cast<unsigned long long>(run.conflicts),
                     static_cast<unsigned long long>(run.restarts),
                     static_cast<unsigned long long>(run.instances),
                     static_cast<unsigned long long>(run.sbpClauses),
                     static_cast<unsigned long long>(run.eliminatedVars),
                     static_cast<unsigned long long>(run.subsumedClauses),
                     run.suiteDigest.c_str());
        // Every size in [min, max] is emitted with a 0 default, so a
        // baseline file from an empty trajectory still fixes the schema
        // sweep scripts key on.
        auto emitSizes = [&](const char *name, auto lookup) {
            std::fprintf(f, "      \"%s\": {", name);
            for (int s = min_size; s <= max_size; s++) {
                std::fprintf(f, "%s\"%d\": %llu", s > min_size ? ", " : "", s,
                             static_cast<unsigned long long>(lookup(s)));
            }
            std::fprintf(f, "}%s\n", name == std::string("sbpClausesBySize")
                                         ? ""
                                         : ",");
        };
        emitSizes("rawInstancesBySize", [&](int s) -> uint64_t {
            auto it = run.instancesBySize.find(s);
            return it == run.instancesBySize.end() ? 0 : it->second;
        });
        emitSizes("testsBySize", [&](int s) -> uint64_t {
            auto it = run.keptBySize.find(s);
            return it == run.keptBySize.end()
                       ? 0
                       : static_cast<uint64_t>(it->second);
        });
        emitSizes("sbpClausesBySize", [&](int s) -> uint64_t {
            auto it = run.sbpClausesBySize.find(s);
            return it == run.sbpClausesBySize.end() ? 0 : it->second;
        });
        std::fprintf(f, "    }%s\n", i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    finishAtomicWrite(f, path);
}

/**
 * One SAT-level ablation measurement (bench/micro_sat.cc): a named
 * scenario solved with a feature on and off, plus the solver-work
 * counters that explain the delta.
 */
struct MicroRun
{
    std::string scenario; ///< e.g. "simplify-on", "simplify-off"
    double wallSeconds = 0;
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    uint64_t eliminatedVars = 0;
    uint64_t subsumedClauses = 0;
    uint64_t problemClauses = 0; ///< live problem clauses after setup
};

/** Write BENCH_micro_sat.json (atomically, as writeBenchJson). */
inline void
writeMicroSatJson(const std::string &path, const std::vector<MicroRun> &runs)
{
    std::FILE *f = beginAtomicWrite(path);
    if (!f)
        return;
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"micro_sat\",\n"
                 "  \"scenarios\": [\n");
    for (size_t i = 0; i < runs.size(); i++) {
        const MicroRun &r = runs[i];
        std::fprintf(f,
                     "    {\n"
                     "      \"scenario\": \"%s\",\n"
                     "      \"wallSeconds\": %.6f,\n"
                     "      \"conflicts\": %llu,\n"
                     "      \"propagations\": %llu,\n"
                     "      \"eliminatedVars\": %llu,\n"
                     "      \"subsumedClauses\": %llu,\n"
                     "      \"problemClauses\": %llu\n"
                     "    }%s\n",
                     r.scenario.c_str(), r.wallSeconds,
                     static_cast<unsigned long long>(r.conflicts),
                     static_cast<unsigned long long>(r.propagations),
                     static_cast<unsigned long long>(r.eliminatedVars),
                     static_cast<unsigned long long>(r.subsumedClauses),
                     static_cast<unsigned long long>(r.problemClauses),
                     i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    finishAtomicWrite(f, path);
}

} // namespace lts::bench

#endif // LTS_BENCH_BENCH_UTIL_HH
