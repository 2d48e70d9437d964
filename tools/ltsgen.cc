/**
 * @file
 * ltsgen — the command-line front end to the synthesis service.
 *
 * Subcommand surface (synth and bench answer through synth::Service,
 * in process or in the ltsd at --socket, so the store and the daemon
 * answer the same bytes the engines produce; both take one flag table):
 *
 *   ltsgen synth  --model=tso --max-size=5 [--store=DIR | --socket=S]
 *   ltsgen import --in=suite.txt --emit-litmus=out/ [--emit-cxx=out/]
 *   ltsgen import --in=out/ --out=suite.txt                # .litmus -> text
 *   ltsgen audit  --model=tso --in=suite.litmus [--strict]
 *   ltsgen bench  --model=tso --json=BENCH_tso.json
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include <unistd.h>

#include "bench/bench_util.hh"
#include "common/flags.hh"
#include "common/strings.hh"
#include "common/timer.hh"
#include "litmus/cxx.hh"
#include "litmus/digest.hh"
#include "litmus/format.hh"
#include "litmus/herd.hh"
#include "litmus/print.hh"
#include "mm/registry.hh"
#include "sat/drat.hh"
#include "synth/daemon.hh"
#include "synth/minimality.hh"
#include "synth/options.hh"
#include "synth/service.hh"
#include "synth/synthesizer.hh"

using namespace lts;

namespace
{

// Distinct `audit --strict` exit codes so CI can tell verdicts apart.
constexpr int kExitNotMinimal = 2;
constexpr int kExitUnsupported = 3;

/** True iff @p text is our interchange format (vs a herd7 .litmus file). */
bool
looksLikeInterchange(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::string s = trim(line);
        if (s.empty() || s[0] == '#')
            continue;
        return startsWith(s, "LTS ");
    }
    return false;
}

/**
 * Load tests from @p path: an interchange suite, a single .litmus file
 * (format auto-detected), or a directory of .litmus files (sorted by
 * name, so the NNN_ prefixes --emit-litmus writes preserve order).
 */
bool
loadTests(const std::string &path, std::vector<litmus::LitmusTest> &out)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
        for (const auto &entry : fs::directory_iterator(path, ec)) {
            if (entry.path().extension() == ".litmus")
                files.push_back(entry.path());
        }
        if (files.empty()) {
            std::fprintf(stderr, "ltsgen: no .litmus files in %s\n",
                         path.c_str());
            return false;
        }
        std::sort(files.begin(), files.end());
    } else {
        files.emplace_back(path);
    }
    for (const auto &file : files) {
        std::ifstream in(file);
        if (!in) {
            std::fprintf(stderr, "ltsgen: cannot open %s\n",
                         file.string().c_str());
            return false;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        std::string text = buf.str();
        try {
            if (looksLikeInterchange(text)) {
                std::istringstream suite_in(text);
                auto suite = litmus::parseLitmusSuite(suite_in);
                out.insert(out.end(), suite.begin(), suite.end());
            } else {
                out.push_back(litmus::parseHerd(text));
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "ltsgen: %s: %s\n",
                         file.string().c_str(), e.what());
            return false;
        }
    }
    return true;
}

/**
 * Write one file per test into @p dir (NNN_name.litmus or .cc) plus an
 * @all index listing them in suite order.
 */
bool
emitSuiteFiles(const std::vector<litmus::LitmusTest> &tests,
               const std::string &dir, bool cxx_mode,
               const std::string &model_name)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr, "ltsgen: cannot create %s: %s\n", dir.c_str(),
                     ec.message().c_str());
        return false;
    }
    std::ofstream index(dir + "/@all");
    if (!index) {
        std::fprintf(stderr, "ltsgen: cannot write %s/@all\n", dir.c_str());
        return false;
    }
    // Index prefixes must sort lexically in suite order, so pad them to
    // a uniform width (≥3) covering the largest index.
    int width = 3;
    for (size_t n = tests.size(); n > 1000; n = (n + 9) / 10)
        width++;
    for (size_t i = 0; i < tests.size(); i++) {
        char prefix[32];
        std::snprintf(prefix, sizeof prefix, "%0*u", width,
                      static_cast<unsigned>(i));
        std::string fname = std::string(prefix) + "_" +
                            litmus::sanitizeTestName(tests[i].name) +
                            (cxx_mode ? ".cc" : ".litmus");
        std::ofstream f(dir + "/" + fname);
        if (!f) {
            std::fprintf(stderr, "ltsgen: cannot write %s/%s\n",
                         dir.c_str(), fname.c_str());
            return false;
        }
        if (cxx_mode) {
            litmus::CxxOptions opt;
            opt.modelName = model_name;
            f << litmus::writeCxxHarness(tests[i], opt);
        } else {
            litmus::HerdOptions opt;
            opt.modelName = model_name;
            f << litmus::writeHerd(tests[i], opt);
        }
        index << fname << "\n";
    }
    return true;
}

/** Dump tests to --out (or stdout) as interchange or pretty tables. */
bool
writeSuiteText(const std::vector<litmus::LitmusTest> &tests,
               const std::string &out_path, bool pretty)
{
    std::ofstream file;
    std::ostream *out = &std::cout;
    if (out_path != "-") {
        file.open(out_path);
        if (!file) {
            std::fprintf(stderr, "ltsgen: cannot write %s\n",
                         out_path.c_str());
            return false;
        }
        out = &file;
    }
    if (pretty) {
        for (const auto &t : tests)
            *out << litmus::toString(t) << "\n";
    } else {
        litmus::writeLitmusSuite(*out, tests);
    }
    return true;
}

// --- shared verb cores -------------------------------------------------------

/** Declare the emit flags synth, bench and import share. */
void
declareEmitFlags(Flags &flags)
{
    flags.declare("out", "-", "output file ('-' = stdout, '' = none)");
    flags.declare("pretty", "false",
                  "print human-readable tables instead of .litmus text");
    flags.declare("emit-litmus", "",
                  "also write each test as a herd7 NNN_name.litmus file "
                  "into this directory (plus an @all index)");
    flags.declare("emit-cxx", "",
                  "also write each test as a self-contained C++11 stress "
                  "harness NNN_name.cc into this directory");
}

/** Emit @p tests per the emit flags. An empty --out writes no suite
 *  text, and per-file emission mutes the stdout dump unless --out was
 *  set explicitly. */
int
emitTests(const std::vector<litmus::LitmusTest> &tests,
          const std::string &model_name, const Flags &flags)
{
    bool emitted = false;
    for (bool cxx : {false, true}) {
        const std::string &dir = flags.get(cxx ? "emit-cxx" : "emit-litmus");
        if (dir.empty())
            continue;
        if (!emitSuiteFiles(tests, dir, cxx, model_name))
            return 1;
        emitted = true;
    }
    const std::string &out = flags.get("out");
    if (out.empty() || (emitted && out == "-"))
        return 0;
    return writeSuiteText(tests, out, flags.getBool("pretty")) ? 0 : 1;
}

/** Build a SuiteRequest from parsed flags (model/axiom/synth knobs). */
bool
requestFromFlags(const Flags &flags, synth::SuiteRequest &request)
{
    request.model = flags.get("model");
    request.axiom = flags.get("axiom");
    if (request.axiom == "union")
        request.axiom.clear();
    try {
        request.options = synth::synthOptionsFromFlags(flags);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ltsgen: %s\n", e.what());
        return false;
    }
    request.maxSize = request.options.maxSize;
    return true;
}

/**
 * Check every *.drat under @p dir with the independent checker. A trace
 * without a conclusion is reported and skipped — a budget-truncated
 * shard never concludes, so its file claims nothing — while any other
 * failure is fatal. Returns the number of bad proofs.
 */
int
checkProofDir(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".drat")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
        std::fprintf(stderr, "ltsgen: no proofs found under %s\n",
                     dir.c_str());
        return 1;
    }
    int bad = 0;
    for (const auto &path : files) {
        sat::DratCheckResult res = sat::checkDratFile(path.string());
        if (res.ok) {
            std::fprintf(stderr,
                         "  proof %s: ok (%zu conclusions, %zu steps, "
                         "core %zu steps / %zu inputs)\n",
                         path.filename().c_str(), res.conclusions,
                         res.steps, res.coreSteps, res.coreInputs);
        } else if (res.error.find("no conclusion") != std::string::npos) {
            std::fprintf(stderr, "  proof %s: skipped (%s)\n",
                         path.filename().c_str(), res.error.c_str());
        } else {
            std::fprintf(stderr, "  proof %s: FAILED: %s\n",
                         path.filename().c_str(), res.error.c_str());
            bad++;
        }
    }
    return bad;
}

/** Removes a scratch directory when the verb returns, however it does. */
struct ScratchDir
{
    std::filesystem::path path;

    ~ScratchDir()
    {
        std::error_code ec;
        if (!path.empty())
            std::filesystem::remove_all(path, ec);
    }
};

/**
 * Report an answered request on stderr, one key per line so scripts can
 * grep it (CI asserts on "suite:", "cache: hit" and "shards: ... 0
 * synthesized"). With @p stats it adds the per-size rows and the work
 * the solvers did.
 */
void
printSummary(const synth::SuiteRequest &request,
             const synth::SuiteResult &result, double wall_seconds,
             bool stats)
{
    const synth::Suite &suite = result.unionSuite();
    std::fprintf(stderr, "model: %s\n", request.model.c_str());
    std::fprintf(stderr, "bound: %d\n", request.maxSize);
    std::fprintf(stderr, "suite: %s\n", result.suiteDigest.c_str());
    std::fprintf(stderr, "cache: %s\n",
                 synth::toString(result.cache).c_str());
    std::fprintf(stderr, "shards: %llu cached, %llu synthesized\n",
                 static_cast<unsigned long long>(result.shardsCached),
                 static_cast<unsigned long long>(result.shardsSynthesized));
    std::fprintf(stderr, "tests: %zu%s\n", suite.tests.size(),
                 suite.truncated ? " [truncated]" : "");
    std::fprintf(stderr, "wall: %.6f\n", wall_seconds);
    if (!stats)
        return;
    for (auto [size, count] : suite.testsBySize) {
        auto secs = suite.secondsBySize.find(size);
        std::fprintf(stderr, "  size %d: %d tests (%.3fs)\n", size, count,
                     secs == suite.secondsBySize.end() ? 0.0 : secs->second);
    }
    const synth::SynthProgressSnapshot &p = result.progress;
    std::fprintf(stderr,
                 "  cpu %.2fs; jobs: %llu; %llu SAT conflicts, %llu "
                 "instances enumerated\n",
                 suite.totalSeconds(),
                 static_cast<unsigned long long>(p.jobsQueued),
                 static_cast<unsigned long long>(p.conflicts),
                 static_cast<unsigned long long>(p.instances));
    std::fprintf(stderr,
                 "  solver: %llu restarts; simplify removed %llu vars, "
                 "%llu clauses\n",
                 static_cast<unsigned long long>(p.restarts),
                 static_cast<unsigned long long>(p.eliminatedVars),
                 static_cast<unsigned long long>(p.subsumedClauses));
}

// --- subcommands -------------------------------------------------------------

/** The one flag table of synth and bench. */
void
declareSynthVerbFlags(Flags &flags)
{
    flags.declare("model", "tso", "memory model: sc|tso|power|armv7|scc|c11");
    flags.declare("axiom", "union", "axiom to target, or 'union' for all");
    synth::declareSynthFlags(flags);
    declareEmitFlags(flags);
    flags.declare("stats", "false",
                  "also print per-size counts, runtimes and solver work");
    flags.declare("store", "",
                  "content-addressed suite store directory; repeat "
                  "queries are answered from it byte-identically");
    flags.declare("socket", "",
                  "send the request to the ltsd listening on this socket "
                  "instead of answering it in this process");
    flags.declare("progress", "false", "stream progress lines to stderr");
    flags.declare("proof-check", "false",
                  "after synthesis, run the independent DRAT checker over "
                  "every proof in the --proof directory (a temporary "
                  "directory when --proof is unset) and fail on any bad "
                  "proof");
}

/**
 * The query core of synth and bench: answer the request the flags
 * describe (through the ltsd at --socket, or an in-process Service),
 * emit the suite, print the summary, check the proofs, and, when
 * @p json_path is set, record the run as BENCH_*.json.
 */
int
runQuery(const Flags &flags, const std::string &json_path)
{
    synth::SuiteRequest request;
    if (!requestFromFlags(flags, request))
        return 1;
    bool proof_check = flags.getBool("proof-check");
    const std::string &socket = flags.get("socket");
    if (!socket.empty()) {
        // These act on this process's engine or disk, which a daemon
        // query never reaches: refuse them rather than drop them.
        const char *local = proof_check ? "proof-check" : nullptr;
        for (const char *name : {"store", "proof", "dump-dimacs"}) {
            if (!flags.get(name).empty())
                local = name;
        }
        if (local) {
            std::fprintf(stderr,
                         "ltsgen: --%s cannot be honored with --socket\n",
                         local);
            return 1;
        }
    }

    ScratchDir temp_proof_dir;
    if (proof_check && request.options.proofDir.empty()) {
        temp_proof_dir.path = std::filesystem::temp_directory_path() /
                              ("ltsgen-proof-" + std::to_string(::getpid()));
        request.options.proofDir = temp_proof_dir.path.string();
    }
    std::error_code mk_ec;
    if (!request.options.proofDir.empty())
        std::filesystem::create_directories(request.options.proofDir, mk_ec);
    if (!request.options.dumpDimacsDir.empty()) {
        std::filesystem::create_directories(request.options.dumpDimacsDir,
                                            mk_ec);
    }

    synth::QueryProgressFn on_progress;
    if (flags.getBool("progress")) {
        on_progress = [](const std::string &line) {
            std::fprintf(stderr, "ltsgen: %s\n", line.c_str());
        };
    }

    Timer wall;
    synth::SuiteResult result;
    try {
        if (!socket.empty()) {
            result = synth::queryDaemon(socket, request, on_progress);
        } else {
            synth::ServiceConfig config;
            config.storeDir = flags.get("store");
            synth::Service service(config);
            result = service.query(request, on_progress);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ltsgen: %s\n", e.what());
        return 1;
    }
    double wall_seconds = wall.seconds();

    int rc = emitTests(result.unionSuite().tests, request.model, flags);
    if (rc != 0)
        return rc;
    printSummary(request, result, wall_seconds, flags.getBool("stats"));

    if (proof_check) {
        std::fprintf(stderr, "ltsgen: checking proofs under %s\n",
                     request.options.proofDir.c_str());
        // Cache hits ran no solver and wrote no proof: there is nothing
        // to check, but silently passing would overstate what was
        // verified, so checkProofDir says so and fails.
        int bad = checkProofDir(request.options.proofDir);
        if (bad != 0) {
            std::fprintf(stderr, "ltsgen: %d bad proof(s)\n", bad);
            return 1;
        }
    }

    if (!json_path.empty()) {
        const synth::SynthOptions &opt = request.options;
        std::string axiom = request.axiom.empty() ? "union" : request.axiom;
        bench::writeBenchJson(json_path,
                              "ltsgen-" + request.model + "-" + axiom,
                              request.model, opt.minSize, opt.maxSize,
                              {bench::modeRun(result, opt, wall_seconds)});
    }
    return 0;
}

int
cmdSynth(int argc, char **argv)
{
    Flags flags;
    declareSynthVerbFlags(flags);
    if (!flags.parse(argc, argv))
        return 1;
    return runQuery(flags, "");
}

int
cmdBench(int argc, char **argv)
{
    Flags flags;
    declareSynthVerbFlags(flags);
    flags.declare("out", "", "also write the suite here ('-' = stdout)");
    flags.declare("json", "", "BENCH_*.json output path (required)");
    if (!flags.parse(argc, argv))
        return 1;
    if (flags.get("json").empty()) {
        std::fprintf(stderr, "ltsgen bench: need --json\n");
        return 1;
    }
    return runQuery(flags, flags.get("json"));
}

int
cmdImport(int argc, char **argv)
{
    Flags flags;
    flags.declare("model", "tso", "model name stamped into emitted headers");
    flags.declare("in", "",
                  "interchange suite, .litmus file, or directory of "
                  ".litmus files to load");
    declareEmitFlags(flags);
    if (!flags.parse(argc, argv))
        return 1;
    if (flags.get("in").empty()) {
        std::fprintf(stderr, "ltsgen import: need --in\n");
        return 1;
    }
    std::vector<litmus::LitmusTest> tests;
    if (!loadTests(flags.get("in"), tests))
        return 1;
    return emitTests(tests, flags.get("model"), flags);
}

int
cmdAudit(int argc, char **argv)
{
    Flags flags;
    flags.declare("model", "tso", "model to audit against");
    flags.declare("in", "", "suite to audit (interchange or herd7)");
    flags.declare("strict", "false",
                  "exit 2 if any test is not minimally synchronized, "
                  "3 if any test could not be audited");
    if (!flags.parse(argc, argv))
        return 1;
    if (flags.get("in").empty()) {
        std::fprintf(stderr, "ltsgen audit: need --in\n");
        return 1;
    }
    std::unique_ptr<mm::Model> model;
    try {
        model = mm::makeModel(flags.get("model"));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ltsgen: %s\n", e.what());
        return 1;
    }
    std::vector<litmus::LitmusTest> tests;
    if (!loadTests(flags.get("in"), tests))
        return 1;
    int redundant = 0;
    int unsupported = 0;
    for (const auto &t : tests) {
        synth::AuditStatus status;
        std::vector<std::string> axioms;
        try {
            axioms = synth::minimalAxioms(*model, t, &status);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "ltsgen: %s: %s\n", t.name.c_str(),
                         e.what());
            return 1;
        }
        if (status == synth::AuditStatus::Unsupported) {
            // Not a minimality verdict: the lone-sc workaround cannot
            // audit tests with more than two SC fences.
            std::printf("%-24s UNSUPPORTED (more than two SC fences)\n",
                        t.name.c_str());
            unsupported++;
            continue;
        }
        std::printf("%-24s %s", t.name.c_str(),
                    axioms.empty() ? "NOT-MINIMAL" : "minimal:");
        for (const auto &a : axioms)
            std::printf(" %s", a.c_str());
        std::printf("\n");
        if (axioms.empty())
            redundant++;
    }
    std::printf("%d/%zu tests are not minimally synchronized under %s\n",
                redundant, tests.size(), model->name().c_str());
    if (unsupported) {
        std::printf("%d tests could not be audited (unsupported SC-fence "
                    "configuration)\n",
                    unsupported);
    }
    if (flags.getBool("strict")) {
        // Unsupported outranks not-minimal: "could not check" must never
        // read as a (failed or passed) minimality verdict.
        if (unsupported)
            return kExitUnsupported;
        if (redundant)
            return kExitNotMinimal;
    }
    return 0;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: ltsgen <verb> [flags]   (ltsgen <verb> --help for flags)\n"
        "  synth   answer a suite request: synthesize, or read the store "
        "or a daemon\n"
        "  import  load .litmus files or a suite; re-emit as interchange, "
        "herd7 or C++11\n"
        "  audit   check an existing suite for minimality\n"
        "  bench   synth, and record the run into BENCH_*.json\n");
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && argv[1][0] != '-') {
        const std::string verb = argv[1];
        // Shift the verb out so each subcommand parses its own flags.
        if (verb == "synth")
            return cmdSynth(argc - 1, argv + 1);
        if (verb == "import")
            return cmdImport(argc - 1, argv + 1);
        if (verb == "audit")
            return cmdAudit(argc - 1, argv + 1);
        if (verb == "bench")
            return cmdBench(argc - 1, argv + 1);
        std::fprintf(stderr, "ltsgen: unknown verb '%s'\n", verb.c_str());
        return usage();
    }
    return usage();
}
