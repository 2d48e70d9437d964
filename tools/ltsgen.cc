/**
 * @file
 * ltsgen — the command-line front end to the synthesis service.
 *
 * Subcommand surface (every path goes through synth::Service, so the
 * store and daemon answer the same bytes the engines produce):
 *
 *   ltsgen synth  --model=tso --max-size=5 [--store=DIR]   # synthesize
 *   ltsgen query  --model=tso [--store=DIR | --socket=S]   # cached query
 *   ltsgen export --in=suite.txt --litmus=out/ [--cxx=out/]
 *   ltsgen import --in=out/ --out=suite.txt                # .litmus -> text
 *   ltsgen audit  --model=tso --in=suite.litmus [--strict]
 *   ltsgen bench  --model=tso --json=BENCH_tso.json
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
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
 * name, so the NNN_ prefixes `ltsgen export` writes preserve order).
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

struct EmitSpec
{
    std::string out = "-";
    std::string litmusDir;
    std::string cxxDir;
    bool pretty = false;
};

/** Emit @p tests per the spec; per-file emission mutes the stdout dump
 *  unless --out was set explicitly (the historical behavior). */
int
emitTests(const std::vector<litmus::LitmusTest> &tests,
          const std::string &model_name, const EmitSpec &spec)
{
    bool emitted = false;
    if (!spec.litmusDir.empty()) {
        if (!emitSuiteFiles(tests, spec.litmusDir, false, model_name))
            return 1;
        emitted = true;
    }
    if (!spec.cxxDir.empty()) {
        if (!emitSuiteFiles(tests, spec.cxxDir, true, model_name))
            return 1;
        emitted = true;
    }
    if (emitted && spec.out == "-")
        return 0;
    return writeSuiteText(tests, spec.out, spec.pretty) ? 0 : 1;
}

int
doAudit(const std::string &model_name, const std::string &path, bool strict)
{
    std::unique_ptr<mm::Model> model;
    try {
        model = mm::makeModel(model_name);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ltsgen: %s\n", e.what());
        return 1;
    }
    std::vector<litmus::LitmusTest> tests;
    if (!loadTests(path, tests))
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
    if (strict) {
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
doImport(const std::string &in_path, const EmitSpec &spec,
         const std::string &model_name)
{
    std::vector<litmus::LitmusTest> tests;
    if (!loadTests(in_path, tests))
        return 1;
    return emitTests(tests, model_name, spec);
}

/** Summarize a service result on stderr (the --stats surface). */
void
printResultStats(const synth::SuiteResult &result, double wall_seconds)
{
    const synth::Suite &suite = result.unionSuite();
    std::fprintf(stderr,
                 "model=%s axiom=%s: %zu tests, wall %.2fs, cpu %.2fs\n",
                 suite.model.c_str(), suite.axiom.c_str(),
                 suite.tests.size(), wall_seconds, suite.totalSeconds());
    for (auto [size, count] : suite.testsBySize) {
        std::fprintf(stderr, "  size %d: %d tests (%.3fs)%s\n", size, count,
                     suite.secondsBySize.count(size)
                         ? suite.secondsBySize.at(size)
                         : 0.0,
                     suite.truncated ? " [truncated]" : "");
    }
    const synth::SynthProgressSnapshot &p = result.progress;
    std::fprintf(stderr,
                 "  jobs: %llu; %llu SAT conflicts, %llu instances "
                 "enumerated\n",
                 static_cast<unsigned long long>(p.jobsQueued),
                 static_cast<unsigned long long>(p.conflicts),
                 static_cast<unsigned long long>(p.instances));
    std::fprintf(stderr,
                 "  solver: %llu restarts; simplify removed %llu vars, "
                 "%llu clauses\n",
                 static_cast<unsigned long long>(p.restarts),
                 static_cast<unsigned long long>(p.eliminatedVars),
                 static_cast<unsigned long long>(p.subsumedClauses));
    std::fprintf(stderr, "  suite: %s\n", result.suiteDigest.c_str());
    std::fprintf(stderr, "  cache: %s (%llu shards cached, %llu synthesized)\n",
                 synth::toString(result.cache).c_str(),
                 static_cast<unsigned long long>(result.shardsCached),
                 static_cast<unsigned long long>(result.shardsSynthesized));
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

// --- subcommands -------------------------------------------------------------

void
declareSynthVerbFlags(Flags &flags)
{
    flags.declare("model", "tso", "memory model: sc|tso|power|armv7|scc|c11");
    flags.declare("axiom", "union", "axiom to target, or 'union' for all");
    synth::declareSynthFlags(flags);
    flags.declare("out", "-", "output file ('-' = stdout)");
    flags.declare("stats", "false", "print per-size counts and runtimes");
    flags.declare("pretty", "false",
                  "print human-readable tables instead of .litmus text");
    flags.declare("emit-litmus", "",
                  "also write each test as a herd7 NNN_name.litmus file "
                  "into this directory (plus an @all index)");
    flags.declare("emit-cxx", "",
                  "also write each test as a self-contained C++11 stress "
                  "harness NNN_name.cc into this directory");
    flags.declare("store", "",
                  "content-addressed suite store directory; repeat "
                  "queries are answered from it byte-identically");
    flags.declare("proof-check", "false",
                  "after synthesis, run the independent DRAT checker over "
                  "every proof in the --proof directory (a temporary "
                  "directory when --proof is unset) and fail on any bad "
                  "proof");
}

int
cmdSynth(int argc, char **argv)
{
    Flags flags;
    declareSynthVerbFlags(flags);
    if (!flags.parse(argc, argv))
        return 1;

    synth::SuiteRequest request;
    if (!requestFromFlags(flags, request))
        return 1;

    bool proof_check = flags.getBool("proof-check");
    std::filesystem::path temp_proof_dir;
    if (proof_check && request.options.proofDir.empty()) {
        temp_proof_dir = std::filesystem::temp_directory_path() /
                         ("ltsgen-proof-" + std::to_string(::getpid()));
        request.options.proofDir = temp_proof_dir.string();
    }
    std::error_code mk_ec;
    if (!request.options.proofDir.empty())
        std::filesystem::create_directories(request.options.proofDir, mk_ec);
    if (!request.options.dumpDimacsDir.empty()) {
        std::filesystem::create_directories(request.options.dumpDimacsDir,
                                            mk_ec);
    }

    synth::ServiceConfig config;
    config.storeDir = flags.get("store");
    synth::Service service(config);

    Timer wall;
    synth::SuiteResult result;
    try {
        result = service.query(request);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ltsgen: %s\n", e.what());
        return 1;
    }
    const synth::Suite &suite = result.unionSuite();

    EmitSpec spec;
    spec.out = flags.get("out");
    spec.litmusDir = flags.get("emit-litmus");
    spec.cxxDir = flags.get("emit-cxx");
    spec.pretty = flags.getBool("pretty");
    int rc = emitTests(suite.tests, request.model, spec);
    if (rc != 0)
        return rc;

    if (flags.getBool("stats"))
        printResultStats(result, wall.seconds());

    if (proof_check) {
        std::fprintf(stderr, "ltsgen: checking proofs under %s\n",
                     request.options.proofDir.c_str());
        // Cache hits ran no solver and wrote no proof: there is nothing
        // to check, but silently passing would overstate what was
        // verified, so say so and fail.
        int bad = checkProofDir(request.options.proofDir);
        if (!temp_proof_dir.empty()) {
            std::error_code rm_ec;
            std::filesystem::remove_all(temp_proof_dir, rm_ec);
        }
        if (bad != 0) {
            std::fprintf(stderr, "ltsgen: %d bad proof(s)\n", bad);
            return 1;
        }
    }
    return 0;
}

int
cmdQuery(int argc, char **argv)
{
    Flags flags;
    flags.declare("model", "tso", "memory model: sc|tso|power|armv7|scc|c11");
    flags.declare("axiom", "union", "axiom to target, or 'union' for all");
    synth::declareSynthFlags(flags);
    flags.declare("store", "",
                  "suite store directory (local mode; '' = no store)");
    flags.declare("socket", "",
                  "query a running ltsd on this socket instead of "
                  "synthesizing locally");
    flags.declare("out", "", "also write the suite here ('-' = stdout)");
    flags.declare("progress", "false", "stream progress lines to stderr");
    if (!flags.parse(argc, argv))
        return 1;

    synth::SuiteRequest request;
    if (!requestFromFlags(flags, request))
        return 1;

    synth::QueryProgressFn on_progress;
    if (flags.getBool("progress")) {
        on_progress = [](const std::string &line) {
            std::fprintf(stderr, "ltsgen: %s\n", line.c_str());
        };
    }

    Timer wall;
    synth::SuiteResult result;
    try {
        if (!flags.get("socket").empty()) {
            result = synth::queryDaemon(flags.get("socket"), request,
                                        on_progress);
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

    // One key per line, grep-friendly: the CI smoke job asserts on
    // "suite:" (digest equality) and "cache: hit".
    std::printf("model: %s\n", request.model.c_str());
    std::printf("bound: %d\n", request.maxSize);
    std::printf("suite: %s\n", result.suiteDigest.c_str());
    std::printf("cache: %s\n", synth::toString(result.cache).c_str());
    std::printf("shards: %llu cached, %llu synthesized\n",
                static_cast<unsigned long long>(result.shardsCached),
                static_cast<unsigned long long>(result.shardsSynthesized));
    std::printf("tests: %zu\n", result.unionSuite().tests.size());
    std::printf("wall: %.6f\n", wall.seconds());

    if (!flags.get("out").empty()) {
        if (!writeSuiteText(result.unionSuite().tests, flags.get("out"),
                            false)) {
            return 1;
        }
    }
    return 0;
}

int
cmdExport(int argc, char **argv)
{
    Flags flags;
    flags.declare("model", "tso", "model name stamped into file headers");
    flags.declare("in", "", "interchange suite (or .litmus file/dir) to read");
    flags.declare("litmus", "", "write herd7 .litmus files into this dir");
    flags.declare("cxx", "", "write C++11 stress harnesses into this dir");
    if (!flags.parse(argc, argv))
        return 1;
    if (flags.get("in").empty() ||
        (flags.get("litmus").empty() && flags.get("cxx").empty())) {
        std::fprintf(stderr,
                     "ltsgen export: need --in and --litmus or --cxx\n");
        return 1;
    }
    EmitSpec spec;
    spec.litmusDir = flags.get("litmus");
    spec.cxxDir = flags.get("cxx");
    return doImport(flags.get("in"), spec, flags.get("model"));
}

int
cmdImport(int argc, char **argv)
{
    Flags flags;
    flags.declare("model", "tso", "model name stamped into emitted headers");
    flags.declare("in", "", "file or directory of .litmus files to load");
    flags.declare("out", "-", "interchange output ('-' = stdout)");
    flags.declare("pretty", "false", "human-readable tables instead");
    flags.declare("emit-litmus", "", "re-emit herd7 files into this dir");
    flags.declare("emit-cxx", "", "re-emit C++11 harnesses into this dir");
    if (!flags.parse(argc, argv))
        return 1;
    if (flags.get("in").empty()) {
        std::fprintf(stderr, "ltsgen import: need --in\n");
        return 1;
    }
    EmitSpec spec;
    spec.out = flags.get("out");
    spec.litmusDir = flags.get("emit-litmus");
    spec.cxxDir = flags.get("emit-cxx");
    spec.pretty = flags.getBool("pretty");
    return doImport(flags.get("in"), spec, flags.get("model"));
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
    return doAudit(flags.get("model"), flags.get("in"),
                   flags.getBool("strict"));
}

int
cmdBench(int argc, char **argv)
{
    Flags flags;
    flags.declare("model", "tso", "memory model to measure");
    flags.declare("axiom", "union", "axiom to target, or 'union' for all");
    synth::declareSynthFlags(flags);
    flags.declare("store", "", "suite store directory ('' = no store)");
    flags.declare("json", "", "BENCH_*.json output path (required)");
    if (!flags.parse(argc, argv))
        return 1;
    if (flags.get("json").empty()) {
        std::fprintf(stderr, "ltsgen bench: need --json\n");
        return 1;
    }
    synth::SuiteRequest request;
    if (!requestFromFlags(flags, request))
        return 1;
    synth::ServiceConfig config;
    config.storeDir = flags.get("store");
    synth::Service service(config);
    Timer wall;
    synth::SuiteResult result;
    try {
        result = service.query(request);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ltsgen: %s\n", e.what());
        return 1;
    }
    const synth::SynthOptions &opt = request.options;
    std::string axiom = request.axiom.empty() ? "union" : request.axiom;
    bench::writeBenchJson(flags.get("json"),
                          "ltsgen-" + request.model + "-" + axiom,
                          request.model, opt.minSize, opt.maxSize,
                          {bench::modeRun(result, opt, wall.seconds())});
    return 0;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: ltsgen <verb> [flags]   (ltsgen <verb> --help for flags)\n"
        "  synth   synthesize a suite (optionally store-backed)\n"
        "  query   answer a suite request from store/daemon/synthesis\n"
        "  export  interchange suite -> herd7 .litmus / C++11 harnesses\n"
        "  import  .litmus files -> interchange suite\n"
        "  audit   check an existing suite for minimality\n"
        "  bench   measure one synthesis run into BENCH_*.json\n");
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
        if (verb == "query")
            return cmdQuery(argc - 1, argv + 1);
        if (verb == "export")
            return cmdExport(argc - 1, argv + 1);
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
