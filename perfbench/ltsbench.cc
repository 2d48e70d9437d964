/**
 * @file
 * The benchmark's measuring program. One invocation measures one step
 * of a workload, a registry model queried at sizes 2..--max-size:
 *
 *   cold      Set-up (model, its digest, a Service on an empty store
 *             under --store) several times, keeping the last; then one
 *             cold full-scope query, which synthesizes and persists
 *             every shard. Prints the populated store's path.
 *   restarts  For --seconds: a restarted daemon-mode Service over the
 *             populated store --store answers its first query, then a
 *             few repeat queries; again and again.
 *   trace     The engine's own cold query as the reference, then the
 *             traced replay (replay.hh), which must reproduce the
 *             reference's digest and counters exactly.
 *   keybytes  Rendered store-key bytes per size, with no synthesis.
 *
 * cold, restarts and trace check every answer against the pinned suite
 * digest. Each mode prints one JSON line of raw samples;
 * perfbench/run.py runs the steps in processes of their own and turns
 * the samples into the benchmark's metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.hh"
#include "common/timer.hh"
#include "litmus/digest.hh"
#include "mm/registry.hh"
#include "replay.hh"
#include "synth/service.hh"

#ifndef LTSBENCH_CXX_FLAGS
#define LTSBENCH_CXX_FLAGS ""
#endif
#ifndef LTSBENCH_BUILD_TYPE
#define LTSBENCH_BUILD_TYPE ""
#endif

namespace
{

namespace synth = lts::synth;

// Set-up runs at least kMinSetups times, and more while the set-up
// phase has used less than kSetupBudgetSeconds, up to kMaxSetups: a
// median over many set-ups steadies the millisecond ones.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 101;
constexpr double kSetupBudgetSeconds = 1;

// The restart tail is the highest percentile with ten samples beyond
// it, so a restarts step makes at least eleven restarts.
constexpr size_t kMinRestarts = 11;

// Repeat queries each restarted Service answers after its first.
constexpr int kRepeats = 4;

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

template <typename T>
std::string
array(const std::vector<T> &vs)
{
    std::string out = "[";
    for (size_t i = 0; i < vs.size(); i++)
        out += (i ? "," : "") + number(static_cast<double>(vs[i]));
    return out + "]";
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/**
 * Counts checked answers and failures. An answer fails on an exception,
 * a truncated suite, a digest other than the pinned one (as carried, or
 * as recomputed from its tests), or an unexpected cache outcome.
 */
class Checker
{
  public:
    explicit Checker(std::string pinned) : pinned(std::move(pinned)) {}

    bool
    answer(const std::string &what, const synth::SuiteResult &r,
           synth::CacheOutcome want)
    {
        attempted++;
        std::string problem;
        if (r.suites.empty())
            problem = "no suites";
        else if (r.unionSuite().truncated)
            problem = "truncated suite";
        else if (r.suiteDigest != pinned)
            problem = "digest " + r.suiteDigest;
        else if (lts::litmus::suiteDigest(r.unionSuite().tests) != pinned)
            problem = "tests do not match the digest";
        else if (r.cache != want)
            problem = "cache " + synth::toString(r.cache);
        if (problem.empty())
            return true;
        fail(what + ": " + problem);
        return false;
    }

    /** A value the replay must reproduce exactly. */
    template <typename T>
    void
    same(const std::string &what, const T &replayed, const T &reference)
    {
        attempted++;
        if (!(replayed == reference))
            fail(what + ": the replay does not reproduce it");
    }

    void
    error(const std::string &what, const std::exception &e)
    {
        attempted++;
        fail(what + ": " + e.what());
    }

    const std::string &digest() const { return pinned; }

    std::string
    json() const
    {
        std::string errs = "[";
        for (size_t i = 0; i < errors.size(); i++)
            errs += (i ? "," : "") + quote(errors[i]);
        return "\"attempted\":" + std::to_string(attempted) +
               ",\"failed\":" + std::to_string(failed) +
               ",\"errors\":" + errs + "]";
    }

  private:
    void
    fail(const std::string &msg)
    {
        failed++;
        if (errors.size() < 10)
            errors.push_back(msg);
    }

    std::string pinned;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;
};

struct Workload
{
    std::string model;
    int maxSize = 0;
    std::string dir; ///< parent of every store this run creates
    int jobs = 1;

    /** The full-scope request with default engine knobs. */
    synth::SuiteRequest
    request() const
    {
        synth::SuiteRequest r;
        r.model = model;
        r.maxSize = maxSize;
        r.options.maxSize = maxSize;
        r.options.jobs = jobs;
        return r;
    }
};

std::string
envJson(const Workload &w)
{
    return "{\"compiler\":" + quote(__VERSION__) +
           ",\"flags\":" + quote(LTSBENCH_CXX_FLAGS) +
           ",\"build_type\":" + quote(LTSBENCH_BUILD_TYPE) +
           ",\"hardware_threads\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"jobs\":" + std::to_string(w.jobs) + "}";
}

int
runCold(const Workload &w, Checker &check)
{
    // Set-up, several times, on one empty store; the last is kept. The
    // store is created before timing: creating a directory and a file
    // writes metadata, whose latency on a shared disk varied 10x within
    // a minute and buried model construction.
    synth::ServiceConfig config;
    config.storeDir = w.dir + "/store";
    synth::Service{config}; // creates the empty store
    std::vector<double> setup_s;
    std::unique_ptr<lts::mm::Model> model;
    std::unique_ptr<synth::Service> service;
    lts::Timer setup_phase;
    for (int i = 0; i < kMaxSetups &&
                    (i < kMinSetups || setup_phase.seconds() < kSetupBudgetSeconds);
         i++) {
        service.reset();
        model.reset();
        lts::Timer timer;
        model = lts::mm::makeModel(w.model);
        model->digest();
        service = std::make_unique<synth::Service>(config);
        setup_s.push_back(timer.seconds());
    }

    // The cold query: synthesizes and persists every shard.
    std::vector<double> cold_s;
    std::vector<double> cold_cpu_s;
    try {
        double cpu = cpuSeconds();
        lts::Timer timer;
        synth::SuiteResult r = service->query(*model, w.request());
        double wall = timer.seconds();
        double used = cpuSeconds() - cpu;
        if (check.answer("cold", r, synth::CacheOutcome::Miss)) {
            cold_s.push_back(wall);
            cold_cpu_s.push_back(used);
        }
    } catch (const std::exception &e) {
        check.error("cold", e);
    }
    service.reset();

    std::printf("{\"store\":%s,\"setup_s\":%s,\"cold_s\":%s,"
                "\"cold_cpu_s\":%s,\"peak_rss_mb\":%s,%s,\"env\":%s}\n",
                quote(w.dir + "/store").c_str(),
                array(setup_s).c_str(), array(cold_s).c_str(),
                array(cold_cpu_s).c_str(), number(peakRssMb()).c_str(),
                check.json().c_str(), envJson(w).c_str());
    return 0;
}

int
runRestarts(const Workload &w, Checker &check, double seconds)
{
    // Restarted daemon-mode Services over the populated store --store:
    // each answers its first query, then kRepeats repeat queries.
    const synth::SuiteRequest request = w.request();
    synth::ServiceConfig daemon;
    daemon.storeDir = w.dir;
    daemon.residentEncodings = true;
    std::unique_ptr<synth::Service> service;
    std::vector<double> restart_ms;
    std::vector<double> resident_ms;
    lts::Timer phase;
    for (size_t round = 0;
         round < kMinRestarts || phase.seconds() < seconds; round++) {
        service.reset();
        try {
            lts::Timer timer;
            service = std::make_unique<synth::Service>(daemon);
            synth::SuiteResult r = service->query(request);
            double ms = timer.milliseconds();
            if (check.answer("restart", r, synth::CacheOutcome::Hit))
                restart_ms.push_back(ms);
        } catch (const std::exception &e) {
            check.error("restart", e);
            continue;
        }
        for (int k = 0; k < kRepeats; k++) {
            try {
                lts::Timer timer;
                synth::SuiteResult r = service->query(request);
                double ms = timer.milliseconds();
                if (check.answer("resident", r, synth::CacheOutcome::Hit))
                    resident_ms.push_back(ms);
            } catch (const std::exception &e) {
                check.error("resident", e);
            }
        }
    }
    service.reset();

    std::printf("{\"restart_ms\":%s,\"resident_ms\":%s,%s,\"env\":%s}\n",
                array(restart_ms).c_str(), array(resident_ms).c_str(),
                check.json().c_str(), envJson(w).c_str());
    return 0;
}

int
runTrace(const Workload &w, Checker &check)
{
    const std::string engine_dir = w.dir + "/engine";
    synth::SuiteResult engine;
    try {
        std::unique_ptr<lts::mm::Model> model = lts::mm::makeModel(w.model);
        synth::ServiceConfig config;
        config.storeDir = engine_dir;
        synth::Service service(config);
        engine = service.query(*model, w.request());
        check.answer("engine", engine, synth::CacheOutcome::Miss);
    } catch (const std::exception &e) {
        check.error("engine", e);
    }

    ltsbench::ReplayReport rep;
    try {
        rep = ltsbench::replaySession(w.model, w.maxSize, engine_dir,
                                      w.dir + "/replay");
    } catch (const std::exception &e) {
        check.error("replay", e);
    }
    const ltsbench::Trace &t = rep.trace;
    auto count = [&](const char *name) {
        auto it = t.counts.find(name);
        return it == t.counts.end() ? uint64_t{0} : it->second;
    };
    const synth::SynthProgressSnapshot &p = engine.progress;
    check.same("cold suite digest", rep.coldDigest, check.digest());
    check.same("restart suite digest", rep.restartDigest, check.digest());
    check.same("wire suite digest", rep.wireDigest, check.digest());
    check.same("shard keys", rep.replayShardKeys, rep.engineShardKeys);
    check.same("conflicts (enumeration + witness)",
               count("sat.enum_conflicts") + count("rel.witness_conflicts"),
               p.conflicts);
    check.same("conflicts (per solver)", rep.solverConflicts, p.conflicts);
    check.same("instances", rep.instances, p.instances);
    check.same("eliminated variables", count("sat.eliminated_vars"),
               p.eliminatedVars);
    check.same("symmetry-breaking clauses", count("rel.sbp_clauses"),
               p.sbpClauses);

    std::string layers;
    auto put = [&](const std::string &name, double v) {
        layers += (layers.empty() ? "" : ",") + quote(name) + ":" + number(v);
    };
    for (const auto &[name, secs] : t.seconds)
        put(name, secs);
    for (const auto &[name, n] : t.counts)
        put(name, static_cast<double>(n));
    put("synth.critical_shard_s", rep.criticalJobSeconds);
    put("trace.coverage",
        rep.wallSeconds > 0 ? t.covered / rep.wallSeconds : 0.0);
    put("trace.wall_s", rep.wallSeconds);

    std::printf("{\"layers\":{%s},\"key_bytes_by_size\":%s,"
                "\"engine\":{\"conflicts\":%llu,\"instances\":%llu},%s,"
                "\"env\":%s}\n",
                layers.c_str(), array(rep.keyBytesBySize).c_str(),
                static_cast<unsigned long long>(p.conflicts),
                static_cast<unsigned long long>(p.instances),
                check.json().c_str(), envJson(w).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    lts::Flags flags;
    flags.declare("model", "tso", "registry model name");
    flags.declare("max-size", "4", "largest test size (sizes start at 2)");
    flags.declare("digest", "", "pinned union-suite digest");
    flags.declare("store", "",
                  "cold, trace: empty directory for the stores; "
                  "restarts: the store a cold step populated");
    flags.declare("seconds", "10", "restarts: how long to keep restarting");
    if (!flags.parse(argc, argv) || flags.positional().size() != 1) {
        std::fprintf(stderr, "usage: ltsbench cold|restarts|trace|keybytes "
                             "[flags]\n");
        return 2;
    }
    const std::string mode = flags.positional()[0];

    Workload w;
    w.model = flags.get("model");
    w.maxSize = flags.getInt("max-size");
    w.dir = flags.get("store");
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    w.jobs = static_cast<int>(std::min(hw, 4u));
    try {
        if (mode == "keybytes") {
            std::printf("{\"model\":%s,\"key_bytes_by_size\":%s}\n",
                        quote(w.model).c_str(),
                        array(ltsbench::keyBytesBySize(w.model, w.maxSize))
                            .c_str());
            return 0;
        }
        if (mode != "cold" && mode != "restarts" && mode != "trace") {
            std::fprintf(stderr, "ltsbench: unknown mode '%s'\n",
                         mode.c_str());
            return 2;
        }
        if (flags.get("digest").empty() || w.dir.empty()) {
            std::fprintf(stderr, "ltsbench: %s needs --digest and --store\n",
                         mode.c_str());
            return 2;
        }
        Checker check(flags.get("digest"));
        if (mode == "cold")
            return runCold(w, check);
        if (mode == "restarts")
            return runRestarts(w, check, flags.getDouble("seconds"));
        return runTrace(w, check);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ltsbench: %s\n", e.what());
        return 1;
    }
}
