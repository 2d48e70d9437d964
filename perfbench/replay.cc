#include "replay.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/hash.hh"
#include "common/strings.hh"
#include "common/timer.hh"
#include "litmus/canon.hh"
#include "litmus/digest.hh"
#include "litmus/format.hh"
#include "mm/convert.hh"
#include "mm/registry.hh"
#include "rel/encoder.hh"
#include "store/store.hh"
#include "store/wire.hh"
#include "synth/minimality.hh"
#include "synth/service.hh"

namespace ltsbench
{

namespace litmus = lts::litmus;
namespace mm = lts::mm;
namespace rel = lts::rel;
namespace sat = lts::sat;
namespace store = lts::store;
namespace synth = lts::synth;
using litmus::LitmusTest;

namespace
{

/** SynthOptions::minSize's default, which every benchmark query uses. */
constexpr int kMinSize = 2;

using ShardGrid = std::vector<std::vector<synth::ShardResult>>;

// --- keying (synth/service.cc: baseFormulaDigest, violationDigest) -----------

std::string
hex16(uint64_t h)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
renderedKey(Trace &t, const char *tag, const rel::FormulaPtr &f,
            uint64_t &bytes)
{
    std::string text = f->toString();
    bytes += text.size();
    t.add("service.key_bytes", text.size());
    uint64_t h = lts::hashInit();
    h = lts::hashCombine(h, std::string_view(tag));
    h = lts::hashCombine(h, std::string_view(text));
    return hex16(h);
}

std::string
baseKey(Trace &t, const mm::Model &model, int size, uint64_t &bytes)
{
    Span span(t, "service.base_digest_s");
    return renderedKey(t, "lts-base-v1",
                       synth::minimalityBase(model, static_cast<size_t>(size)),
                       bytes);
}

std::string
violationKey(Trace &t, const mm::Model &model, const std::string &axiom,
             int size, uint64_t &bytes)
{
    Span span(t, "service.violation_digest_s");
    return renderedKey(
        t, "lts-viol-v1",
        synth::axiomViolation(model, axiom, static_cast<size_t>(size)), bytes);
}

std::string
manifestKey(const std::string &model_digest, int max_size,
            const std::string &options_digest)
{
    return "suite/" + model_digest + "/n" + std::to_string(kMinSize) + "-" +
           std::to_string(max_size) + "/" + options_digest;
}

// --- store records (synth/service.cc: shard records, manifests) --------------

std::string
serializeShard(const synth::ShardResult &shard)
{
    std::ostringstream out;
    out << "shard " << synth::kServiceFormat << "\n";
    out << "raw " << shard.rawInstances << "\n";
    out << "sbp " << shard.sbpClauses << "\n";
    out << "truncated " << (shard.truncated ? 1 : 0) << "\n";
    char secs[32];
    std::snprintf(secs, sizeof secs, "%.6f", shard.seconds);
    out << "seconds " << secs << "\n";
    out << "tests " << shard.tests.size() << "\n";
    litmus::writeLitmusSuite(out, shard.tests);
    return out.str();
}

struct Manifest
{
    std::string suiteDigest;
    std::vector<std::pair<std::string, std::vector<std::string>>> axioms;
};

std::string
serializeManifest(const Manifest &m)
{
    std::ostringstream out;
    out << "manifest " << synth::kServiceFormat << "\n";
    out << "digest " << m.suiteDigest << "\n";
    out << "axioms " << m.axioms.size() << "\n";
    for (const auto &[axiom, keys] : m.axioms) {
        out << "axiom " << keys.size() << " " << axiom << "\n";
        for (const auto &key : keys)
            out << "shard " << key << "\n";
    }
    return out.str();
}

/** "key value" lines, blank lines skipped, then litmus interchange text. */
class RecordReader
{
  public:
    explicit RecordReader(const std::string &text) : in(text) {}

    std::string
    field(const std::string &key)
    {
        std::string l;
        do {
            if (!std::getline(in, l))
                throw std::runtime_error("replay: truncated record");
        } while (lts::trim(l).empty());
        if (l.size() <= key.size() || l.compare(0, key.size(), key) != 0 ||
            l[key.size()] != ' ') {
            throw std::runtime_error("replay: expected '" + key +
                                     "' line, got '" + l + "'");
        }
        return l.substr(key.size() + 1);
    }

    uint64_t
    u64(const std::string &key)
    {
        return std::stoull(field(key));
    }

    std::vector<LitmusTest>
    tests(size_t count)
    {
        std::string chunk;
        std::string l;
        size_t ends = 0;
        while (ends < count && std::getline(in, l)) {
            chunk += l;
            chunk += '\n';
            if (lts::trim(l) == "end")
                ends++;
        }
        std::istringstream chunk_in(chunk);
        std::vector<LitmusTest> suite = litmus::parseLitmusSuite(chunk_in);
        if (suite.size() != count)
            throw std::runtime_error("replay: shard record test count");
        return suite;
    }

  private:
    std::istringstream in;
};

synth::ShardResult
parseShard(const std::string &text)
{
    RecordReader r(text);
    if (r.field("shard") != synth::kServiceFormat)
        throw std::runtime_error("replay: shard record format");
    synth::ShardResult shard;
    shard.rawInstances = r.u64("raw");
    shard.sbpClauses = r.u64("sbp");
    shard.truncated = r.u64("truncated") != 0;
    r.field("seconds");
    shard.tests = r.tests(static_cast<size_t>(r.u64("tests")));
    return shard;
}

Manifest
parseManifest(const std::string &text)
{
    RecordReader r(text);
    if (r.field("manifest") != synth::kServiceFormat)
        throw std::runtime_error("replay: manifest format");
    Manifest m;
    m.suiteDigest = r.field("digest");
    size_t n_axioms = r.u64("axioms");
    for (size_t i = 0; i < n_axioms; i++) {
        std::string head = r.field("axiom");
        size_t space = head.find(' ');
        if (space == std::string::npos)
            throw std::runtime_error("replay: manifest axiom line");
        size_t n_keys = std::stoull(head.substr(0, space));
        std::vector<std::string> keys;
        for (size_t k = 0; k < n_keys; k++)
            keys.push_back(r.field("shard"));
        m.axioms.emplace_back(head.substr(space + 1), std::move(keys));
    }
    return m;
}

/** SuiteStore::get plus the record decode the service runs on it. */
template <typename Decode>
auto
readRecord(Trace &t, store::SuiteStore &s, const std::string &key,
           Decode &&decode)
{
    Span span(t, "store.get_s");
    std::optional<std::string> bytes = s.get(key);
    if (!bytes)
        throw std::runtime_error("replay: store has no record " + key);
    t.add("store.bytes_read", bytes->size());
    return decode(*bytes);
}

/** A get the cold query expects to miss (an empty store). */
void
probeMiss(Trace &t, store::SuiteStore &s, const std::string &key)
{
    Span span(t, "store.get_s");
    if (s.get(key))
        throw std::runtime_error("replay: scratch store is not empty");
}

// --- the incremental engine (synth/synthesizer.cc) ---------------------------

LitmusTest
canonical(Trace &t, const LitmusTest &test)
{
    Span span(t, "litmus.canon_s");
    t.add("litmus.canon_calls", 1);
    return litmus::canonicalize(test, litmus::CanonMode::Paper);
}

bool
wgContiguous(const LitmusTest &test)
{
    if (!test.hasWorkgroups())
        return true;
    std::vector<char> seen(static_cast<size_t>(test.numThreads), 0);
    int cur = -1;
    for (int tid = 0; tid < test.numThreads; tid++) {
        int wg = test.workgroupOf(tid);
        if (wg == cur)
            continue;
        if (seen[static_cast<size_t>(wg)])
            return false;
        seen[static_cast<size_t>(wg)] = 1;
        cur = wg;
    }
    return true;
}

/** Distinct encodable thread-permutation images, deduplicated by
 *  static serialization (static-blocking mode). */
std::vector<LitmusTest>
validArrangements(const LitmusTest &test)
{
    std::vector<int> order(static_cast<size_t>(test.numThreads));
    std::iota(order.begin(), order.end(), 0);
    std::vector<LitmusTest> out;
    std::set<std::string> seen;
    do {
        LitmusTest arr = litmus::permuteThreads(test, order);
        if (!wgContiguous(arr))
            continue;
        if (seen.insert(litmus::staticSerialize(arr)).second)
            out.push_back(std::move(arr));
    } while (std::next_permutation(order.begin(), order.end()));
    return out;
}

sat::SolveResult
enumSolve(Trace &t, rel::RelSolver &solver)
{
    sat::SolverStats before = solver.satSolver().stats();
    sat::SolveResult res =
        timed(t, "sat.enum_solve_s", [&] { return solver.solve(); });
    const sat::SolverStats &after = solver.satSolver().stats();
    t.add("sat.enum_solves", 1);
    t.add("sat.enum_conflicts", after.conflicts - before.conflicts);
    t.add("sat.enum_propagations", after.propagations - before.propagations);
    return res;
}

bool
witness(Trace &t, rel::RelSolver &solver, const rel::Instance &pin,
        const std::vector<int> &block_vars, rel::FactHandle layer)
{
    sat::SolverStats before = solver.satSolver().stats();
    bool ok = timed(t, "rel.witness_s", [&] {
        return solver.pinAndMinimize(pin, block_vars, {layer});
    });
    const sat::SolverStats &after = solver.satSolver().stats();
    t.add("rel.witness_calls", 1);
    t.add("rel.witness_conflicts", after.conflicts - before.conflicts);
    t.add("rel.witness_propagations",
          after.propagations - before.propagations);
    return ok;
}

/** enumerateTrack under default options: static blocking, Paper
 *  canonicalization, no budget or cap. */
synth::ShardResult
enumerateShard(Trace &t, const mm::Model &model, rel::RelSolver &solver,
               const std::vector<int> &block_vars, rel::FactHandle layer,
               bool sbp_active)
{
    lts::Timer timer;
    synth::ShardResult result;
    size_t n = solver.encoder().universe();
    rel::FactHandle block_layer =
        timed(t, "rel.block_s", [&] { return solver.newLayer(); });
    auto toInstance = [&](const LitmusTest &test) {
        return timed(t, "mm.convert_s", [&] {
            return mm::toInstance(model, test, litmus::Outcome(n));
        });
    };
    auto fromInstance = [&] {
        return timed(t, "mm.convert_s", [&] {
            return mm::fromInstance(model, solver.instance());
        });
    };

    std::map<std::string, LitmusTest> byKey;
    sat::SolveResult res = enumSolve(t, solver);
    while (res == sat::SolveResult::Sat) {
        result.rawInstances++;
        LitmusTest found = fromInstance();
        timed(t, "rel.block_s",
              [&] { solver.blockModel(block_vars, block_layer); });

        std::vector<LitmusTest> arrs;
        std::vector<std::string> arr_static, arr_bucket;
        auto computeArrs = [&] {
            Span span(t, "synth.orbit_s");
            arrs = validArrangements(found);
            t.add("synth.orbit_images", arrs.size());
            for (const LitmusTest &arr : arrs) {
                arr_static.push_back(litmus::staticSerialize(arr));
                arr_bucket.push_back(
                    litmus::staticSerialize(canonical(t, arr)));
            }
        };

        std::set<std::string> keys;
        if (sbp_active) {
            computeArrs();
            for (const LitmusTest &arr : arrs) {
                rel::Instance inst = toInstance(arr);
                timed(t, "rel.block_s", [&] {
                    solver.blockInstance(inst, block_vars, block_layer);
                });
            }
            keys.insert(arr_bucket.begin(), arr_bucket.end());
        } else {
            keys.insert(litmus::staticSerialize(canonical(t, found)));
        }

        for (const std::string &key : keys) {
            if (byKey.count(key))
                continue;
            if (arrs.empty())
                computeArrs();
            size_t best = arrs.size();
            for (size_t k = 0; k < arrs.size(); k++) {
                if (arr_bucket[k] != key)
                    continue;
                if (best == arrs.size() || arr_static[k] < arr_static[best])
                    best = k;
            }
            if (best == arrs.size())
                throw std::runtime_error("replay: bucket without an image");
            rel::Instance pin = toInstance(arrs[best]);
            if (!witness(t, solver, pin, block_vars, layer))
                throw std::runtime_error("replay: pinned program has no "
                                         "witness");
            byKey.emplace(key, canonical(t, fromInstance()));
        }
        res = enumSolve(t, solver);
    }
    if (res != sat::SolveResult::Unsat)
        throw std::runtime_error("replay: enumeration did not finish");
    timed(t, "rel.block_s", [&] { solver.retract(block_layer); });

    for (auto &kv : byKey)
        result.tests.push_back(std::move(kv.second));
    result.seconds = timer.seconds();
    return result;
}

/** runIncrementalSizeJob: one solver per size, axioms swept as layers. */
std::vector<synth::ShardResult>
replaySize(Trace &t, const mm::Model &model,
           const std::vector<std::string> &axioms, int size,
           ReplayReport &rep)
{
    size_t n = static_cast<size_t>(size);
    rel::FormulaPtr base = timed(t, "synth.criterion_s",
                                 [&] { return synth::minimalityBase(model, n); });
    std::unique_ptr<rel::RelSolver> solver;
    {
        Span span(t, "rel.encode_s");
        solver = std::make_unique<rel::RelSolver>(model.vocab(), n);
        solver->addBaseFact(base);
    }
    t.add("rel.vars", static_cast<uint64_t>(solver->satSolver().numVars()));
    t.add("rel.clauses",
          static_cast<uint64_t>(solver->satSolver().numClauses()));
    timed(t, "sat.simplify_s", [&] { solver->simplifyBase(); });
    t.add("sat.eliminated_vars", solver->satSolver().stats().eliminatedVars);

    bool sbp_active = false;
    {
        Span span(t, "rel.sbp_s");
        rel::SymmetrySpec spec = model.symmetrySpec(n);
        if (!spec.empty()) {
            rel::SymmetryStats stats;
            solver->addSymmetryBreaking(spec, &stats);
            t.add("rel.sbp_clauses", stats.clauses);
            sbp_active = true;
        }
    }
    std::vector<int> block_vars = model.staticVarIds();

    std::vector<synth::ShardResult> out;
    for (const std::string &axiom : axioms) {
        rel::FormulaPtr violation = timed(t, "synth.criterion_s", [&] {
            return synth::axiomViolation(model, axiom, n);
        });
        rel::FactHandle layer = timed(
            t, "rel.encode_s", [&] { return solver->addFact(violation); });
        out.push_back(
            enumerateShard(t, model, *solver, block_vars, layer, sbp_active));
        timed(t, "rel.block_s", [&] { solver->retract(layer); });
        rep.instances += out.back().rawInstances;
    }
    rep.solverConflicts += solver->satSolver().stats().conflicts;
    // Tearing the encoding down is part of what a size job costs.
    timed(t, "rel.encode_s", [&] { solver.reset(); });
    return out;
}

/** Service::query's assembly: per-axiom suites, union, digest. */
std::vector<synth::Suite>
assemble(Trace &t, const mm::Model &model,
         const std::vector<std::string> &axioms, const ShardGrid &shards,
         std::string &digest)
{
    Span span(t, "synth.assemble_s");
    std::vector<synth::Suite> suites;
    for (size_t ai = 0; ai < axioms.size(); ai++) {
        suites.push_back(
            synth::assembleShardSuite(model, axioms[ai], shards[ai], kMinSize));
    }
    suites.push_back(synth::unionSuites(suites, synth::SynthOptions()));
    digest = litmus::suiteDigest(suites.back().tests);
    return suites;
}

std::vector<std::string>
axiomNames(const mm::Model &model)
{
    std::vector<std::string> names;
    for (const auto &axiom : model.axioms())
        names.push_back(axiom.name);
    return names;
}

/** writeFrame/readFrame over a socketpair, as between ltsd and a client. */
std::string
frameRoundTrip(const std::string &payload)
{
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        throw std::runtime_error("replay: socketpair failed");
    store::Frame frame;
    bool received = false;
    std::thread reader([&] { received = store::readFrame(fds[1], frame); });
    bool sent = store::writeFrame(fds[0], store::FrameType::Result, payload);
    ::close(fds[0]); // EOF for the reader even when the write failed
    reader.join();
    ::close(fds[1]);
    if (!sent || !received || frame.type != store::FrameType::Result)
        throw std::runtime_error("replay: frame round trip failed");
    return std::move(frame.payload);
}

/** A restarted daemon's first query: the manifest path on @p dir, then
 *  the result's trip over the wire. */
void
replayRestart(Trace &t, const std::string &model_name, int max_size,
              const std::string &dir, ReplayReport &rep)
{
    std::unique_ptr<store::SuiteStore> suite_store =
        timed(t, "store.open_s",
              [&] { return std::make_unique<store::SuiteStore>(dir); });
    std::unique_ptr<mm::Model> model = mm::makeModel(model_name);
    std::string model_digest =
        timed(t, "mm.digest_s", [&] { return model->digest(); });
    synth::SynthOptions options;
    options.maxSize = max_size;
    std::string options_digest = synth::optionsDigest(options);
    uint64_t rendered = 0;
    for (int size = kMinSize; size <= max_size; size++)
        baseKey(t, *model, size, rendered);

    Manifest manifest = readRecord(
        t, *suite_store, manifestKey(model_digest, max_size, options_digest),
        parseManifest);
    std::vector<std::string> axioms = axiomNames(*model);
    if (manifest.axioms.size() != axioms.size())
        throw std::runtime_error("replay: manifest axiom count");
    ShardGrid shards(axioms.size());
    for (size_t ai = 0; ai < axioms.size(); ai++) {
        if (manifest.axioms[ai].first != axioms[ai])
            throw std::runtime_error("replay: manifest axiom order");
        for (const std::string &key : manifest.axioms[ai].second) {
            rep.engineShardKeys.push_back(key);
            shards[ai].push_back(readRecord(t, *suite_store, key, parseShard));
        }
    }

    synth::SuiteResult result;
    result.suites = assemble(t, *model, axioms, shards, rep.restartDigest);
    result.modelDigest = model_digest;
    result.optionsDigest = options_digest;
    result.suiteDigest = rep.restartDigest;
    result.cache = synth::CacheOutcome::Hit;
    for (size_t ai = 0; ai < axioms.size(); ai++) {
        for (size_t si = 0; si < shards[ai].size(); si++) {
            result.shards.push_back({axioms[ai],
                                     kMinSize + static_cast<int>(si), true,
                                     shards[ai][si].tests.size(),
                                     std::string()});
        }
    }
    result.shardsCached = result.shards.size();

    std::string payload = timed(t, "wire.serialize_s", [&] {
        return synth::serializeSuiteResult(result);
    });
    t.add("wire.result_bytes", payload.size());
    std::string received =
        timed(t, "wire.frame_s", [&] { return frameRoundTrip(payload); });
    synth::SuiteResult parsed = timed(
        t, "wire.parse_s", [&] { return synth::parseSuiteResult(received); });
    rep.wireDigest = litmus::suiteDigest(parsed.unionSuite().tests);
}

} // namespace

ReplayReport
replaySession(const std::string &model_name, int max_size,
              const std::string &engine_store_dir,
              const std::string &scratch_store_dir)
{
    ReplayReport rep;
    Trace &t = rep.trace;
    lts::Timer wall;
    const size_t n_sizes = static_cast<size_t>(max_size - kMinSize + 1);
    rep.keyBytesBySize.assign(n_sizes, 0);

    // Set-up: the model, its digest, a store on an empty directory.
    std::unique_ptr<mm::Model> model = mm::makeModel(model_name);
    std::string model_digest =
        timed(t, "mm.digest_s", [&] { return model->digest(); });
    std::unique_ptr<store::SuiteStore> suite_store =
        timed(t, "store.open_s", [&] {
            return std::make_unique<store::SuiteStore>(scratch_store_dir);
        });

    // Cold query, keying: base digests, then the manifest and shard
    // probes, which miss.
    synth::SynthOptions options;
    options.maxSize = max_size;
    std::string options_digest = synth::optionsDigest(options);
    std::vector<std::string> axioms = axiomNames(*model);
    std::vector<std::string> base(n_sizes);
    for (size_t si = 0; si < n_sizes; si++) {
        base[si] = baseKey(t, *model, kMinSize + static_cast<int>(si),
                           rep.keyBytesBySize[si]);
    }
    std::string manifest_key =
        manifestKey(model_digest, max_size, options_digest);
    probeMiss(t, *suite_store, manifest_key);
    auto shardKey = [&](size_t ai, size_t si, uint64_t &bytes) {
        int size = kMinSize + static_cast<int>(si);
        return "shard/" + base[si] + "/" +
               violationKey(t, *model, axioms[ai], size, bytes) + "/" +
               options_digest + "/n" + std::to_string(size);
    };
    for (size_t ai = 0; ai < axioms.size(); ai++) {
        for (size_t si = 0; si < n_sizes; si++) {
            probeMiss(t, *suite_store,
                      shardKey(ai, si, rep.keyBytesBySize[si]));
        }
    }

    // Synthesis, one size job at a time, then assembly.
    ShardGrid shards(axioms.size(), std::vector<synth::ShardResult>(n_sizes));
    for (size_t si = 0; si < n_sizes; si++) {
        lts::Timer job;
        std::vector<synth::ShardResult> per_axiom = replaySize(
            t, *model, axioms, kMinSize + static_cast<int>(si), rep);
        rep.criticalJobSeconds = std::max(rep.criticalJobSeconds, job.seconds());
        for (size_t ai = 0; ai < axioms.size(); ai++)
            shards[ai][si] = std::move(per_axiom[ai]);
    }
    assemble(t, *model, axioms, shards, rep.coldDigest);

    // Persist every shard and the manifest (keys rendered again, as the
    // service does).
    Manifest manifest;
    manifest.suiteDigest = rep.coldDigest;
    for (size_t ai = 0; ai < axioms.size(); ai++) {
        std::vector<std::string> keys;
        for (size_t si = 0; si < n_sizes; si++) {
            uint64_t rendered = 0;
            std::string key = shardKey(ai, si, rendered);
            {
                Span span(t, "store.put_s");
                suite_store->put(key, serializeShard(shards[ai][si]));
            }
            rep.replayShardKeys.push_back(key);
            keys.push_back(std::move(key));
        }
        manifest.axioms.emplace_back(axioms[ai], std::move(keys));
    }
    {
        Span span(t, "store.put_s");
        suite_store->put(manifest_key, serializeManifest(manifest));
    }
    timed(t, "store.flush_s", [&] { suite_store->flush(); });
    suite_store.reset();

    replayRestart(t, model_name, max_size, engine_store_dir, rep);
    rep.wallSeconds = wall.seconds();
    return rep;
}

std::vector<uint64_t>
keyBytesBySize(const std::string &model_name, int max_size)
{
    Trace t;
    std::unique_ptr<mm::Model> model = mm::makeModel(model_name);
    std::vector<uint64_t> bytes;
    for (int size = kMinSize; size <= max_size; size++) {
        uint64_t b = 0;
        baseKey(t, *model, size, b);
        for (const std::string &axiom : axiomNames(*model))
            violationKey(t, *model, axiom, size, b);
        bytes.push_back(b);
    }
    return bytes;
}

} // namespace ltsbench
