#include "synth/service.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "common/hash.hh"
#include "common/strings.hh"
#include "common/timer.hh"
#include "litmus/digest.hh"
#include "litmus/format.hh"
#include "litmus/parse_util.hh"
#include "mm/registry.hh"
#include "synth/minimality.hh"

namespace lts::synth
{

namespace
{

std::string
hex16(uint64_t h)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Content digest of a proof file's bytes; empty when unreadable. */
std::string
proofFileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::string();
    uint64_t h = hashInit();
    h = hashCombine(h, std::string_view("lts-proof-v1"));
    char buf[4096];
    while (in.read(buf, sizeof buf) || in.gcount() > 0) {
        h = hashCombine(
            h, std::string_view(buf, static_cast<size_t>(in.gcount())));
    }
    return hex16(h);
}

// --- line-oriented record formats ------------------------------------------
//
// Every persisted or wire-carried structure is a header of "key value"
// lines followed by litmus interchange text where tests are involved.
// A Reader pulls typed fields and throws on malformed input, so a
// corrupt (but crc-clean) record surfaces as a parse error rather than
// silently wrong data.

class Reader
{
  public:
    explicit Reader(std::string_view text) : in(text) {}

    /** Next non-blank line; interchange text leaves blank separators
     *  behind after tests(), and keys are never empty. */
    std::string_view
    line()
    {
        std::string_view l;
        while (in.next(l)) {
            if (!trimView(l).empty())
                return l;
        }
        throw std::runtime_error("service: truncated record");
    }

    /** "key rest-of-line"; throws when the key doesn't match. */
    std::string_view
    field(std::string_view key)
    {
        std::string_view l = line();
        if (l.size() < key.size() + 1 || l.substr(0, key.size()) != key ||
            l[key.size()] != ' ') {
            throw std::runtime_error("service: expected '" +
                                     std::string(key) + "' line, got '" +
                                     std::string(l) + "'");
        }
        return l.substr(key.size() + 1);
    }

    std::string
    text(std::string_view key)
    {
        return std::string(field(key));
    }

    uint64_t
    u64(std::string_view key)
    {
        return std::stoull(text(key));
    }

    int
    i32(std::string_view key)
    {
        return std::stoi(text(key));
    }

    double
    f64(std::string_view key)
    {
        return std::stod(text(key));
    }

    /**
     * Parse exactly @p count tests in place and leave the cursor after
     * them, so payloads can carry several suites back to back.
     */
    std::vector<litmus::LitmusTest>
    tests(size_t count)
    {
        auto suite = litmus::parseLitmusSuite(in, count);
        if (suite.size() != count) {
            throw std::runtime_error(
                "service: truncated test block: expected " +
                std::to_string(count) + " tests, found " +
                std::to_string(suite.size()));
        }
        return suite;
    }

  private:
    litmus::TextCursor in;
};

/** Append "key value\n" to a record. */
template <typename Value>
void
appendField(std::string &out, std::string_view key, const Value &value)
{
    out += key;
    out += ' ';
    if constexpr (std::is_arithmetic_v<Value>)
        out += std::to_string(value);
    else
        out += value;
    out += '\n';
}

/** "%.6f", the precision every record carries seconds in. */
std::string
fixed6(double seconds)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", seconds);
    return buf;
}

// --- shard records ----------------------------------------------------------

std::string
serializeShard(const ShardResult &shard)
{
    std::string out;
    appendField(out, "shard", kServiceFormat);
    appendField(out, "raw", shard.rawInstances);
    appendField(out, "sbp", shard.sbpClauses);
    appendField(out, "truncated", shard.truncated ? 1 : 0);
    appendField(out, "seconds", fixed6(shard.seconds));
    appendField(out, "tests", shard.tests.size());
    litmus::appendLitmusSuite(out, shard.tests);
    return out;
}

ShardResult
parseShard(std::string_view text)
{
    Reader r(text);
    if (r.field("shard") != kServiceFormat)
        throw std::runtime_error("service: shard record format mismatch");
    ShardResult shard;
    shard.rawInstances = r.u64("raw");
    shard.sbpClauses = r.u64("sbp");
    shard.truncated = r.u64("truncated") != 0;
    r.f64("seconds"); // the cold cost; a cached shard costs ~nothing now
    shard.seconds = 0;
    shard.tests = r.tests(static_cast<size_t>(r.u64("tests")));
    return shard;
}

// --- suite manifests --------------------------------------------------------

/** Shard keys of one query, [axiom][size] in scope and size order. */
using KeyGrid = std::vector<std::vector<std::string>>;

struct Manifest
{
    std::string suiteDigest;
    KeyGrid keys;
};

std::string
serializeManifest(const std::string &suite_digest,
                  const std::vector<std::string> &axioms, const KeyGrid &keys)
{
    std::ostringstream out;
    out << "manifest " << kServiceFormat << "\n";
    out << "digest " << suite_digest << "\n";
    out << "axioms " << axioms.size() << "\n";
    for (size_t ai = 0; ai < axioms.size(); ai++) {
        out << "axiom " << keys[ai].size() << " " << axioms[ai] << "\n";
        for (const auto &key : keys[ai])
            out << "shard " << key << "\n";
    }
    return out.str();
}

/**
 * Parse a manifest for a query over @p axioms at @p n_sizes sizes.
 * Throws unless it parses and lists n_sizes keys for each axiom of the
 * scope, in scope order: only then can its keys stand in for rendered
 * ones.
 */
Manifest
parseManifest(const std::string &text, const std::vector<std::string> &axioms,
              size_t n_sizes)
{
    Reader r(text);
    if (r.field("manifest") != kServiceFormat)
        throw std::runtime_error("service: manifest format mismatch");
    Manifest m;
    m.suiteDigest = r.text("digest");
    if (r.u64("axioms") != axioms.size())
        throw std::runtime_error("service: manifest axiom count mismatch");
    for (const std::string &axiom : axioms) {
        std::string head = r.text("axiom");
        size_t space = head.find(' ');
        if (space == std::string::npos || head.substr(space + 1) != axiom ||
            std::stoull(head.substr(0, space)) != n_sizes) {
            throw std::runtime_error("service: manifest does not cover '" +
                                     axiom + "' at every size");
        }
        m.keys.emplace_back();
        for (size_t k = 0; k < n_sizes; k++)
            m.keys.back().push_back(r.text("shard"));
    }
    return m;
}

// --- suite (de)serialization for the Result payload -------------------------

void
serializeSuite(std::string &out, const Suite &suite)
{
    appendField(out, "suite", suite.axiom);
    appendField(out, "model", suite.model);
    appendField(out, "raw", suite.rawInstances);
    appendField(out, "truncated", suite.truncated ? 1 : 0);
    appendField(out, "sizes", suite.testsBySize.size());
    for (const auto &[size, count] : suite.testsBySize) {
        auto secs = suite.secondsBySize.count(size)
                        ? suite.secondsBySize.at(size)
                        : 0.0;
        auto insts = suite.instancesBySize.count(size)
                         ? suite.instancesBySize.at(size)
                         : 0;
        auto sbp = suite.sbpClausesBySize.count(size)
                       ? suite.sbpClausesBySize.at(size)
                       : 0;
        char line[128];
        std::snprintf(line, sizeof line, "size %d %d %llu %llu %.6f", size,
                      count, static_cast<unsigned long long>(insts),
                      static_cast<unsigned long long>(sbp), secs);
        out += line;
        out += '\n';
    }
    appendField(out, "tests", suite.tests.size());
    litmus::appendLitmusSuite(out, suite.tests);
}

Suite
parseSuite(Reader &r)
{
    Suite suite;
    suite.axiom = r.text("suite");
    suite.model = r.text("model");
    suite.rawInstances = r.u64("raw");
    suite.truncated = r.u64("truncated") != 0;
    size_t n_sizes = r.u64("sizes");
    for (size_t i = 0; i < n_sizes; i++) {
        std::istringstream line(r.text("size"));
        int size = 0, count = 0;
        uint64_t insts = 0, sbp = 0;
        double secs = 0;
        if (!(line >> size >> count >> insts >> sbp >> secs))
            throw std::runtime_error("service: bad suite size line");
        suite.testsBySize[size] = count;
        suite.instancesBySize[size] = insts;
        suite.sbpClausesBySize[size] = sbp;
        suite.secondsBySize[size] = secs;
    }
    suite.tests = r.tests(static_cast<size_t>(r.u64("tests")));
    return suite;
}

std::string
escapeLine(const std::string &s)
{
    // Progress/axiom names never contain newlines today; keep the
    // records honest if one ever does.
    std::string out;
    for (char c : s)
        out += c == '\n' ? ' ' : c;
    return out;
}

} // namespace

std::string
toString(CacheOutcome outcome)
{
    switch (outcome) {
    case CacheOutcome::Hit:
        return "hit";
    case CacheOutcome::Partial:
        return "partial";
    case CacheOutcome::Miss:
    default:
        return "miss";
    }
}

std::string
optionsDigest(const SynthOptions &options)
{
    uint64_t h = hashInit();
    h = hashCombine(h, std::string_view(kServiceFormat));
    h = hashCombine(h,
                    std::string_view(litmus::canonModeName(options.canon)));
    h = hashCombine(h, static_cast<uint64_t>(options.blockStaticOnly));
    h = hashCombine(h, options.conflictBudget);
    h = hashCombine(h, static_cast<uint64_t>(options.maxTestsPerSize));
    return hex16(h);
}

std::string
baseFormulaDigest(const mm::Model &model, int size)
{
    uint64_t h = hashInit();
    h = hashCombine(h, std::string_view("lts-base-v1"));
    h = hashCombine(h,
                    minimalityBase(model, static_cast<size_t>(size))
                        ->toString());
    return hex16(h);
}

std::string
violationDigest(const mm::Model &model, const std::string &axiom, int size)
{
    uint64_t h = hashInit();
    h = hashCombine(h, std::string_view("lts-viol-v1"));
    h = hashCombine(h,
                    axiomViolation(model, axiom, static_cast<size_t>(size))
                        ->toString());
    return hex16(h);
}

// --- request / result wire payloads -----------------------------------------

std::string
serializeSuiteRequest(const SuiteRequest &request)
{
    const SynthOptions &o = request.options;
    std::ostringstream out;
    out << "request " << kServiceFormat << "\n";
    out << "model " << request.model << "\n";
    out << "axiom " << (request.axiom.empty() ? "union" : request.axiom)
        << "\n";
    out << "maxsize " << request.maxSize << "\n";
    out << "minsize " << o.minSize << "\n";
    out << "canon " << litmus::canonModeName(o.canon) << "\n";
    out << "blockstatic " << (o.blockStaticOnly ? 1 : 0) << "\n";
    out << "budget " << o.conflictBudget << "\n";
    out << "maxtests " << o.maxTestsPerSize << "\n";
    out << "sbp " << (o.symmetryBreaking ? 1 : 0) << "\n";
    out << "jobs " << o.jobs << "\n";
    out << "simplify " << (o.simplify ? 1 : 0) << "\n";
    return out.str();
}

SuiteRequest
parseSuiteRequest(const std::string &text)
{
    Reader r(text);
    if (r.field("request") != kServiceFormat)
        throw std::runtime_error("service: request format mismatch");
    SuiteRequest request;
    request.model = r.text("model");
    request.axiom = r.text("axiom");
    if (request.axiom == "union")
        request.axiom.clear();
    request.maxSize = r.i32("maxsize");
    SynthOptions &o = request.options;
    o.maxSize = request.maxSize;
    o.minSize = r.i32("minsize");
    // A request's sizes set its cost, which grows steeply with the
    // bound; the paper's largest bound is 7.
    if (o.minSize < 0 || o.minSize > o.maxSize || o.maxSize > 7) {
        throw std::runtime_error(
            "service: sizes " + std::to_string(o.minSize) + ".." +
            std::to_string(o.maxSize) + " not within 0 <= min <= max <= 7");
    }
    o.canon = litmus::parseCanonMode(r.field("canon"));
    o.blockStaticOnly = r.u64("blockstatic") != 0;
    o.conflictBudget = r.u64("budget");
    o.maxTestsPerSize = r.i32("maxtests");
    o.symmetryBreaking = r.u64("sbp") != 0;
    o.jobs = r.i32("jobs");
    o.simplify = r.u64("simplify") != 0;
    return request;
}

std::string
serializeSuiteResult(const SuiteResult &result)
{
    std::string out;
    appendField(out, "result", kServiceFormat);
    appendField(out, "modeldigest", result.modelDigest);
    appendField(out, "optionsdigest", result.optionsDigest);
    appendField(out, "suitedigest", result.suiteDigest);
    appendField(out, "cache", toString(result.cache));
    appendField(out, "shardscached", result.shardsCached);
    appendField(out, "shardssynthesized", result.shardsSynthesized);
    appendField(out, "seconds", fixed6(result.seconds));
    const SynthProgressSnapshot &p = result.progress;
    out += "progress";
    for (uint64_t v : {p.jobsQueued, p.conflicts, p.restarts, p.instances,
                       p.sbpClauses, p.eliminatedVars, p.subsumedClauses}) {
        out += ' ';
        out += std::to_string(v);
    }
    out += '\n';
    appendField(out, "provenance", result.shards.size());
    for (const auto &s : result.shards) {
        out += "shard ";
        out += std::to_string(s.size);
        out += s.cached ? " 1 " : " 0 ";
        out += std::to_string(s.tests);
        out += ' ';
        out += s.proofDigest.empty() ? "-" : s.proofDigest;
        out += ' ';
        out += escapeLine(s.axiom);
        out += '\n';
    }
    appendField(out, "suites", result.suites.size());
    for (const auto &suite : result.suites)
        serializeSuite(out, suite);
    return out;
}

SuiteResult
parseSuiteResult(const std::string &text)
{
    Reader r(text);
    if (r.field("result") != kServiceFormat)
        throw std::runtime_error("service: result format mismatch");
    SuiteResult result;
    result.modelDigest = r.text("modeldigest");
    result.optionsDigest = r.text("optionsdigest");
    result.suiteDigest = r.text("suitedigest");
    std::string_view cache = r.field("cache");
    result.cache = cache == "hit"       ? CacheOutcome::Hit
                   : cache == "partial" ? CacheOutcome::Partial
                                        : CacheOutcome::Miss;
    result.shardsCached = r.u64("shardscached");
    result.shardsSynthesized = r.u64("shardssynthesized");
    result.seconds = r.f64("seconds");
    {
        std::istringstream line(r.text("progress"));
        SynthProgressSnapshot &p = result.progress;
        if (!(line >> p.jobsQueued >> p.conflicts >> p.restarts >>
              p.instances >> p.sbpClauses >> p.eliminatedVars >>
              p.subsumedClauses)) {
            throw std::runtime_error("service: bad progress line");
        }
    }
    size_t n_shards = r.u64("provenance");
    for (size_t i = 0; i < n_shards; i++) {
        std::istringstream line(r.text("shard"));
        ShardProvenance s;
        int cached = 0;
        if (!(line >> s.size >> cached >> s.tests >> s.proofDigest))
            throw std::runtime_error("service: bad provenance line");
        s.cached = cached != 0;
        if (s.proofDigest == "-")
            s.proofDigest.clear();
        std::getline(line, s.axiom);
        s.axiom = trim(s.axiom);
        result.shards.push_back(std::move(s));
    }
    size_t n_suites = r.u64("suites");
    for (size_t i = 0; i < n_suites; i++)
        result.suites.push_back(parseSuite(r));
    if (result.suites.empty())
        throw std::runtime_error("service: result carries no suites");
    return result;
}

// --- the service -------------------------------------------------------------

Service::Service(ServiceConfig config_) : config(std::move(config_))
{
    if (!config.storeDir.empty()) {
        suiteStore = std::make_unique<store::SuiteStore>(config.storeDir);
    }
}

Service::~Service() = default;

SuiteResult
Service::query(const SuiteRequest &request, const QueryProgressFn &on_progress)
{
    // Keep the registry model resident so its memoized digest makes
    // repeat-query keying cost map lookups, not formula rendering.
    auto it = models.find(request.model);
    if (it == models.end())
        it = models.emplace(request.model, mm::makeModel(request.model)).first;
    return query(*it->second, request, on_progress);
}

SuiteResult
Service::query(const mm::Model &model, const SuiteRequest &request,
               const QueryProgressFn &on_progress)
{
    Timer wall;

    SynthOptions options = request.options;
    options.maxSize = request.maxSize;
    if (options.minSize > options.maxSize)
        throw std::invalid_argument("service: minSize > maxSize");

    auto emit = [&](const std::string &msg) {
        if (on_progress)
            on_progress(msg);
    };

    // Axiom scope: declaration order throughout, one axiom when asked.
    std::vector<std::string> axioms;
    bool full_scope = request.axiom.empty() || request.axiom == "union";
    if (full_scope) {
        for (const auto &axiom : model.axioms())
            axioms.push_back(axiom.name);
    } else {
        model.axiom(request.axiom); // throws on unknown names
        axioms.push_back(request.axiom);
    }

    const int min_size = options.minSize;
    const int max_size = options.maxSize;
    const size_t n_sizes = static_cast<size_t>(max_size - min_size + 1);

    SuiteResult result;
    result.modelDigest = model.digest();
    result.optionsDigest = optionsDigest(options);

    std::string manifest_key = "suite/" + result.modelDigest + "/n" +
                               std::to_string(min_size) + "-" +
                               std::to_string(max_size) + "/" +
                               result.optionsDigest;
    if (!full_scope)
        manifest_key += "/one:" + request.axiom;

    // 0. Resident result (daemon mode): the assembled answer to this
    //    exact (modelDigest, bound, optionsDigest) is already in memory.
    //    Checked before any per-shard digest is rendered — this path
    //    must cost map lookups and a copy, nothing solver-shaped.
    if (config.residentEncodings) {
        auto hot = resultCache.find(manifest_key);
        if (hot != resultCache.end()) {
            SuiteResult served = hot->second;
            served.cache = CacheOutcome::Hit;
            for (auto &shard : served.shards)
                shard.cached = true;
            served.shardsCached = served.shards.size();
            served.shardsSynthesized = 0;
            served.progress = SynthProgressSnapshot(); // no work
            served.seconds = wall.seconds();
            emit("suite " + served.suiteDigest + ": resident hit (" +
                 std::to_string(served.unionSuite().tests.size()) +
                 " tests)");
            return served;
        }
    }

    // 1. Keys: the [axiom][size] grid of shard keys. A usable manifest
    //    supplies it as stored, so a warm query renders no formula;
    //    otherwise each size's base formula and each (axiom, size)
    //    violation is rendered once.
    auto render_keys = [&] {
        KeyGrid keys(axioms.size());
        for (size_t si = 0; si < n_sizes; si++) {
            int size = min_size + static_cast<int>(si);
            std::string base = baseFormulaDigest(model, size);
            for (size_t ai = 0; ai < axioms.size(); ai++) {
                keys[ai].push_back("shard/" + base + "/" +
                                   violationDigest(model, axioms[ai], size) +
                                   "/" + result.optionsDigest + "/n" +
                                   std::to_string(size));
            }
        }
        return keys;
    };

    std::optional<std::string> stored_manifest;
    if (suiteStore)
        stored_manifest = suiteStore->get(manifest_key);
    std::optional<Manifest> manifest;
    if (stored_manifest) {
        try {
            manifest = parseManifest(*stored_manifest, axioms, n_sizes);
        } catch (const std::exception &e) {
            emit(std::string("manifest unusable, re-deriving: ") + e.what());
        }
    }

    // 2. One pass: load every shard record the keys name (a missing or
    //    unparseable record is a miss), synthesize the misses in one
    //    runSizeJobs call, assemble. Deterministic, so cached and fresh
    //    shards produce byte-identical suites. Assembly moves the tests
    //    out of the shards, so each shard's test count and, for a
    //    synthesized one, its record bytes are taken first.
    std::vector<std::vector<bool>> from_store;
    std::vector<std::vector<size_t>> test_counts;
    std::vector<std::vector<std::string>> fresh_records;
    auto run_pass = [&](const KeyGrid &keys) {
        std::vector<std::vector<ShardResult>> shards(
            axioms.size(), std::vector<ShardResult>(n_sizes));
        from_store.assign(axioms.size(), std::vector<bool>(n_sizes, false));
        test_counts.assign(axioms.size(), std::vector<size_t>(n_sizes, 0));
        fresh_records.assign(axioms.size(),
                             std::vector<std::string>(n_sizes));
        for (size_t ai = 0; suiteStore && ai < axioms.size(); ai++) {
            for (size_t si = 0; si < n_sizes; si++) {
                auto bytes = suiteStore->get(keys[ai][si]);
                if (!bytes)
                    continue;
                try {
                    shards[ai][si] = parseShard(*bytes);
                    from_store[ai][si] = true;
                } catch (const std::exception &) {
                    // Unparseable shard: a miss, overwritten below.
                }
            }
        }

        // One job per size with a miss, sweeping that size's missing
        // axioms in scope order.
        std::vector<SizeJob> jobs;
        for (size_t si = 0; si < n_sizes; si++) {
            SizeJob job;
            job.size = min_size + static_cast<int>(si);
            for (size_t ai = 0; ai < axioms.size(); ai++) {
                if (!from_store[ai][si])
                    job.tracks.push_back(axiomTrack(model, axioms[ai]));
            }
            if (!job.tracks.empty())
                jobs.push_back(std::move(job));
        }
        result.progress += runSizeJobs(model, jobs, options);
        for (SizeJob &job : jobs) {
            size_t si = static_cast<size_t>(job.size - min_size);
            size_t k = 0;
            for (size_t ai = 0; ai < axioms.size(); ai++) {
                if (from_store[ai][si])
                    continue;
                shards[ai][si] = std::move(job.shards[k++]);
                emit("shard " + axioms[ai] + "@" + std::to_string(job.size) +
                     ": synthesized, " +
                     std::to_string(shards[ai][si].tests.size()) + " tests");
                if (suiteStore)
                    fresh_records[ai][si] = serializeShard(shards[ai][si]);
            }
        }
        for (size_t ai = 0; ai < axioms.size(); ai++) {
            for (size_t si = 0; si < n_sizes; si++)
                test_counts[ai][si] = shards[ai][si].tests.size();
        }

        // Per-axiom suites in scope order, plus the union for full-scope
        // queries.
        result.suites.clear();
        for (size_t ai = 0; ai < axioms.size(); ai++) {
            result.suites.push_back(assembleShardSuite(
                model, axioms[ai], std::move(shards[ai]), min_size));
        }
        if (full_scope)
            result.suites.push_back(unionSuites(result.suites, options));
        result.suiteDigest = litmus::suiteDigest(result.suites.back().tests);
    };

    // 3. Run the pass on the manifest's keys, or on rendered ones. Keys
    //    from a manifest whose digest disagrees with what they assemble
    //    to (a format skew or store damage) are dropped, and the same
    //    pass runs again on rendered keys.
    KeyGrid keys = manifest ? std::move(manifest->keys) : render_keys();
    run_pass(keys);
    if (manifest && result.suiteDigest != manifest->suiteDigest) {
        emit("manifest digest " + manifest->suiteDigest +
             " disagrees with its shards, re-deriving");
        keys = render_keys();
        run_pass(keys);
    }

    // 4. Provenance, then persist what this query learned: the
    //    synthesized shards, and the manifest unless the store already
    //    holds these exact bytes.
    for (size_t ai = 0; ai < axioms.size(); ai++) {
        for (size_t si = 0; si < n_sizes; si++) {
            ShardProvenance prov{axioms[ai],
                                 min_size + static_cast<int>(si),
                                 from_store[ai][si], test_counts[ai][si],
                                 std::string()};
            if (prov.cached) {
                result.shardsCached++;
            } else {
                result.shardsSynthesized++;
                // A freshly synthesized shard's conclusion landed in its
                // size's proof file; pin that file's content digest into
                // the provenance. Cached shards ran no solver.
                if (!options.proofDir.empty()) {
                    prov.proofDigest = proofFileDigest(
                        proofFilePath(options, model.name(), prov.size));
                }
            }
            result.shards.push_back(std::move(prov));
        }
    }
    result.cache = result.shardsSynthesized == 0
                       ? CacheOutcome::Hit
                       : (result.shardsCached > 0 ? CacheOutcome::Partial
                                                  : CacheOutcome::Miss);

    if (suiteStore) {
        bool wrote = false;
        for (size_t ai = 0; ai < axioms.size(); ai++) {
            for (size_t si = 0; si < n_sizes; si++) {
                if (from_store[ai][si])
                    continue;
                suiteStore->put(keys[ai][si], fresh_records[ai][si]);
                wrote = true;
            }
        }
        std::string fresh = serializeManifest(result.suiteDigest, axioms, keys);
        if (stored_manifest != fresh) {
            suiteStore->put(manifest_key, fresh);
            wrote = true;
        }
        if (wrote)
            suiteStore->flush();
    }

    // 5. Daemon mode keeps the answer resident for the next repeat.
    result.seconds = wall.seconds();
    if (config.residentEncodings)
        resultCache[manifest_key] = result;
    emit("suite " + result.suiteDigest + ": cache " +
         toString(result.cache) + " (" +
         std::to_string(result.unionSuite().tests.size()) + " tests, " +
         std::to_string(result.shardsCached) + " shards cached, " +
         std::to_string(result.shardsSynthesized) + " synthesized)");
    return result;
}

} // namespace lts::synth
