/**
 * @file
 * Synthesis-as-a-service: the one query API every driver goes through.
 *
 * A SuiteRequest names a model (by registry name), a size bound, and
 * the SynthOptions; a SuiteResult carries the synthesized per-axiom
 * suites plus their union, stable digests, the solver work counters,
 * and cache provenance. ltsgen, the benches, the ltsd daemon, and the
 * tests all call Service::query — there is no second path into
 * synthesis, so caching and byte-identity guarantees hold everywhere.
 *
 * Caching is two-level, both levels keyed by content digests that
 * survive process restarts (mm::Model::digest renders formulas, not
 * pointers):
 *
 *  - shard records:  shard/<baseDigest>/<violationDigest>/<opts>/n<N>
 *    one per (axiom, size), keyed by the rendered minimalityBase and
 *    axiomViolation formulas at that size. Editing one axiom's
 *    predicate changes only that axiom's violation digests, so only its
 *    shards miss — everything else is served from the store.
 *
 *  - suite manifests: suite/<modelDigest>/n<min>-<max>/<opts>[/one:<axiom>]
 *    the (modelDigest, bound, optionsDigest) index entry: the union
 *    suite's digest plus the list of shard keys it was assembled from.
 *    A manifest only supplies a query's shard keys: a warm repeat query
 *    takes them from it, renders no formula, loads the shards, and
 *    re-runs the deterministic assembly — no solver is built at all.
 *    Without a usable manifest the keys are rendered once per query.
 *    Either way the query runs one load / synthesize-misses / assemble
 *    sequence; a manifest whose digest disagrees with its assembled
 *    shards is re-derived from rendered keys and rewritten.
 *
 * The options digest covers only the knobs that change suite *bytes*
 * (canonicalizer, blocking granularity, budgets/caps); engine knobs
 * (jobs, simplify, sbp, proofs) are excluded because suites are
 * byte-identical across them — a suite synthesized at --jobs=1 serves a
 * later --jobs=4 query.
 */

#ifndef LTS_SYNTH_SERVICE_HH
#define LTS_SYNTH_SERVICE_HH

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "store/store.hh"
#include "synth/synthesizer.hh"

namespace lts::synth
{

/** Version tag folded into the options digest and the record formats. */
inline constexpr const char *kServiceFormat = "lts-svc-v1";

/**
 * Digest of the semantic synthesis knobs (the ones that change suite
 * bytes): canon, blockStaticOnly, conflictBudget,
 * maxTestsPerSize. 16 hex digits, restart-stable.
 */
std::string optionsDigest(const SynthOptions &options);

/** Digest of minimalityBase(model, n) — the shard key's base half. */
std::string baseFormulaDigest(const mm::Model &model, int size);

/** Digest of axiomViolation(model, axiom, n) — the axiom half. */
std::string violationDigest(const mm::Model &model,
                            const std::string &axiom, int size);

/** One query: everything synthesis needs, nothing engine-private. */
struct SuiteRequest
{
    std::string model;   ///< registry name (mm::makeModel)
    int maxSize = 4;     ///< size bound; overrides options.maxSize
    SynthOptions options;

    /**
     * Restrict to one axiom ("" or "union" = all axioms plus the union
     * suite). Axiom-scoped queries share the shard cache with full
     * queries but get their own manifests.
     */
    std::string axiom;
};

/** Where a query's tests came from. */
enum class CacheOutcome
{
    Miss,    ///< everything synthesized (then stored)
    Partial, ///< some shards served from the store, some synthesized
    Hit,     ///< answered entirely from the store
};

std::string toString(CacheOutcome outcome);

/** Per-(axiom, size) provenance: cached or synthesized this query. */
struct ShardProvenance
{
    std::string axiom;
    int size = 0;
    bool cached = false;
    size_t tests = 0;

    /**
     * Content digest (16 hex digits) of the DRAT proof file this
     * shard's conclusion landed in, when the query ran with
     * options.proofDir and the shard was synthesized (not served from
     * cache — cached shards carry no fresh proof). All same-size
     * shards share one trace and so report the same digest. Empty
     * otherwise.
     */
    std::string proofDigest;
};

/** The result of one SuiteRequest. */
struct SuiteResult
{
    /** Per-axiom suites in declaration order; the union suite last
     *  (exactly synthesizeAll's shape). Axiom-scoped requests get just
     *  that axiom's suite. */
    std::vector<Suite> suites;

    std::string modelDigest;   ///< mm::Model::digest() of the queried model
    std::string optionsDigest; ///< semantic-options digest
    std::string suiteDigest;   ///< litmus::suiteDigest of suites.back()

    /** The solver work this query did (runSizeJobs' counters). A pure
     *  cache hit has jobsQueued == 0 — no solver ran. */
    SynthProgressSnapshot progress;

    CacheOutcome cache = CacheOutcome::Miss;
    std::vector<ShardProvenance> shards; ///< one per (axiom, size)
    uint64_t shardsCached = 0;
    uint64_t shardsSynthesized = 0;
    double seconds = 0; ///< wall clock of the whole query

    const Suite &
    unionSuite() const
    {
        return suites.back();
    }
};

/** Streamed progress lines ("shard causality@3: synthesized, 12 tests"). */
using QueryProgressFn = std::function<void(const std::string &)>;

/** How a Service is set up (separate type so defaults brace-init). */
struct ServiceConfig
{
    /** Store directory; empty runs without persistence (cold CLI). */
    std::string storeDir;

    /**
     * The daemon mode: keep assembled results resident between queries,
     * so a repeat query costs map lookups. (Registry models resolved by
     * name stay resident in every mode; see Service::models.) Misses run
     * through runSizeJobs either way, honoring the engine knobs (jobs,
     * simplify, sbp, proofs) exactly as synthesizeAll would, and each
     * size job frees its solver when it ends. Suite bytes and counters
     * are identical either way.
     */
    bool residentEncodings = false;
};

/**
 * The synthesis service: a suite store (optional), resident registry
 * models, and resident results (daemon mode). A query synthesizes its
 * missing shards in one runSizeJobs call — one job per size, on
 * SynthOptions::jobs threads — and streams progress lines from the
 * caller thread.
 * One instance per daemon or CLI invocation; not thread-safe — callers
 * serialize queries.
 */
class Service
{
  public:
    explicit Service(ServiceConfig config = ServiceConfig());
    ~Service();

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /** Resolve request.model from the registry and query. */
    SuiteResult query(const SuiteRequest &request,
                      const QueryProgressFn &on_progress = nullptr);

    /** Query an explicit model instance (edited or unregistered). */
    SuiteResult query(const mm::Model &model, const SuiteRequest &request,
                      const QueryProgressFn &on_progress = nullptr);

    /** The backing store, or nullptr when running without persistence. */
    store::SuiteStore *store() { return suiteStore.get(); }

  private:
    ServiceConfig config;
    std::unique_ptr<store::SuiteStore> suiteStore;
    /// Registry models resolved by name, kept resident across requests
    /// so their memoized digests make repeat-query keying cheap. A
    /// one-shot Service answers one query, so holding its model costs
    /// nothing extra.
    std::map<std::string, std::unique_ptr<mm::Model>> models;
    /// Daemon mode only: assembled SuiteResults keyed by manifest key,
    /// so a repeat query skips store reads and reassembly entirely. The
    /// key embeds the model/options digests, so an edited model can
    /// never be served a stale resident result.
    std::map<std::string, SuiteResult> resultCache;
};

// --- wire serialization (the ltsd payloads) --------------------------------

/** Serialize a request as the line-oriented Request-frame payload. */
std::string serializeSuiteRequest(const SuiteRequest &request);

/** Parse a Request payload. Throws std::runtime_error on bad input. */
SuiteRequest parseSuiteRequest(const std::string &text);

/** Serialize a full result (suites included) as the Result payload. */
std::string serializeSuiteResult(const SuiteResult &result);

/** Parse a Result payload. Throws std::runtime_error on bad input. */
SuiteResult parseSuiteResult(const std::string &text);

} // namespace lts::synth

#endif // LTS_SYNTH_SERVICE_HH
