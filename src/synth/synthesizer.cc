#include "synth/synthesizer.hh"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/pool.hh"
#include "common/timer.hh"
#include "litmus/canon.hh"
#include "mm/convert.hh"
#include "rel/encoder.hh"
#include "sat/dimacs.hh"
#include "sat/drat.hh"
#include "synth/minimality.hh"

namespace lts::synth
{

using litmus::LitmusTest;

namespace
{

/** Is each workgroup a contiguous run of thread ids? permuteThreads
 * relabels workgroups by first use, so contiguity means a label never
 * reappears after a different label took over. Only contiguous
 * assignments satisfy the scopes.swg-convexity well-formedness facts,
 * so only they correspond to encodable instances. */
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

/**
 * Every distinct valid image of @p test under thread permutation — the
 * members of its isomorphism class as the encoding sees them. Images
 * that interleave workgroups are dropped (no instance satisfies the
 * well-formedness facts for them); duplicates are collapsed by static
 * key, or by full key when @p by_full_key (full-instance blocking cares
 * about outcome images too). The set depends only on the class, not on
 * which member @p test is, because permuteThreads normalizes thread,
 * location, and workgroup labels by first use.
 */
std::vector<LitmusTest>
validArrangements(const LitmusTest &test, bool by_full_key)
{
    std::vector<int> order(static_cast<size_t>(test.numThreads));
    std::iota(order.begin(), order.end(), 0);
    std::vector<LitmusTest> out;
    std::set<std::string> seen;
    do {
        LitmusTest arr = litmus::permuteThreads(test, order);
        if (!wgContiguous(arr))
            continue;
        std::string key = by_full_key ? litmus::fullSerialize(arr)
                                      : litmus::staticSerialize(arr);
        if (seen.insert(std::move(key)).second)
            out.push_back(std::move(arr));
    } while (std::next_permutation(order.begin(), order.end()));
    return out;
}

/**
 * Enumerate one track at one size on a prepared solver. The track's
 * violation layer must already be live over the base encoding (see
 * runSizeJob). Blocking clauses go into a fresh layer owned by this
 * call, so witness-resolution solves — which activate only
 * @p witness_layers on top of the base facts — never see
 * them (a pinned representative's static part is typically itself a
 * blocked image). @p sbp_active says a symmetry-breaking layer is live:
 * enumeration then sees one model per isomorphism class, and this
 * function compensates by inserting every canonical key of the class
 * and blocking every valid image (orbit blocking), keeping the output
 * byte-identical to a run without symmetry breaking.
 */
ShardResult
enumerateTrack(const mm::Model &model, rel::RelSolver &solver,
               const std::string &shard_label,
               const std::vector<int> &block_vars,
               const std::vector<rel::FactHandle> &witness_layers,
               bool sbp_active, const SynthOptions &options)
{
    Timer timer;
    ShardResult result;
    size_t n = solver.encoder().universe();
    bool static_mode = !block_vars.empty();
    bool exact_canon =
        options.useCanon && options.canonMode == litmus::CanonMode::Exact;

    rel::FactHandle block_layer = solver.newLayer();

    auto canonOf = [&](const LitmusTest &t) {
        return options.useCanon ? litmus::canonicalize(t, options.canonMode)
                                : t;
    };

    // Canonical static key -> (full serialization, test). Keyed by map so
    // the final order is the canonical-key order. Static mode resolves
    // each bucket's test by pin-and-minimize (the full string stays
    // empty); full-instance mode keeps the smallest full serialization
    // seen across the enumerated witnesses and their images.
    std::map<std::string, std::pair<std::string, LitmusTest>> byKey;

    auto capped = [&]() {
        if (options.maxTestsPerSize &&
            static_cast<int>(byKey.size()) >= options.maxTestsPerSize) {
            result.truncated = true;
            return true;
        }
        return false;
    };

    bool done = false;
    sat::SolveResult res = solver.solve();
    while (!done && res == sat::SolveResult::Sat) {
        result.rawInstances++;
        LitmusTest found = mm::fromInstance(model, solver.instance());
        // Block first: blockModel reads the solver's last instance, which
        // the witness solves below overwrite.
        solver.blockModel(block_vars, block_layer);

        if (static_mode) {
            // The class members and their bucket keys. Under symmetry
            // breaking every image is blocked and every bucket key the
            // class canonicalizes to is inserted (the Paper canonicalizer
            // can split one class into several buckets — that blind spot
            // is preserved, not fixed). Without it, enumeration visits
            // the members itself, so images are only computed on the
            // first encounter of a new bucket, to resolve its
            // representative.
            std::vector<LitmusTest> arrs;
            std::vector<std::string> arr_static, arr_bucket;
            auto computeArrs = [&]() {
                arrs = validArrangements(found, false);
                std::string exact_key;
                if (exact_canon) {
                    exact_key = litmus::staticSerialize(
                        litmus::canonicalize(found, options.canonMode));
                }
                for (const LitmusTest &arr : arrs) {
                    arr_static.push_back(litmus::staticSerialize(arr));
                    arr_bucket.push_back(
                        exact_canon
                            ? exact_key
                            : litmus::staticSerialize(canonOf(arr)));
                }
            };

            std::set<std::string> keys;
            if (sbp_active) {
                computeArrs();
                for (const LitmusTest &arr : arrs) {
                    solver.blockInstance(
                        mm::toInstance(model, arr, litmus::Outcome(n)),
                        block_vars, block_layer);
                }
                keys.insert(arr_bucket.begin(), arr_bucket.end());
            } else {
                keys.insert(litmus::staticSerialize(canonOf(found)));
            }

            for (const std::string &key : keys) {
                if (byKey.count(key))
                    continue;
                if (arrs.empty())
                    computeArrs();
                // The bucket's representative program: the image with the
                // smallest static serialization among those
                // canonicalizing to this bucket — a pure function of the
                // class, unlike the member enumeration happened to find.
                size_t best = arrs.size();
                for (size_t k = 0; k < arrs.size(); k++) {
                    if (arr_bucket[k] != key)
                        continue;
                    if (best == arrs.size() ||
                        arr_static[k] < arr_static[best])
                        best = k;
                }
                // Every key comes from some image's bucket (fromInstance
                // output is already in permuteThreads normal form, so
                // the identity image covers the found member's key).
                assert(best < arrs.size());
                if (best == arrs.size()) {
                    result.truncated = true;
                    continue;
                }
                rel::Instance pin =
                    mm::toInstance(model, arrs[best], litmus::Outcome(n));
                if (!solver.pinAndMinimize(pin, block_vars,
                                           witness_layers)) {
                    // Only a conflict budget can land here: the pinned
                    // program is an image of a satisfying model, so a
                    // witness exists.
                    result.truncated = true;
                    continue;
                }
                LitmusTest wit =
                    mm::fromInstance(model, solver.instance());
                byKey.emplace(key,
                              std::make_pair(std::string(), canonOf(wit)));
                if (capped()) {
                    done = true;
                    break;
                }
            }
        } else {
            // Full-instance blocking: enumeration visits every witness
            // of every surviving member, so each image (with its
            // outcome) merges by smallest full serialization, exactly
            // as a run without symmetry breaking would over the members
            // it enumerates directly.
            std::vector<LitmusTest> images;
            if (sbp_active)
                images = validArrangements(found, true);
            else
                images.push_back(std::move(found));
            for (LitmusTest &img : images) {
                LitmusTest canon = canonOf(img);
                std::string key = litmus::staticSerialize(canon);
                std::string full = litmus::fullSerialize(canon);
                auto it = byKey.find(key);
                if (it == byKey.end()) {
                    byKey.emplace(std::move(key),
                                  std::make_pair(std::move(full),
                                                 std::move(canon)));
                    if (capped()) {
                        done = true;
                        break;
                    }
                } else if (full < it->second.first) {
                    it->second =
                        std::make_pair(std::move(full), std::move(canon));
                }
            }
        }

        if (!done)
            res = solver.solve();
    }
    if (res == sat::SolveResult::BudgetExhausted)
        result.truncated = true;
    if (res == sat::SolveResult::Unsat) {
        // Enumeration exhausted: this final Unsat — no further instance
        // under the blocks — is the shard's checkable completeness claim.
        // Record it as a proof conclusion (no-op without a writer; probe
        // solves above never conclude) and optionally dump the CNF that
        // poses the query, both before the blocking layer dies.
        solver.satSolver().proofConcludeUnsat();
        if (!options.dumpDimacsDir.empty()) {
            std::string path = options.dumpDimacsDir + "/" + model.name() +
                               "." + shard_label + ".n" + std::to_string(n) +
                               ".cnf";
            std::ofstream out(path);
            sat::writeDimacs(out, solver.exportCnf());
        }
    }
    solver.retract(block_layer);

    result.tests.reserve(byKey.size());
    for (auto &kv : byKey)
        result.tests.push_back(std::move(kv.second.second));

    result.seconds = timer.seconds();
    return result;
}

/**
 * Install the model's symmetry-breaking layer when enabled and the model
 * has residual symmetry at this size. Returns whether a layer is live.
 */
bool
installSymmetryBreaking(const mm::Model &model, rel::RelSolver &solver,
                        size_t n, const SynthOptions &options,
                        uint64_t &clauses_out)
{
    if (!options.symmetryBreaking)
        return false;
    rel::SymmetrySpec spec = model.symmetrySpec(n);
    if (spec.empty())
        return false;
    rel::SymmetryStats stats;
    solver.addSymmetryBreaking(spec, &stats);
    clauses_out = stats.clauses;
    return true;
}

/**
 * One size job, start to finish (see runSizeJobs): build the size's
 * encoding, sweep the job's tracks over it, and return the solver's
 * work. The solver and its proof writer die on return.
 */
SynthProgressSnapshot
runSizeJob(const mm::Model &model, SizeJob &job, const SynthOptions &options)
{
    size_t n = static_cast<size_t>(job.size);
    // Declared before the solver so the writer outlives it.
    std::unique_ptr<sat::DratWriter> proof;
    rel::RelSolver solver(model.vocab(), n);
    if (!options.proofDir.empty()) {
        proof = std::make_unique<sat::DratWriter>(
            proofFilePath(options, model.name(), job.size));
        solver.setProof(proof.get());
    }
    solver.addBaseFact(minimalityBase(model, n));
    if (options.simplify)
        solver.simplifyBase();
    SynthProgressSnapshot counters;
    counters.jobsQueued = 1;
    bool sbp_active = installSymmetryBreaking(model, solver, n, options,
                                              counters.sbpClauses);
    std::vector<int> block_vars;
    if (options.blockStaticOnly)
        block_vars = model.staticVarIds();

    job.shards.clear();
    job.shards.reserve(job.tracks.size());
    for (const Track &track : job.tracks) {
        rel::FactHandle layer = solver.addFact(track.layerFor(n));
        if (options.conflictBudget) {
            // Re-arm: the budget bounds each (axiom, size) query family,
            // not the lifetime of the shared solver.
            solver.satSolver().setConflictBudget(options.conflictBudget);
        }
        ShardResult &shard = job.shards.emplace_back(
            enumerateTrack(model, solver, track.label, block_vars, {layer},
                           sbp_active, options));
        // The SBP layer is shared by every shard on this solver; its
        // clauses are counted once, by the first shard swept.
        if (job.shards.size() == 1)
            shard.sbpClauses = counters.sbpClauses;
        counters.instances += shard.rawInstances;
        solver.retract(layer);
    }
    const sat::SolverStats &stats = solver.satSolver().stats();
    counters.conflicts = stats.conflicts;
    counters.restarts = stats.restarts;
    counters.eliminatedVars = stats.eliminatedVars;
    counters.subsumedClauses = stats.subsumedClauses;
    return counters;
}

} // namespace

SynthProgressSnapshot &
SynthProgressSnapshot::operator+=(const SynthProgressSnapshot &other)
{
    jobsQueued += other.jobsQueued;
    conflicts += other.conflicts;
    restarts += other.restarts;
    instances += other.instances;
    sbpClauses += other.sbpClauses;
    eliminatedVars += other.eliminatedVars;
    subsumedClauses += other.subsumedClauses;
    return *this;
}

SynthProgressSnapshot
runSizeJobs(const mm::Model &model, std::vector<SizeJob> &jobs,
            const SynthOptions &options)
{
    std::vector<SynthProgressSnapshot> counters(jobs.size());
    unsigned threads = static_cast<unsigned>(std::min<size_t>(
        ThreadPool::resolveThreads(options.jobs), jobs.size()));
    if (threads <= 1) {
        for (size_t i = 0; i < jobs.size(); i++)
            counters[i] = runSizeJob(model, jobs[i], options);
    } else {
        ThreadPool pool(threads);
        for (size_t i = 0; i < jobs.size(); i++) {
            pool.submit([&, i] {
                counters[i] = runSizeJob(model, jobs[i], options);
            });
        }
        pool.wait();
    }
    SynthProgressSnapshot total;
    for (const SynthProgressSnapshot &c : counters)
        total += c;
    return total;
}

namespace
{

/** One job per size, each sweeping every track, merged into Suites. */
std::vector<Suite>
runSynthesisTracks(const mm::Model &model, const std::vector<Track> &tracks,
                   const SynthOptions &options)
{
    std::vector<SizeJob> jobs;
    for (int size = options.minSize; size <= options.maxSize; size++) {
        SizeJob &job = jobs.emplace_back();
        job.size = size;
        job.tracks = tracks;
    }
    runSizeJobs(model, jobs, options);
    std::vector<Suite> suites;
    suites.reserve(tracks.size());
    for (size_t ti = 0; ti < tracks.size(); ti++) {
        std::vector<ShardResult> by_size;
        by_size.reserve(jobs.size());
        for (SizeJob &job : jobs)
            by_size.push_back(std::move(job.shards[ti]));
        suites.push_back(assembleShardSuite(model, tracks[ti].label,
                                            std::move(by_size),
                                            options.minSize));
    }
    return suites;
}

std::vector<Track>
allAxiomTracks(const mm::Model &model)
{
    std::vector<Track> tracks;
    tracks.reserve(model.axioms().size());
    for (const auto &axiom : model.axioms())
        tracks.push_back(axiomTrack(model, axiom.name));
    return tracks;
}

} // namespace

Track
axiomTrack(const mm::Model &model, const std::string &axiom_name)
{
    return Track{axiom_name, [&model, axiom_name](size_t n) {
                     return axiomViolation(model, axiom_name, n);
                 }};
}

Suite
synthesizeAxiom(const mm::Model &model, const std::string &axiom_name,
                const SynthOptions &options)
{
    return runSynthesisTracks(model, {axiomTrack(model, axiom_name)},
                              options)[0];
}

Suite
synthesizeUnionDirect(const mm::Model &model, const SynthOptions &options)
{
    Track track{"union-direct",
                [&model](size_t n) { return anyAxiomViolation(model, n); }};
    return runSynthesisTracks(model, {track}, options)[0];
}

Suite
unionSuites(const std::vector<Suite> &suites, const SynthOptions &options)
{
    Suite u;
    u.axiom = "union";
    size_t total = 0;
    for (const auto &s : suites)
        total += s.tests.size();
    std::unordered_set<std::string> seen(total);
    u.tests.reserve(total);
    for (const auto &s : suites) {
        if (u.model.empty())
            u.model = s.model;
        const std::string prefix = u.model + "/union#";
        u.rawInstances += s.rawInstances;
        u.truncated = u.truncated || s.truncated;
        for (const auto &test : s.tests) {
            LitmusTest canon = options.useCanon
                                   ? litmus::canonicalize(test,
                                                          options.canonMode)
                                   : test;
            if (!seen.insert(litmus::staticSerialize(canon)).second)
                continue;
            canon.name = prefix + std::to_string(u.tests.size());
            u.testsBySize[static_cast<int>(canon.size())]++;
            u.tests.push_back(std::move(canon));
        }
        for (auto [size, secs] : s.secondsBySize)
            u.secondsBySize[size] += secs;
        for (auto [size, insts] : s.instancesBySize)
            u.instancesBySize[size] += insts;
        for (auto [size, clauses] : s.sbpClausesBySize)
            u.sbpClausesBySize[size] += clauses;
    }
    return u;
}

std::vector<Suite>
synthesizeAll(const mm::Model &model, const SynthOptions &options)
{
    std::vector<Suite> suites =
        runSynthesisTracks(model, allAxiomTracks(model), options);
    suites.push_back(unionSuites(suites, options));
    return suites;
}

Suite
assembleShardSuite(const mm::Model &model, const std::string &label,
                   const std::vector<ShardResult> &by_size, int min_size)
{
    return assembleShardSuite(model, label,
                              std::vector<ShardResult>(by_size), min_size);
}

Suite
assembleShardSuite(const mm::Model &model, const std::string &label,
                   std::vector<ShardResult> &&by_size, int min_size)
{
    Suite suite;
    suite.model = model.name();
    suite.axiom = label;

    size_t total = 0;
    for (const ShardResult &r : by_size)
        total += r.tests.size();
    std::unordered_set<std::string> seen(total);
    suite.tests.reserve(total);
    const std::string prefix = model.name() + "/" + label + "#";
    for (size_t si = 0; si < by_size.size(); si++) {
        ShardResult &r = by_size[si];
        int size = min_size + static_cast<int>(si);
        int kept = 0;
        for (LitmusTest &test : r.tests) {
            if (!seen.insert(litmus::staticSerialize(test)).second)
                continue;
            test.name = prefix;
            test.name += std::to_string(suite.tests.size());
            suite.tests.push_back(std::move(test));
            kept++;
        }
        suite.rawInstances += r.rawInstances;
        suite.truncated = suite.truncated || r.truncated;
        suite.testsBySize[size] = kept;
        suite.secondsBySize[size] = r.seconds;
        suite.instancesBySize[size] = r.rawInstances;
        suite.sbpClausesBySize[size] = r.sbpClauses;
    }
    return suite;
}

std::string
proofFilePath(const SynthOptions &options, const std::string &model, int size)
{
    if (options.proofDir.empty())
        return std::string();
    return options.proofDir + "/" + model + ".n" + std::to_string(size) +
           ".drat";
}

} // namespace lts::synth
