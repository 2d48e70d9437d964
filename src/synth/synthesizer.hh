/**
 * @file
 * SAT-based litmus test suite synthesis (Section 5 of the paper).
 *
 * For each axiom of a model and each exact test size, the synthesizer
 * asserts the minimality-criterion formula into the relational solver and
 * enumerates every satisfying instance, blocking on the *static* part of
 * each found test so each program is produced once regardless of how many
 * witness executions it has. Instances are read back as litmus tests,
 * canonicalized (Section 5.1), and deduplicated; per-axiom suites union
 * into the per-model suite of Section 5.2.
 *
 * With SynthOptions::symmetryBreaking (default on) the solver also
 * carries the model's lex-leader symmetry-breaking predicates, and each
 * found model is blocked together with every symmetric image of it
 * (orbit blocking), so enumeration produces one SAT model per
 * isomorphism class. The suite stays byte-identical either way: each
 * kept test is re-derived by pinning a class-canonical representative
 * program and lex-minimizing its witness in a solve that excludes the
 * symmetry and blocking layers, making the emitted bytes a pure
 * function of the class rather than of enumeration order.
 *
 * One engine: one solver per test size. The axiom-independent part of
 * the criterion (well-formedness plus the relaxation conjunct) is
 * asserted once as a base fact, simplified, and given the symmetry-
 * breaking layer; each axiom's violation is then swept over it as a
 * retractable fact layer (rel::FactHandle) whose blocking clauses and
 * learned clauses are retired when the sweep moves on. Every synthesis
 * goes through one runner, runSizeJobs: one SizeJob per size, on a
 * thread pool when SynthOptions::jobs != 1. A size job builds its
 * solver, sweeps its tracks and frees the solver before it returns, so
 * nothing outlives the run but shards and counters. Results are merged
 * in a fixed order (axiom declaration order, then size, then canonical
 * serialization), so the output is byte-identical to a serial run
 * regardless of completion order.
 */

#ifndef LTS_SYNTH_SYNTHESIZER_HH
#define LTS_SYNTH_SYNTHESIZER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "litmus/canon.hh"
#include "litmus/test.hh"
#include "mm/model.hh"

namespace lts::synth
{

/**
 * The solver work of a synthesis run, as plain counters: each size job
 * counts its own, runSizeJobs sums them after the join, and
 * Service::query copies the sum into its SuiteResult.
 */
struct SynthProgressSnapshot
{
    uint64_t jobsQueued = 0;  ///< size jobs run
    uint64_t conflicts = 0;   ///< SAT conflicts, all jobs
    uint64_t restarts = 0;    ///< SAT restarts, all jobs
    uint64_t instances = 0;   ///< SAT models enumerated
    uint64_t sbpClauses = 0;  ///< symmetry-breaking clauses emitted
    uint64_t eliminatedVars = 0;  ///< vars removed by simplify
    uint64_t subsumedClauses = 0; ///< clauses removed by simplify

    SynthProgressSnapshot &operator+=(const SynthProgressSnapshot &other);
};

/** Synthesis knobs; defaults mirror the paper's methodology. */
struct SynthOptions
{
    int minSize = 2;           ///< smallest test size (instructions)
    int maxSize = 4;           ///< largest test size
    litmus::CanonMode canonMode = litmus::CanonMode::Paper;
    bool blockStaticOnly = true;  ///< ablation: block full instances instead
    bool useCanon = true;         ///< ablation: disable symmetry reduction
    uint64_t conflictBudget = 0;  ///< SAT conflict cap per (axiom, size)
                                  ///< query family (0 = off)
    int maxTestsPerSize = 0;      ///< safety cap (0 = off)

    /**
     * In-solver symmetry breaking: install the model's lex-leader
     * predicates and forbidden patterns (mm::Model::symmetrySpec) into
     * each enumeration solver, and block every symmetric image of each
     * found model (orbit blocking) so one SAT model is enumerated per
     * isomorphism class instead of one per class member. Suites are
     * byte-identical with the knob on or off — only rawInstances and
     * wall time change.
     */
    bool symmetryBreaking = true;

    /**
     * Worker threads: one job per size, each sweeping its axioms over a
     * private solver. 1 runs jobs inline on the caller thread; 0 uses
     * all hardware threads; no more workers start than there are size
     * jobs. Results are merged deterministically, so output is
     * byte-identical for any value.
     */
    int jobs = 1;

    /**
     * Run the SAT backend's SatELite-style preprocessing pass (subsumption,
     * self-subsuming resolution, bounded variable elimination — see
     * sat::Solver::simplify) over each solver's permanent encoding before
     * enumeration. Relation cells and fact-layer selectors are frozen, so
     * suites are byte-identical with the knob on or off; only the search
     * effort changes.
     */
    bool simplify = true;

    /**
     * When non-empty, every enumeration solver logs a DRAT-style proof
     * trace (see sat/drat.hh) into this directory, and each shard that
     * exhausts its enumeration records its final Unsat answer as a
     * checkable conclusion: one file per size, carrying one conclusion
     * per swept axiom (see proofFilePath). Probe solves (witness
     * re-derivation) are logged but never concluded. A proof knob is an
     * engine knob: suites are byte-identical with logging on or off, and
     * the store/service digests ignore it.
     */
    std::string proofDir;

    /**
     * When non-empty, each shard that exhausts its enumeration also
     * dumps its final post-simplify CNF — live clauses plus fact-layer
     * selector units — as DIMACS into this directory, one
     * "<model>.<axiom>.n<size>.cnf" per shard, for offline cross-checks
     * with external solvers. Engine knob, like proofDir.
     */
    std::string dumpDimacsDir;
};

/** A synthesized suite plus bookkeeping for the runtime figures. */
struct Suite
{
    std::string model;
    std::string axiom; ///< axiom name, or "union"
    std::vector<litmus::LitmusTest> tests;
    std::map<int, int> testsBySize;    ///< size -> #tests
    std::map<int, double> secondsBySize;
    std::map<int, uint64_t> instancesBySize; ///< size -> SAT models found
    std::map<int, uint64_t> sbpClausesBySize; ///< size -> SBP clauses emitted
                                              ///< (summed over solvers)
    uint64_t rawInstances = 0; ///< SAT models before canonicalization
    bool truncated = false;    ///< a budget or cap was hit

    double
    totalSeconds() const
    {
        double s = 0;
        for (auto [k, v] : secondsBySize)
            s += v;
        return s;
    }
};

/**
 * The result of one (axiom, size) query family — the unit a sweep
 * returns and the suite store caches by. Tests are canonical (per the
 * options), deduplicated within the shard, and sorted by their
 * canonical serialization, so a shard's bytes are a pure function of
 * (model, axiom, size, semantic options) — independent of engine knobs,
 * thread count, and enumeration order. assembleShardSuite folds a
 * size-ascending run of these into a Suite.
 */
struct ShardResult
{
    std::vector<litmus::LitmusTest> tests;
    uint64_t rawInstances = 0;
    uint64_t sbpClauses = 0;
    bool truncated = false;
    double seconds = 0;
};

/**
 * The proof file a size's trace lands in under options.proofDir: all
 * axioms of a size are swept over one solver, so they share one
 * "<model>.n<size>.drat". Returns an empty string when
 * options.proofDir is empty.
 */
std::string proofFilePath(const SynthOptions &options,
                          const std::string &model, int size);

/**
 * Deterministic merge of one axiom's per-size shards into a Suite:
 * sizes ascending, tests in canonical-key order within each size,
 * cross-size duplicates dropped, renamed "model/label#i" by final
 * position. by_size[i] is size min_size + i.
 */
Suite assembleShardSuite(const mm::Model &model, const std::string &label,
                         const std::vector<ShardResult> &by_size,
                         int min_size);

/** The same merge, moving the kept tests out of @p by_size. */
Suite assembleShardSuite(const mm::Model &model, const std::string &label,
                         std::vector<ShardResult> &&by_size, int min_size);

/**
 * One query family to sweep over a size's encoding: the shard label (an
 * axiom name, or "union-direct") and its violation layer at a size.
 */
struct Track
{
    std::string label;
    std::function<rel::FormulaPtr(size_t)> layerFor;
};

/** The track of one axiom: axiomViolation(model, axiom_name, n). */
Track axiomTrack(const mm::Model &model, const std::string &axiom_name);

/** One size's share of a synthesis run: the tracks to sweep at @p size. */
struct SizeJob
{
    int size = 0;
    std::vector<Track> tracks;
    std::vector<ShardResult> shards; ///< one per track, set by runSizeJobs
};

/**
 * Run every job — inline for options.jobs == 1 or a single job, else on
 * a pool of at most jobs.size() workers. A job asserts the size's
 * axiom-independent criterion (minimalityBase) once, simplifies it and
 * installs symmetry breaking; when options.proofDir is set its solver
 * logs to the size's proof file. It then sweeps its tracks in order,
 * each track's layer added as a retractable fact, enumerated and
 * retracted, so a shard's result does not depend on which others are
 * swept; the first shard carries the SBP clause count. The solver is
 * freed when the job ends, so a finished size never adds to the peak
 * memory of the sizes still running. No SAT or relational state crosses
 * threads. Returns the jobs' counters, summed after the join.
 */
SynthProgressSnapshot runSizeJobs(const mm::Model &model,
                                  std::vector<SizeJob> &jobs,
                                  const SynthOptions &options);

/** Synthesize the suite for one axiom. */
Suite synthesizeAxiom(const mm::Model &model, const std::string &axiom_name,
                      const SynthOptions &options);

/**
 * Synthesize per-axiom suites and their union (tests minimal for at
 * least one axiom, counted once — Section 5.2). The union suite is the
 * last element, named "union".
 */
std::vector<Suite> synthesizeAll(const mm::Model &model,
                                 const SynthOptions &options);

/**
 * Merge suites into a union suite, deduplicating canonically. The kept
 * tests are stored in canonical form (under options.useCanon) and
 * renumbered "model/union#i" in merge order, so the union never holds
 * non-canonical duplicates or clashing per-axiom names.
 */
Suite unionSuites(const std::vector<Suite> &suites,
                  const SynthOptions &options);

/**
 * Generate the union suite with a single direct query per size (the
 * disjunctive criterion of minimality.hh) instead of merging per-axiom
 * runs. Produces the same test set; the paper's footnote 4 observes the
 * direct query is often slower, which bench/ablation_synth measures.
 */
Suite synthesizeUnionDirect(const mm::Model &model,
                            const SynthOptions &options);

} // namespace lts::synth

#endif // LTS_SYNTH_SYNTHESIZER_HH
