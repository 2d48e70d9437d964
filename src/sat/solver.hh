/**
 * @file
 * A conflict-driven clause-learning (CDCL) SAT solver.
 *
 * This is the project's stand-in for the off-the-shelf MiniSAT backend the
 * paper used underneath Alloy/Kodkod. It implements the standard modern
 * architecture: two-watched-literal unit propagation, first-UIP conflict
 * analysis with recursive clause minimization, VSIDS decision heuristics
 * with phase saving, Luby-sequence restarts, LBD-aware learned-clause
 * deletion, and incremental solving under assumptions whose decision
 * levels, and after a Sat answer the whole trail, carry over between
 * calls.
 *
 * The solver is built for *retractable* incremental use: clauses may be
 * added between solve() calls (how the synthesizer's enumeration loop
 * blocks previously found tests), and clauses may be tagged with an
 * activation-literal group (newGroup / addClause(group, lits) /
 * release(group)) so a whole layer of facts can be asserted for some
 * queries and permanently retired later without rebuilding the solver.
 * Learned clauses derived from a group carry the group's activation
 * literal and die with it; everything else survives across queries.
 *
 * Clause store. Every clause lives in one contiguous arena of 8-byte
 * words: a 24-byte header (InternalClause) with the literals inline
 * after it, so a watch visit reads header and literals through a single
 * dereference. Watch lists hold arena offsets; everything else (group
 * clause lists, learnts, reasons, the simplifier's side tables) names a
 * clause by its dense id, and a table maps each id to its offset.
 * Removing a clause only marks it deleted. Once deleted clauses hold a
 * fixed share of the arena, release(), reduceDB() and simplify() compact
 * it: live clauses slide down in id order and every watcher is rewritten
 * in place. Ids, watch-list order and literal positions all survive, so
 * the layout is invisible to the search — the same inputs give the same
 * conflicts, learned clauses and DRAT proof bytes however the arena has
 * been compacted.
 */

#ifndef LTS_SAT_SOLVER_HH
#define LTS_SAT_SOLVER_HH

#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "sat/types.hh"

namespace lts::sat
{

class DratWriter;

/** Aggregate counters exposed for benchmarks and logging. */
struct SolverStats
{
    uint64_t decisions = 0;
    uint64_t propagations = 0;
    uint64_t conflicts = 0;
    uint64_t restarts = 0;
    uint64_t learnedClauses = 0;
    uint64_t deletedClauses = 0;
    uint64_t minimizedLits = 0;
    uint64_t reduceCalls = 0;     ///< learned-DB reductions performed
    uint64_t releasedGroups = 0;  ///< activation groups retired
    uint64_t eliminatedVars = 0;  ///< variables removed by simplify()
    uint64_t subsumedClauses = 0; ///< clauses deleted by subsumption
    uint64_t strengthenedLits = 0; ///< literals removed by self-subsumption
    uint64_t solves = 0;          ///< solve() calls
    uint64_t modelReplays = 0;    ///< lazy replays of the elimination stack
    uint64_t keptLevels = 0;      ///< assumption levels reused across calls
    uint64_t arenaCompactions = 0; ///< clause-arena compactions
};

/**
 * Add to @p into the search counters — decisions, propagations,
 * conflicts, restarts, learnt clauses, minimized literals, solves and
 * kept levels — that @p after gained over @p before.
 */
void addSearch(SolverStats &into, const SolverStats &before,
               const SolverStats &after);

/**
 * Structured outcome of a solve() call. BudgetExhausted means the
 * conflict budget stopped the search before an answer was reached: the
 * model and the conflict-assumption set are both meaningless.
 */
enum class SolveResult
{
    Sat,
    Unsat,
    BudgetExhausted,
};

/**
 * An activation-literal group for retractable clauses. Clauses added to
 * a group are guarded by the group's selector variable and only bind
 * when the group's literal (groupLit) is assumed. release() retires the
 * group permanently. Obtained from Solver::newGroup().
 */
using Group = int32_t;

constexpr Group kNoGroup = -1;

/**
 * CDCL SAT solver over clauses of Lit.
 *
 * Typical use:
 * @code
 *   Solver s;
 *   Var a = s.newVar(), b = s.newVar();
 *   s.addClause({Lit::pos(a), Lit::pos(b)});
 *   if (s.solve() == SolveResult::Sat) { bool va = s.modelValue(a); ... }
 * @endcode
 *
 * Retractable layers:
 * @code
 *   Group g = s.newGroup();
 *   s.addClause(g, {Lit::neg(a)});             // bound only under g
 *   s.solve({s.groupLit(g)});                  // query with the layer
 *   s.release(g);                              // retire it for good
 * @endcode
 */
class Solver
{
  public:
    Solver();

    /** Allocate a fresh variable and return it. */
    Var newVar();

    /** Number of allocated variables. */
    int numVars() const { return static_cast<int>(assigns.size()); }

    /** Number of problem (non-learned) clauses currently alive. */
    int numClauses() const { return numProblemClauses; }

    /** Number of learned clauses currently alive. */
    int numLearned() const { return numLearnedClauses; }

    /**
     * Add a permanent clause. Returns false if the clause (together with
     * prior top-level facts) makes the formula trivially unsatisfiable.
     * May be called between solve() calls.
     *
     * The clause lands where the solver stands. It is normalized against
     * root values only; a unit left by that goes to the root. A longer
     * clause watches its non-false literals first, then its false ones
     * by decreasing level, and the solver backtracks only as far as the
     * clause needs: a falsified clause with a unique highest level
     * backtracks to its second-highest level and asserts the highest
     * literal there, one whose highest level is tied backtracks one level
     * below it, and a clause left unit backtracks to its highest false
     * literal's level and asserts the remaining literal there, unless it
     * is already true at or below that level. An enumeration loop's
     * blocking clause thus costs a backjump, not a fresh descent.
     */
    bool addClause(Clause lits);

    // --- activation-literal groups ---------------------------------------

    /**
     * Allocate a retractable clause group. The group's clauses bind only
     * in solve() calls that assume groupLit(g).
     */
    Group newGroup();

    /**
     * The group's activation literal: assume it to enforce the group's
     * clauses for one solve() call.
     */
    Lit groupLit(Group g) const;

    /**
     * Add a clause guarded by group @p g (the clause is augmented with
     * the negated activation literal) and place it as addClause(lits)
     * does. Returns false only if the solver is already in a top-level
     * conflict.
     */
    bool addClause(Group g, Clause lits);

    /**
     * Permanently retire a group: its problem clauses are removed, its
     * activation literal is pinned false, and learned clauses guarded by
     * it are purged. Must be called between solve() calls. Idempotent.
     */
    void release(Group g);

    /** True once release(g) has been called. */
    bool isReleased(Group g) const;

    // --- simplification (simplify.cc) -------------------------------------

    /**
     * Freeze @p v: simplify() will never eliminate it. Freeze every
     * variable the outside world refers to — relation cells, anything
     * later assumed, pinned, or read back. Group selectors are frozen
     * automatically by newGroup().
     */
    void setFrozen(Var v, bool frozen = true);

    /** Whether @p v is protected from elimination. */
    bool isFrozen(Var v) const { return frozenFlags[v] != 0; }

    /**
     * Whether simplify() eliminated @p v. Eliminated variables occur in
     * no live clause and must not appear in clauses, assumptions, or
     * groups added later; modelValue() stays total via reconstruction,
     * which runs on the first read of an eliminated variable.
     */
    bool isEliminated(Var v) const { return elimFlags[v] != 0; }

    /**
     * Run the SatELite-style preprocessing pass (see simplify.cc):
     * backward subsumption, self-subsuming resolution, and bounded
     * variable elimination over the live *ungrouped* problem clauses,
     * to a fixpoint. Frozen variables are never eliminated (see
     * setFrozen). Grouped clauses and every variable occurring in one
     * are left untouched so retractable layers stay retractable; learnt
     * clauses are dropped (they are re-derivable). Drops the assumption
     * levels kept from the last solve() and settles a pending model
     * replay first; deterministic, so identical solvers simplify
     * identically. The pass has no knobs: its bounds are MiniSat's
     * SatELite defaults (no clause-count growth per elimination,
     * variables with at most 30 occurrences, resolvents of at most 20
     * literals). Returns false when simplification proves the formula
     * unsatisfiable.
     */
    bool simplify();

    /**
     * Snapshot of the live problem clauses — including the activation
     * guard literal of grouped clauses — and optionally the learnt ones.
     * Lets callers round-trip solver state through DIMACS.
     */
    std::vector<Clause> liveClauses(bool include_learned = false) const;

    // --- probe copies -----------------------------------------------------

    /**
     * A fresh solver for probe queries that activate only @p groups. It
     * has this solver's variables and holds this solver's root units, its
     * live permanent problem clauses and the live clauses of @p groups,
     * with their selectors fixed true so the groups bind
     * unconditionally. Nothing else comes along: no learnt clauses,
     * other groups, kept levels, proof writer or elimination stack. A
     * variable that occurs in no copied clause and is not frozen here is
     * marked eliminated in the copy, so the copy never decides it; assume
     * only frozen variables or variables of copied clauses. Under such
     * assumptions the copy is Sat exactly when this solver is Sat with
     * the groups' literals assumed too (simplify() eliminates by exact
     * projection), so a query with a unique answer, such as a lex-min
     * completion, answers the same on either. Its search can be charged
     * back here with chargeSearch().
     */
    std::unique_ptr<Solver> restrictedCopy(const std::vector<Group> &groups) const;

    /**
     * Changes whenever restrictedCopy(@p groups) would copy something
     * new: a variable, a permanent clause or unit, a simplify() pass, or
     * a clause added to one of @p groups. A copy stays current while
     * this value does.
     */
    uint64_t revision(const std::vector<Group> &groups) const;

    /**
     * Add the search counters of @p work (see addSearch), such as a
     * restrictedCopy()'s solves, to this solver's stats, so budgets and
     * counters cover probe queries as if they had run here.
     */
    void chargeSearch(const SolverStats &work);

    // --- proof logging (drat.hh) ------------------------------------------

    /**
     * Attach (or detach, with nullptr) a proof writer. From here on
     * every clause addition, derivation, and deletion is logged, so any
     * Unsat answer concluded with proofConcludeUnsat() can be verified
     * by the independent checker in drat.hh. Clauses already present
     * (and root units) are snapshotted as input lines, so attaching to
     * a solver that has clauses is sound — but it must not have learnt
     * clauses yet (asserted), since those cannot be re-justified here.
     * The writer is not owned and must outlive the solver (or be
     * detached first).
     */
    void setProof(DratWriter *writer);

    /**
     * Log the most recent Unsat answer as a proof conclusion ('u'): the
     * negated failed assumptions (the empty clause for an assumption-
     * free refutation). The checker verifies every conclusion, so call
     * this only for the answers the caller relies on — probe solves
     * (witness minimization and the like) are best left unlogged.
     * Requires the last solve() to have returned SolveResult::Unsat.
     */
    void proofConcludeUnsat();

    // --- solving ----------------------------------------------------------

    /** Solve with no assumptions. */
    SolveResult solve();

    /**
     * Solve under the given assumption literals. The assumptions hold
     * only for this call, but their decision levels outlive it: on
     * return the solver keeps level i+1 (assumption i and its
     * propagations) for every assumption it reached, and a Sat answer
     * keeps its free decisions above them too. The next call with the
     * same assumptions resumes on that trail; with different ones it
     * backtracks to the longest common prefix of the two vectors. A
     * caller that extends the previous vector by one literal pays only
     * for that literal's propagation, and one that blocks the model and
     * solves again pays only for the backjump addClause made. Mutators
     * that need the root (unit clauses, release, simplify, ...) drop the
     * kept levels first; a solver found inconsistent returns at level 0.
     * Reuse never changes an answer.
     */
    SolveResult solve(const std::vector<Lit> &assumptions);

    /** True once the formula is known unsatisfiable regardless of input. */
    bool inConflict() const { return !ok; }

    /**
     * Value of @p v in the most recent satisfying model. Values of
     * eliminated variables are reconstructed lazily: the first such read
     * after a Sat answer replays the elimination stack once (counted in
     * SolverStats::modelReplays). Reading only frozen variables, as
     * relation-cell extraction does, never pays for the replay.
     */
    bool
    modelValue(Var v) const
    {
        if (modelStale && elimFlags[v])
            reconstructModel();
        return model[v] == LBool::True;
    }

    /** Value of @p l in the most recent satisfying model. */
    bool
    modelValue(Lit l) const
    {
        bool v = modelValue(l.var());
        return l.sign() ? !v : v;
    }

    /**
     * Subset of the assumptions responsible for the last UNSAT answer
     * (negated, i.e. the final conflict clause over assumption vars).
     * Only meaningful when the last solve() returned SolveResult::Unsat;
     * asserted in debug builds.
     */
    const std::vector<Lit> &conflictAssumptions() const;

    const SolverStats &stats() const { return statsData; }

    /**
     * Abort solve() once this many conflicts occur, counted from this
     * call (0 = no limit). Re-arming resets the count, so a long-lived
     * incremental solver can budget each query family separately.
     */
    void setConflictBudget(uint64_t budget);

    /**
     * What is left of the conflict budget: 0 when none is set, else at
     * least 1, so a solve given what is left of a spent budget stops at
     * its first conflict.
     */
    uint64_t remainingConflictBudget() const;

    /**
     * Force a learned-clause database reduction now (normally triggered
     * internally). Exposed so tests and benchmarks can exercise the
     * LBD-aware retention policy deterministically.
     */
    void reduceLearnedClauses();

    /**
     * Verify the most recent satisfying model: every live problem clause
     * (including the activation-literal guard of grouped clauses) and
     * every clause removed by variable elimination must contain a true
     * literal; a pending model replay is settled first. Only meaningful
     * after solve() returned SolveResult::Sat; builds with assertions
     * enabled assert this after every Sat answer (so they replay
     * eagerly), and an unsound simplification or watch bug fails loudly
     * at its source instead of corrupting synthesis output downstream.
     */
    bool checkModel() const;

    /**
     * Words (8 bytes each) the clause arena currently spans, deleted
     * clauses awaiting compaction included. Compaction keeps this within
     * a constant factor of the live clauses' own words.
     */
    size_t arenaWords() const { return clauses.words.size(); }

  private:
    friend class Simplifier; ///< the preprocessing pass (simplify.cc)
    friend struct TrailInspector; ///< clause-placement tests read the trail

    /** Dense clause id: index into groups[].clauseRefs, learnts, reasons. */
    using ClauseRef = int32_t;
    static constexpr ClauseRef kNoReason = -1;

    /**
     * A clause's 24-byte header in the arena; its `size` literals follow
     * it inline, padded so the next header stays 8-byte aligned. Only
     * the arena creates headers. A deleted clause keeps its header and
     * literals until the next compaction, after which its id resolves to
     * the arena's permanent empty, deleted tombstone at offset 0.
     *
     * Exactness: propagate() swaps literals in place exactly as a vector
     * store did, and compaction copies literals verbatim, so the arena
     * never reorders a literal or a watch.
     */
    struct InternalClause
    {
        uint32_t size;
        ClauseRef id;
        int32_t lbd; ///< literal block distance at learn time
        bool learned;
        bool deleted;
        double activity; ///< reduceDB's tie-break; a float would reorder

        std::span<Lit>
        lits()
        {
            return {std::launder(reinterpret_cast<Lit *>(this + 1)), size};
        }

        std::span<const Lit>
        lits() const
        {
            return {std::launder(reinterpret_cast<const Lit *>(this + 1)),
                    size};
        }
    };

    /** Every clause, as headers with inline literals in one vector. */
    struct ClauseArena
    {
        static constexpr uint32_t kHeaderWords = 3;
        /** Words occupied by a clause of @p lits literals. */
        static constexpr uint32_t
        wordsFor(uint32_t lits)
        {
            return kHeaderWords + (lits + 1) / 2;
        }

        std::vector<uint64_t> words;   ///< tombstone, then clauses by id
        std::vector<uint32_t> offsets; ///< id -> offset into words
        size_t wasted = 0;             ///< words of deleted clauses

        ClauseArena();

        InternalClause &
        at(uint32_t off)
        {
            return *std::launder(
                reinterpret_cast<InternalClause *>(words.data() + off));
        }

        const InternalClause &
        at(uint32_t off) const
        {
            return *std::launder(
                reinterpret_cast<const InternalClause *>(words.data() + off));
        }

        InternalClause &
        operator[](ClauseRef cref)
        {
            return at(offsets[cref]);
        }

        const InternalClause &
        operator[](ClauseRef cref) const
        {
            return at(offsets[cref]);
        }

        /** Number of ids handed out, deleted clauses included. */
        size_t size() const { return offsets.size(); }
    };

    struct GroupInfo
    {
        Var selector = -1;
        std::vector<int32_t> clauseRefs; ///< live problem clauses
        uint64_t added = 0;              ///< addClause(g, ...) calls
        bool releasedFlag = false;
    };

    // --- clause & watch management -------------------------------------
    ClauseRef allocClause(const std::vector<Lit> &lits, bool learned);
    void attachClause(ClauseRef cref);
    void detachClause(ClauseRef cref);
    void removeClause(ClauseRef cref);
    void maybeCompactArena();
    bool addClauseInternal(Clause lits, Group group);
    /** Debug check of a clause just placed on the trail: not falsified,
     *  and if unit, its literal is true no higher than its false ones. */
    bool placedOnTrail(std::span<const Lit> lits) const;

    // --- assignment trail -----------------------------------------------
    LBool value(Var v) const { return assigns[v]; }
    /** Branch-free: with False=0, True=1, Undef=2 a negative literal
     *  flips the low bit of a defined value and leaves Undef alone. */
    LBool
    value(Lit l) const
    {
        auto b = static_cast<uint8_t>(assigns[l.var()]);
        return static_cast<LBool>(b ^ (uint8_t(l.sign()) & ~(b >> 1)));
    }
    int decisionLevel() const { return static_cast<int>(trailLims.size()); }
    void newDecisionLevel() { trailLims.push_back(trail.size()); }
    void uncheckedEnqueue(Lit l, ClauseRef reason);
    void cancelUntil(int level);

    // --- simplification support ------------------------------------------
    void reconstructModel() const;

    // --- proof support ----------------------------------------------------
    void proofAdd(const std::vector<Lit> &lits);
    void proofAddUnit(Lit l);

    // --- search ----------------------------------------------------------
    ClauseRef propagate();
    void analyze(ClauseRef confl, std::vector<Lit> &out_learnt,
                 int &out_btlevel, int &out_lbd);
    bool litRedundant(Lit l, uint32_t abstract_levels);
    void analyzeFinal(Lit p);
    Lit pickBranchLit();
    LBool search(int64_t max_conflicts);

    // --- heuristics -------------------------------------------------------
    void varBumpActivity(Var v);
    void varDecayActivity() { varInc /= varDecay; }
    void claBumpActivity(InternalClause &c);
    void claDecayActivity() { claInc /= claDecay; }
    void reduceDB();
    bool satisfiedAtRoot(const InternalClause &c) const;
    static double luby(double y, int i);

    // --- order heap (max-heap on activity) --------------------------------
    void heapInsert(Var v);
    void heapUpdate(Var v);
    Var heapRemoveMax();
    bool heapContains(Var v) const { return heapIndex[v] >= 0; }
    void heapPercolateUp(int i);
    void heapPercolateDown(int i);

    // --- state -------------------------------------------------------------
    ClauseArena clauses;
    std::vector<ClauseRef> learnts;
    /** Arena offsets of the clauses watching each Lit::index(). */
    std::vector<std::vector<uint32_t>> watches;

    std::vector<LBool> assigns;
    /** The last satisfying assignment. Mutable together with modelStale:
     *  const readers settle a pending reconstruction on demand. */
    mutable std::vector<LBool> model;
    /** model's eliminated variables await reconstructModel(). */
    mutable bool modelStale = false;
    std::vector<bool> polarity;  // saved phases
    std::vector<int> levels;
    std::vector<ClauseRef> reasons;
    std::vector<Lit> trail;
    std::vector<size_t> trailLims;
    size_t qhead = 0;

    std::vector<double> activity;
    std::vector<int> heap;       // variable max-heap by activity
    std::vector<int> heapIndex;  // var -> position in heap, -1 if absent

    /** Assumptions of the current (or, between calls, the last) solve();
     *  decision level i+1 holds assumptionsVec[i] for every kept level. */
    std::vector<Lit> assumptionsVec;
    std::vector<Lit> conflict;

    std::vector<uint8_t> seen;
    std::vector<Lit> analyzeStack;
    std::vector<Lit> analyzeToClear;
    std::vector<int> lbdLevels; // scratch for LBD computation

    std::vector<GroupInfo> groups;

    // --- simplification state ---------------------------------------------
    /** Clauses removed by variable elimination, in elimination order;
     *  replayed in reverse by reconstructModel() so eliminated variables
     *  get model values satisfying them. simplify() settles a stale
     *  model before pushing, so a replay never mixes models. Stored
     *  flat — one literal array, one end offset per clause, one first
     *  clause per record — since a record holds a handful of short
     *  clauses and a vector each would cost more than its literals. */
    struct ElimRecord
    {
        Var v;
        uint32_t firstClause; ///< index into elimClauseEnds
    };

    /** Clauses [first, end) of record @p r in elimClauseEnds. */
    uint32_t
    elimRecordEnd(size_t r) const
    {
        return r + 1 < elimStack.size()
                   ? elimStack[r + 1].firstClause
                   : static_cast<uint32_t>(elimClauseEnds.size());
    }

    /** The literals of eliminated clause @p c. */
    std::span<const Lit>
    elimClause(uint32_t c) const
    {
        uint32_t begin = c ? elimClauseEnds[c - 1] : 0;
        return {elimLits.data() + begin, elimClauseEnds[c] - begin};
    }

    std::vector<uint8_t> frozenFlags;   // per var: caller froze it
    std::vector<uint8_t> elimFlags;     // per var: eliminated by simplify()
    size_t numEliminated = 0;           // variables with elimFlags set
    std::vector<ElimRecord> elimStack;
    std::vector<uint32_t> elimClauseEnds; ///< per clause: end in elimLits
    std::vector<Lit> elimLits;

    DratWriter *proof = nullptr; ///< proof sink; not owned

    /** Variables, permanent clause additions and simplify() passes so
     *  far: the ungrouped part of revision(). */
    uint64_t permanentRevision = 0;

    bool ok = true;
    double varInc = 1.0;
    double varDecay = 0.95;
    double claInc = 1.0;
    double claDecay = 0.999;
    int numProblemClauses = 0;
    int numLearnedClauses = 0;
    double maxLearnts = 0.0;
    uint64_t conflictBudget = 0;
    uint64_t budgetBase = 0;
    bool hitBudget = false;
    SolveResult lastResult = SolveResult::Sat;
    bool haveModel = false;

    /** Mutable for modelReplays, counted by const model readers. */
    mutable SolverStats statsData;
};

} // namespace lts::sat

#endif // LTS_SAT_SOLVER_HH
