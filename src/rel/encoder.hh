/**
 * @file
 * Symbolic encoder: relational expressions/formulas -> AIG gates -> CNF.
 *
 * Together with rel/gates.hh this is the Kodkod-equivalent translation the
 * paper relies on: every declared relation variable becomes a matrix of
 * free SAT variables, every operator becomes gate-level boolean algebra on
 * those matrices (transitive closure by iterative squaring), and every
 * formula becomes a single gate literal that can be asserted.
 *
 * RelSolver wraps the whole pipeline: declare a Vocabulary, assert facts,
 * then solve/enumerate instances. Facts come in two flavours: *base*
 * facts are permanent, while retractable facts (addFact -> FactHandle)
 * are layered over the shared encoding via the SAT solver's
 * activation-literal groups and can be retired with retract(). One
 * solver can therefore serve many closely related queries — the
 * synthesizer sweeps every axiom of a model over a single per-size
 * encoding. Enumeration blocks either the full instance or only a chosen
 * subset of relations (the synthesizer blocks only the *static* part of
 * a litmus test so each test is produced once), and blocking clauses can
 * be tied to a fact layer so they die with it.
 */

#ifndef LTS_REL_ENCODER_HH
#define LTS_REL_ENCODER_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "rel/eval.hh"
#include "rel/formula.hh"
#include "rel/gates.hh"
#include "rel/instance.hh"
#include "rel/symmetry.hh"
#include "sat/dimacs.hh"
#include "sat/solver.hh"

namespace lts::rel
{

/** A symbolic set: one gate literal per atom. */
using SymSet = std::vector<GLit>;

/** A symbolic relation: n x n gate literals, row-major. */
struct SymMatrix
{
    size_t n = 0;
    std::vector<GLit> cells; // n * n, row-major

    SymMatrix() = default;
    SymMatrix(size_t n, GLit fill) : n(n), cells(n * n, fill) {}

    GLit &at(size_t i, size_t j) { return cells[i * n + j]; }
    GLit at(size_t i, size_t j) const { return cells[i * n + j]; }
};

/**
 * Translates expressions and formulas over a fixed universe into gates.
 * Sub-expression results are memoized by node identity.
 */
class Encoder
{
  public:
    /**
     * @param vocab   declared relations
     * @param n       universe size
     * @param builder gate builder shared with the owning solver
     */
    Encoder(const Vocabulary &vocab, size_t n, GateBuilder &builder);

    /** The SAT variable holding cell (i, j) of binary relation @p var_id. */
    sat::Var cellVar(int var_id, size_t i, size_t j) const;

    /** The SAT variable holding membership of atom @p i in set @p var_id. */
    sat::Var cellVar(int var_id, size_t i) const;

    /** Encode an arity-1 expression. */
    SymSet encodeSet(const ExprPtr &e);

    /** Encode an arity-2 expression. */
    SymMatrix encodeMatrix(const ExprPtr &e);

    /** Encode a formula into one gate literal. */
    GLit encodeFormula(const FormulaPtr &f);

    /** Read back a full instance from the solver's current model. */
    Instance extract(const sat::Solver &solver) const;

    /**
     * Build a blocking clause excluding @p inst's assignment to the given
     * relation variables (all relations when @p var_ids empty).
     */
    sat::Clause blockingClause(const Instance &inst,
                               const std::vector<int> &var_ids) const;

    const Vocabulary &vocabulary() const { return vocab; }

    size_t universe() const { return n; }

  private:
    SymMatrix closure(const SymMatrix &m);
    SymMatrix composeSym(const SymMatrix &a, const SymMatrix &b);

    const Vocabulary &vocab;
    size_t n;
    GateBuilder &builder;

    // Per declared relation: the SAT variables of its cells.
    std::vector<std::vector<sat::Var>> cellVars;

    // Keyed by shared_ptr (pointer identity) so the cache also retains the
    // nodes: a raw-pointer key could be reused by a later allocation after
    // a temporary expression dies, aliasing unrelated cache entries.
    std::unordered_map<ExprPtr, SymSet> setCache;
    std::unordered_map<ExprPtr, SymMatrix> matrixCache;
    std::unordered_map<FormulaPtr, GLit> formulaCache;
};

/**
 * Handle to a retractable fact layer (see RelSolver::addFact). Thin
 * wrapper over a sat::Group: the fact's encoding is guarded by the
 * group's activation literal, so it binds only in solves that include
 * the handle and can be retired permanently with retract().
 */
using FactHandle = sat::Group;

constexpr FactHandle kNoFact = sat::kNoGroup;

/**
 * What a run of witness solves may spend and has spent: a conflict cap
 * over the whole run and the search counters of its solves so far.
 */
struct WitnessWork
{
    uint64_t budget = 0;    ///< conflict cap over the run (0 = none)
    sat::SolverStats stats; ///< the run's search so far (see sat::addSearch)
};

/**
 * The private solver witness resolution runs on (RelSolver::witnessFor):
 * a sat::Solver::restrictedCopy of the enumeration solver holding only
 * the base encoding and @p layers, the revision of the master it copied,
 * and the last witness it resolved. It reads the owning RelSolver's
 * Encoder only through const calls, so one thread can resolve witnesses
 * on it while another keeps solving and blocking on the master; one
 * thread at a time may use it.
 */
class WitnessSolver
{
  public:
    WitnessSolver(const Encoder &enc, std::unique_ptr<sat::Solver> solver,
                  std::vector<FactHandle> layers, uint64_t revision);

    /**
     * Pin @p pinned_var_ids to their values in @p pin and find the
     * lexicographically smallest completion (declared relations in id
     * order, cells row-major, false before true) under the copied
     * layers. Returns false when no completion exists or @p work's
     * budget ran out before the walk finished; on success instance()
     * holds the result, which is a pure function of the pinned
     * assignment and the copied constraint set. Each solve gets what is
     * left of @p work's budget (at least one conflict) and adds its
     * search to @p work.
     */
    bool pinAndMinimize(const Instance &pin,
                        const std::vector<int> &pinned_var_ids,
                        WitnessWork &work);

    /** The witness the last successful pinAndMinimize resolved. */
    const Instance &instance() const { return lastInstance; }

    /** The layers copied, and the master's revision(layers) then. */
    const std::vector<FactHandle> &layers() const { return copiedLayers; }
    uint64_t revision() const { return copiedRevision; }

  private:
    sat::SolveResult solve(const std::vector<sat::Lit> &assume,
                           WitnessWork &work);
    bool lexWalk(std::vector<sat::Lit> &assume,
                 const std::vector<char> &fixed, WitnessWork &work);

    const Encoder &enc;
    std::unique_ptr<sat::Solver> solver;
    const std::vector<FactHandle> copiedLayers;
    const uint64_t copiedRevision;
    Instance lastInstance;
};

/**
 * One-stop relational solver: vocabulary + facts + solve/enumerate.
 */
class RelSolver
{
  public:
    RelSolver(const Vocabulary &vocab, size_t universe_size);

    /**
     * Assert that @p f holds in every instance, permanently. Base facts
     * are lowered as root-level units, so the solver simplifies against
     * them; use this for the encoding every query shares.
     */
    void addBaseFact(const FormulaPtr &f);

    /**
     * Assert @p f as a retractable layer and return its handle. The fact
     * binds only in solve()/solveUnder() calls that activate the handle;
     * an always-false fact makes those calls Unsat without poisoning the
     * solver for other layers.
     */
    FactHandle addFact(const FormulaPtr &f);

    /**
     * Permanently retire a retractable fact layer: its clauses — and any
     * blocking clauses or learned clauses tied to it — are dropped.
     */
    void retract(FactHandle h);

    /**
     * Run the SAT backend's SatELite-style preprocessing pass (see
     * sat::Solver::simplify) over the permanent encoding built so far. Cell
     * variables and fact-layer selectors are frozen, so instances decode
     * unchanged and layers stay retractable; only internal Tseitin
     * variables are eliminated (with model reconstruction keeping
     * extract() total). Call it after the base facts every query shares
     * are in place — the more of the encoding is permanent, the more the
     * pass can remove. Returns false when the base encoding is unsat.
     */
    bool simplifyBase();

    /**
     * An initially empty retractable layer. Blocking clauses added under
     * it (blockModel / blockInstance) bind only in solves that activate
     * the handle and die together when it is retracted — the enumeration
     * loop's way of keeping its blocks out of witness-resolution solves.
     */
    FactHandle newLayer();

    /**
     * Install the spec's lex-leader predicates and forbidden-pattern
     * clauses as a retractable fact layer (see rel/symmetry.hh). The
     * layer prunes non-canonical members of each isomorphism class
     * during enumeration; retract it — or solve with pinAndMinimize,
     * which takes an explicit layer set — for queries that must reach
     * every member. Gate definitions are shared and permanent; only the
     * assertions live in the layer. @p stats, when given, accumulates
     * the emitted clause and predicate counts.
     */
    FactHandle addSymmetryBreaking(const SymmetrySpec &spec,
                                   SymmetryStats *stats = nullptr);

    /**
     * Solve with every live (non-retracted) retractable fact active.
     * Fills instance() on Sat.
     */
    sat::SolveResult solve();

    /**
     * Solve with exactly the given retractable layers active (base facts
     * always hold). Fills instance() on Sat.
     */
    sat::SolveResult solveUnder(const std::vector<FactHandle> &handles);

    /** The instance found by the last Sat solve. */
    const Instance &instance() const { return lastInstance; }

    /**
     * Pin @p pinned_var_ids to their values in @p pin and find the
     * lexicographically smallest completion under exactly the given
     * fact layers — not the full live set, so enumeration-only layers
     * (symmetry breaking, blocking) can be left out. Returns false when
     * no completion exists or the conflict budget ran out before the
     * walk finished; on success instance() holds the result, which is a
     * pure function of the pinned assignment and the active constraint
     * set.
     *
     * A thin wrapper over witnessFor(@p layers)->pinAndMinimize: the
     * solves run on the private witness solver, so they neither disturb
     * the enumeration solver's trail and learnt clauses nor enter its
     * DRAT proof. They get what is left of satSolver()'s budget, and
     * their search is charged to its stats on return.
     */
    bool pinAndMinimize(const Instance &pin,
                        const std::vector<int> &pinned_var_ids,
                        const std::vector<FactHandle> &layers);

    /**
     * The witness solver for @p layers. The one held is returned while
     * its layer set and this solver's revision(layers) are unchanged;
     * otherwise a fresh restrictedCopy replaces it. Retracting one of
     * its layers frees the held one. A caller that keeps the pointer
     * keeps its solver alive, and may use it on another thread.
     */
    std::shared_ptr<WitnessSolver>
    witnessFor(const std::vector<FactHandle> &layers);

    /** The current witness solver, or nullptr when none is held. */
    const WitnessSolver *witnessSolver() const { return witness.get(); }

    /**
     * Exclude the last instance's assignment to @p var_ids (all declared
     * relations when empty). When @p under is a fact handle the blocking
     * clause is tied to that layer and dies with it; kNoFact blocks
     * permanently.
     */
    void blockModel(const std::vector<int> &var_ids = {},
                    FactHandle under = kNoFact);

    /**
     * Like blockModel, but excluding an explicit instance's assignment —
     * used by orbit blocking to retire every symmetric image of a found
     * model, not just the member the solver produced.
     */
    void blockInstance(const Instance &inst,
                       const std::vector<int> &var_ids = {},
                       FactHandle under = kNoFact);

    /**
     * Attach a DRAT proof writer to the SAT backend (see
     * sat::Solver::setProof). Call right after construction, before any
     * facts are asserted; pass nullptr to detach. The writer must
     * outlive the solver (or be detached first).
     */
    void setProof(sat::DratWriter *writer) { solver.setProof(writer); }

    /**
     * Snapshot the current constraint set as a standalone CNF: every
     * live problem clause (group guards included) plus one unit per
     * live fact-layer selector, so the file poses exactly the query
     * solve() poses. Pair with sat::writeDimacs to cross-check an Unsat
     * shard with an external solver.
     */
    sat::Cnf exportCnf() const;

    Encoder &encoder() { return enc; }
    sat::Solver &satSolver() { return solver; }

  private:
    sat::Solver solver;
    GateBuilder builder;
    Encoder enc;
    Instance lastInstance;
    std::vector<FactHandle> liveFacts;
    std::shared_ptr<WitnessSolver> witness;
};

} // namespace lts::rel

#endif // LTS_REL_ENCODER_HH
