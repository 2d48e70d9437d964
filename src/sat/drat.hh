/**
 * @file
 * DRAT-style proof logging and independent checking.
 *
 * Every Unsat answer the solver gives can be emitted as a proof trace
 * and re-verified by code that shares nothing with the solver: the
 * checker here never looks at watch lists, activities, or any other
 * solver state — it replays the trace with its own unit propagation.
 * This gives Unsat the trust story Solver::checkModel gives Sat.
 *
 * The trace format is self-contained DRAT with four record kinds:
 *
 *   i <lits> 0   input clause — part of the problem, taken on faith
 *                (cross-check against --dump-dimacs output if needed)
 *   a <lits> 0   derived clause — must pass RUP, or RAT on its first
 *                literal, against the clauses live at this point
 *   d <lits> 0   deletion — the clause leaves the database
 *   u <lits> 0   conclusion — a verification target: the negated failed
 *                assumptions of an Unsat answer (no literals for
 *                an assumption-free refutation). Must be RUP.
 *
 * Unlike bare DRAT, inputs ride inside the trace ('i' records), so a
 * proof file checks on its own, and one trace may carry several 'u'
 * conclusions (the synthesizer concludes once per axiom it sweeps over
 * a size's shared solver).
 *
 * On disk a trace is the "LDRATB1\0" magic followed by one record per
 * step: the tag byte, each literal as a varint code (DIMACS number
 * shifted left, sign in the low bit, so no code is zero), and a zero
 * byte. There is no other encoding; a file without the magic is
 * rejected.
 *
 * Checking is backward from the conclusions: the final database is
 * reconstructed, steps are undone last-to-first, and only steps marked
 * as antecedents of a conclusion are verified (verify_all checks every
 * derivation). Antecedent marking doubles as unsat-core extraction;
 * the result reports how many steps and inputs the core touches.
 */

#ifndef LTS_SAT_DRAT_HH
#define LTS_SAT_DRAT_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "sat/types.hh"

namespace lts::sat
{

/**
 * Streaming proof writer. One writer per solver; the solver calls the
 * add/delete hooks as its clause database changes and conclude() when
 * it answers Unsat. Writes are buffered; the file is flushed on
 * destruction (or flush()). Not thread-safe — parallel shards each own
 * a private solver and a private writer.
 */
class DratWriter
{
  public:
    explicit DratWriter(const std::string &path);
    ~DratWriter();
    DratWriter(const DratWriter &) = delete;
    DratWriter &operator=(const DratWriter &) = delete;

    /** Did the file open and all writes so far succeed? */
    bool good() const { return file != nullptr && !failed; }

    const std::string &path() const { return filePath; }

    /** Log an input clause ('i'): part of the problem, not checked. */
    void addInput(const std::vector<Lit> &lits) { put('i', lits); }

    /** Log a derived clause ('a'): must be RUP/RAT at this point. */
    void addDerived(const std::vector<Lit> &lits) { put('a', lits); }

    /** Log a conclusion ('u'): a clause the checker must verify. */
    void addConclusion(const std::vector<Lit> &lits) { put('u', lits); }

    /** Log a deletion ('d') of a clause previously added. */
    void deleteClause(std::span<const Lit> lits) { put('d', lits); }

    void flush();

  private:
    void put(char tag, std::span<const Lit> lits);

    std::string filePath;
    std::FILE *file = nullptr;
    bool failed = false;
    std::vector<char> buf;
};

/** One parsed proof record. */
struct DratStep
{
    enum class Kind : uint8_t
    {
        Input,      ///< 'i'
        Derived,    ///< 'a'
        Conclusion, ///< 'u'
        Delete,     ///< 'd'
    };

    Kind kind;
    std::vector<Lit> lits; ///< original order (first literal = RAT pivot)
};

/** Outcome of checking one proof trace. */
struct DratCheckResult
{
    bool ok = false;
    std::string error;    ///< diagnostic when !ok
    size_t errorStep = 0; ///< 0-based step index of the failure (when
                          ///< the error is tied to a step)

    size_t steps = 0;       ///< total records
    size_t inputs = 0;      ///< 'i' records
    size_t derived = 0;     ///< 'a' records
    size_t conclusions = 0; ///< 'u' records
    size_t deletions = 0;   ///< 'd' records

    size_t verified = 0;   ///< derivations actually RUP/RAT-checked
    size_t ratSteps = 0;   ///< verified steps that needed the RAT fallback
    size_t coreSteps = 0;  ///< add-steps in the conclusions' antecedent
                           ///< cone (the extracted core)
    size_t coreInputs = 0; ///< input clauses in that core
};

/**
 * Parse a proof file into records. Returns false with a diagnostic in
 * @p error on malformed input (unrecognized header, bad literal code,
 * truncated record, ...).
 */
bool parseDratFile(const std::string &path, std::vector<DratStep> &steps,
                   std::string &error);

/**
 * Verify a parsed trace backward from its conclusions (see file
 * comment). With @p verify_all every 'a' step is checked, not only the
 * conclusions' antecedent cone. A trace with no 'u' record fails (there
 * is nothing it claims); every 'u' must be RUP — the RAT fallback is
 * reserved for 'a' steps, since RAT preserves satisfiability but not
 * entailment, and a conclusion asserts entailment.
 */
DratCheckResult checkDrat(const std::vector<DratStep> &steps,
                          bool verify_all = false);

/** parseDratFile + checkDrat in one call. */
DratCheckResult checkDratFile(const std::string &path,
                              bool verify_all = false);

} // namespace lts::sat

#endif // LTS_SAT_DRAT_HH
