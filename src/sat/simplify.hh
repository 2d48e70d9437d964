/**
 * @file
 * Configuration for the solver's SatELite-style preprocessing pass
 * (Solver::simplify, implemented in simplify.cc).
 *
 * The pass runs three classic CNF simplifications over an occurrence-list
 * index of the live problem clauses:
 *
 *  - backward subsumption: a clause C deletes every clause D with C ⊆ D;
 *  - self-subsuming resolution: when C subsumes D except for one literal
 *    that appears flipped, that literal is removed from D (strengthening);
 *  - bounded variable elimination (BVE): a variable v whose full
 *    resolvent set is no larger than the clauses it replaces is
 *    eliminated by distribution (Davis-Putnam), and its clauses move to
 *    an extension stack used to reconstruct v's value in later models.
 *
 * The pass is guarded by the solver's *frozen-variable protocol*:
 * variables the outside world refers to — relation-tuple cell variables,
 * activation-group selectors, anything the caller may later assume, pin,
 * or read back — must be frozen (Solver::setFrozen) and are never
 * eliminated. Pure Tseitin internals stay eliminable; the first read of
 * an eliminated variable after a Sat answer replays the extension stack,
 * so modelValue() is total and checkModel() also verifies the eliminated
 * clauses. Everything is processed in deterministic (index) order, so
 * identical solvers simplify identically — the property the suite
 * byte-identity contract relies on.
 */

#ifndef LTS_SAT_SIMPLIFY_HH
#define LTS_SAT_SIMPLIFY_HH

#include <cstddef>

namespace lts::sat
{

/** Knobs for Solver::simplify; defaults follow MiniSat/SatELite. */
struct SimplifyConfig
{
    /** Enable backward subsumption + self-subsuming resolution. */
    bool subsumption = true;

    /** Enable bounded variable elimination. */
    bool varElim = true;

    /**
     * Skip eliminating a variable with more than this many occurrences —
     * the resolvent check alone would be quadratic in the list lengths.
     */
    size_t maxOccurrences = 30;

    /** Never create a resolvent longer than this many literals. */
    size_t maxResolventLits = 20;

    /**
     * Allowed clause-count growth per elimination: a variable is
     * eliminated when #resolvents <= #original clauses + grow.
     */
    int grow = 0;
};

} // namespace lts::sat

#endif // LTS_SAT_SIMPLIFY_HH
