/**
 * @file
 * Kodkod-style symmetry breaking for the relational encoder.
 *
 * A bounded relational problem is symmetric under any permutation of the
 * universe that fixes every constant appearing in its formulas: permuting
 * the atoms of a satisfying instance yields another satisfying instance.
 * Enumeration loops therefore visit every member of each isomorphism
 * class unless the encoding prunes them. Kodkod (Torlak & Jackson,
 * TACAS'07) prunes them with *lex-leader predicates*: for each generator
 * permutation pi, assert that the instance — read as a bit vector over
 * the declared relation matrices — is lexicographically no greater than
 * its image under pi. Every isomorphism class keeps at least one member
 * (its lex-least), while most redundant members become UNSAT before they
 * are ever enumerated.
 *
 * Generators may be *conditional*: the lex-leader constraint is guarded
 * by a conjunction of cell literals and only binds on instances where
 * the guard holds. This is how the memory-model layer expresses
 * thread-block swaps, which are symmetries only when the swapped index
 * ranges actually form complete, equally sized threads. Kodkod finds its
 * generators by partitioning the universe into atoms no constant tells
 * apart; on a memory model that partition is trivial, because the
 * po.index-order well-formedness fact distinguishes every atom, so the
 * generators come from the model instead (mm::Model::symmetrySpec).
 *
 * A spec may also carry plain *forbidden patterns* — conjunctions of cell
 * literals no canonical instance needs — which lower to single clauses.
 *
 * RelSolver::addSymmetryBreaking installs a spec as a retractable fact
 * layer so enumeration can activate it while witness-resolution queries
 * (which pin a representative that need not be the solver's lex-leader)
 * exclude it.
 */

#ifndef LTS_REL_SYMMETRY_HH
#define LTS_REL_SYMMETRY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lts::rel
{

/**
 * One cell-valued guard literal: relation @p varId holds (or not, per
 * @p value) at (i, j) — for unary relations only @p i is used.
 */
struct CellCond
{
    int varId = -1;
    size_t i = 0;
    size_t j = 0;
    bool value = true;
};

/**
 * An atom permutation with an optional guard. @p perm maps each atom to
 * its image (perm.size() == universe size). The lex-leader constraint
 * for the permutation binds only on instances satisfying every
 * condition; an empty condition list means it always binds.
 */
struct ConditionalPerm
{
    std::vector<size_t> perm;
    std::vector<CellCond> conditions;
};

/** A full symmetry-breaking prescription for one encoding. */
struct SymmetrySpec
{
    /**
     * Relation ids forming the lex vector, in comparison order (cells
     * row-major within each relation). Relations known to be invariant
     * under every generator (e.g. po under guarded block swaps) can be
     * omitted to keep the chains short.
     */
    std::vector<int> lexVarIds;

    std::vector<ConditionalPerm> generators;

    /**
     * Conjunctions of cell conditions excluded outright (each lowers to
     * one clause). Sound when every isomorphism class has a member
     * matching none of the patterns — e.g. "a complete thread block
     * immediately followed by a strictly larger one", which block
     * sorting always avoids.
     */
    std::vector<std::vector<CellCond>> forbidden;

    bool
    empty() const
    {
        return generators.empty() && forbidden.empty();
    }
};

/** Counters reported by RelSolver::addSymmetryBreaking. */
struct SymmetryStats
{
    uint64_t clauses = 0;    ///< CNF clauses emitted (incl. Tseitin defs)
    uint64_t generators = 0; ///< lex-leader predicates asserted
    uint64_t forbidden = 0;  ///< forbidden-pattern clauses asserted
};

} // namespace lts::rel

#endif // LTS_REL_SYMMETRY_HH
