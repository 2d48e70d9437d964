/**
 * @file
 * Bounding-type inference over relational expressions, in the style of
 * Alloy's relational type system.
 *
 * The embedded C++ DSL has no declared relation types: what Alloy infers
 * from sig declarations was lost in translation. This pass reconstructs
 * it. The abstract domain is the model's event-type partition — the
 * classes R, W and (when the model has fences) F, which the generic
 * well-formedness facts make pairwise disjoint and jointly exhaustive. An
 * arity-1 expression is bounded by the set of classes its atoms can
 * inhabit; an arity-2 expression by the set of class *pairs* its tuples
 * can connect. Bounds for declared relation variables are inferred by a
 * decreasing fixpoint over the model's well-formedness facts (subset and
 * equality facts refine the bound of their left-hand relation), then
 * propagated through every operator: join composes pairs, product crosses
 * sets, closure saturates, transpose flips, restrictions filter.
 *
 * A subexpression whose bound is empty is *provably empty in every
 * instance* — an always-empty join or intersection is almost certainly a
 * transliteration bug, and a `some` over it can never hold. checkTypes
 * reports those (plus structural arity violations in hand-built trees)
 * against each well-formedness fact and axiom of a model.
 */

#ifndef LTS_ANALYSIS_TYPES_HH
#define LTS_ANALYSIS_TYPES_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/report.hh"
#include "mm/model.hh"

namespace lts::analysis
{

/**
 * The upper bound of one expression over the type partition: a bitmask
 * over partition classes (arity 1, bit t) or class pairs (arity 2, bit
 * t1 * numAtoms + t2). An all-zero mask proves the expression empty.
 */
struct TypeBound
{
    int arity = 1;
    uint32_t mask = 0;

    bool isEmpty() const { return mask == 0; }
};

/**
 * Per-model bounding-type inference. Constructing the object runs the
 * fixpoint over the model's well-formedness facts; eval() then computes
 * the bound of any expression over the model's vocabulary.
 */
class TypeInference
{
  public:
    /** @param n universe size used to instantiate the facts. */
    explicit TypeInference(const mm::Model &model, size_t n = 4);

    /** Inferred bound of declared relation @p var_id. */
    TypeBound varBound(int var_id) const;

    /** Upper bound of @p e (memoized per expression node). */
    TypeBound eval(const rel::ExprPtr &e) const;

    /** Render a bound for diagnostics, e.g. "{(W,R)}" or "{R, F}". */
    std::string describe(const TypeBound &b) const;

    /** The full mask of the given arity (the top element). */
    TypeBound top(int arity) const;

  private:
    void refineFromFact(const rel::FormulaPtr &f, bool &changed);

    const mm::Model &model;
    std::vector<std::string> atoms;
    std::vector<TypeBound> bounds; ///< per declared relation variable
    /**
     * Keyed by shared_ptr, not raw pointer: the key pins its node alive,
     * so a freed node's address can never be reused by a fresh expression
     * and alias a stale entry.
     */
    mutable std::unordered_map<rel::ExprPtr, TypeBound> cache;
};

/**
 * The bounding-type pass: validate operator/variable arities structurally
 * and report provably-empty subexpressions across every well-formedness
 * fact and axiom of @p model, at instantiation size @p n.
 */
void checkTypes(const mm::Model &model, size_t n, Report &report);

} // namespace lts::analysis

#endif // LTS_ANALYSIS_TYPES_HH
