/**
 * @file
 * The litmus-test minimality criterion (Definition 1 / Figure 5c).
 *
 * A test (identified with one of its executions, per the paper's
 * pragmatic outcome-equals-execution reduction) is minimal with respect
 * to an axiom when:
 *
 *   1. the execution is well-formed,
 *   2. the targeted axiom forbids it (not axiom[no_r]), and
 *   3. for every relaxation r and event e to which r applies, the entire
 *      model — with the relations perturbed by r at e — admits it
 *      (model[r->e]).
 *
 * The same formula is used symbolically (SAT synthesis) and concretely
 * (explicit engine, suite audits), so both paths share one semantics.
 */

#ifndef LTS_SYNTH_MINIMALITY_HH
#define LTS_SYNTH_MINIMALITY_HH

#include <string>

#include "mm/convert.hh"
#include "mm/model.hh"
#include "rel/eval.hh"

namespace lts::synth
{

/**
 * Build the minimality-criterion formula for @p axiom_name of @p model
 * over a universe of @p n events. Includes well-formedness.
 * Equivalent to minimalityBase ∧ axiomViolation.
 */
rel::FormulaPtr minimalityFormula(const mm::Model &model,
                                  const std::string &axiom_name, size_t n);

/**
 * The axiom-independent part of the criterion: well-formed ∧ every
 * applicable relaxation admits. This is the bulk of the encoding and is
 * shared by all axioms at a given size, so each of the synthesizer's
 * size jobs asserts it once as a base fact and layers
 * per-axiom violations (axiomViolation) over it as retractable facts.
 */
rel::FormulaPtr minimalityBase(const mm::Model &model, size_t n);

/**
 * The axiom-dependent part alone: the targeted axiom forbids the
 * execution (¬A over the base relations). Layered over minimalityBase
 * this reconstitutes minimalityFormula.
 */
rel::FormulaPtr axiomViolation(const mm::Model &model,
                               const std::string &axiom_name, size_t n);

/**
 * Disjunctive violation layer for the direct union suite: at least one
 * axiom forbids the execution. Layered over minimalityBase this is the
 * union criterion well-formed ∧ (∨_A ¬A(base)) ∧ conjunct. The paper's
 * footnote 4 notes that generating the union directly was often slower
 * than merging the per-axiom suites; bench/ablation_synth reproduces
 * that comparison.
 */
rel::FormulaPtr anyAxiomViolation(const mm::Model &model, size_t n);

/**
 * The relaxation-side conjunct alone: every applicable relaxation makes
 * the whole (relaxed-variant) model pass. Exposed for audits that want
 * to distinguish "not forbidden" from "not relaxation-tight".
 */
rel::FormulaPtr relaxationConjunct(const mm::Model &model, size_t n);

/**
 * Whether a minimality audit actually ran to completion.
 *
 * Callers must keep the two failure modes distinct: an Audited test
 * with an empty axiom list is over-synchronized, an Unsupported test is
 * simply unchecked. `ltsgen audit --strict` maps them to exit
 * codes 2 and 3 respectively, with 3 taking precedence so "could not
 * check" never masquerades as a pass or fail in CI.
 */
enum class AuditStatus
{
    Audited,     ///< the returned axiom list is authoritative
    Unsupported, ///< test outside the audited space (>2 SC fences);
                 ///< the empty axiom list is NOT a minimality verdict
};

/**
 * Audit a litmus test with its forbidden outcome against the criterion
 * for *any* axiom of the model. For models with an explicit sc order the
 * check is existential over the (lone-edge) sc assignments; tests with
 * more than two SC fences are outside that workaround's reach
 * (Section 6.3) and report AuditStatus::Unsupported through @p status
 * instead of silently returning an empty list.
 * Returns the names of axioms for which the test is minimal.
 */
std::vector<std::string> minimalAxioms(const mm::Model &model,
                                       const litmus::LitmusTest &test,
                                       AuditStatus *status = nullptr);

} // namespace lts::synth

#endif // LTS_SYNTH_MINIMALITY_HH
