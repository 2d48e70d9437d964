/**
 * @file
 * Relational-layer tests for the SAT preprocessing pass: simplifyBase()
 * must leave the instance-enumeration semantics of a RelSolver
 * untouched — same instances, same order, same lex-minimal completions
 * — while actually eliminating Tseitin internals. The frozen-variable
 * protocol (cell variables, layer selectors) and the gate builder's
 * re-lowering of eliminated cached gates are what these tests pin down.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "rel/encoder.hh"
#include "rel/eval.hh"

namespace lts::rel
{
namespace
{

std::string
matrixKey(const BitMatrix &m)
{
    std::string key;
    for (size_t i = 0; i < m.size(); i++) {
        for (size_t j = 0; j < m.size(); j++)
            key += m.test(i, j) ? '1' : '0';
    }
    return key;
}

/**
 * Enumerate every instance of relation 0. Returned as a set: the pass
 * changes the clause database and therefore the search trajectory, so
 * the *order* of discovery may differ — the synthesizer's byte-identity
 * rests on its canonical merge, not on enumeration order. The *set*
 * must be exactly preserved.
 */
std::set<std::string>
enumerate(RelSolver &solver)
{
    std::set<std::string> keys;
    sat::SolveResult more = solver.solve();
    while (more == sat::SolveResult::Sat) {
        EXPECT_TRUE(keys.insert(matrixKey(solver.instance().matrix(0))).second)
            << "instance enumerated twice";
        solver.blockModel();
        more = solver.solve();
    }
    return keys;
}

TEST(RelSimplifyTest, BaseFactEncodingShrinksAndEnumerationIsUnchanged)
{
    // Acyclic subsets of a fixed 3-cycle, with and without the pass:
    // identical enumeration (content *and* order), fewer live clauses.
    BitMatrix cycle(3);
    cycle.set(0, 1);
    cycle.set(1, 2);
    cycle.set(2, 0);

    auto build = [&](RelSolver &solver, const ExprPtr &r) {
        solver.addBaseFact(mkSubset(r, mkConst(cycle)));
        solver.addBaseFact(mkAcyclic(r));
    };
    Vocabulary vocab;
    ExprPtr r = vocab.declare("r", 2);

    RelSolver plain(vocab, 3);
    build(plain, r);
    RelSolver simplified(vocab, 3);
    build(simplified, r);
    ASSERT_TRUE(simplified.simplifyBase());
    EXPECT_GT(simplified.satSolver().stats().eliminatedVars, 0u);
    EXPECT_LT(simplified.satSolver().numClauses(),
              plain.satSolver().numClauses());

    EXPECT_EQ(enumerate(simplified), enumerate(plain));
}

TEST(RelSimplifyTest, FactLayersAddedAfterSimplifyRelowerEliminatedGates)
{
    // The second fact reuses sub-expressions of the base fact, so its
    // lowering hits gate-builder cache entries whose SAT variables were
    // eliminated; the builder must re-lower them instead of emitting
    // clauses over dead variables.
    Vocabulary vocab;
    ExprPtr r = vocab.declare("r", 2);
    ExprPtr common = mkJoin(r, r); // shared cone between base and layer

    RelSolver solver(vocab, 3);
    solver.addBaseFact(mkSubset(common, r)); // transitivity
    ASSERT_TRUE(solver.simplifyBase());

    FactHandle layer = solver.addFact(mkSome(common));
    FactHandle empty = solver.addFact(mkNo(r));

    // With both layers: transitive, r;r nonempty, r empty — contradiction.
    EXPECT_EQ(solver.solveUnder({layer, empty}), sat::SolveResult::Unsat);
    // Dropping the empty layer admits e.g. a total reflexive relation.
    ASSERT_EQ(solver.solveUnder({layer}), sat::SolveResult::Sat);
    EXPECT_TRUE(
        evalFormula(mkAnd(mkSubset(common, r), mkSome(common)),
                    solver.instance()));
    solver.retract(layer);
    EXPECT_EQ(solver.solveUnder({empty}), sat::SolveResult::Sat);
}

TEST(RelSimplifyTest, PinAndMinimizeAgreesAfterSimplify)
{
    // pinAndMinimize must produce the same lex-minimal completion with
    // and without preprocessing — the witness-resolution determinism the
    // synthesizer's byte-identity contract needs.
    Vocabulary vocab;
    ExprPtr r = vocab.declare("r", 2);
    ExprPtr s = vocab.declare("s", 2);

    auto build = [&](RelSolver &solver) {
        solver.addBaseFact(mkSubset(s, r));
        solver.addBaseFact(mkIrreflexive(r));
    };
    RelSolver plain(vocab, 3);
    build(plain);
    RelSolver simplified(vocab, 3);
    build(simplified);
    ASSERT_TRUE(simplified.simplifyBase());

    // Pin r to a fixed relation and ask for the minimal s-completion.
    Instance pin(vocab, 3);
    pin.matrix(0).set(0, 1);
    pin.matrix(0).set(1, 2);

    ASSERT_TRUE(plain.pinAndMinimize(pin, {0}, {}));
    ASSERT_TRUE(simplified.pinAndMinimize(pin, {0}, {}));
    EXPECT_EQ(plain.instance().matrix(0), simplified.instance().matrix(0));
    EXPECT_EQ(plain.instance().matrix(1), simplified.instance().matrix(1));
    // Minimal completion of an unconstrained-below s is empty.
    EXPECT_TRUE(simplified.instance().matrix(1).none());
}

TEST(RelSimplifyTest, SymmetryBreakingComposesWithSimplify)
{
    // The SBP layer is installed after preprocessing (its gates lower
    // fresh cones over frozen cell variables); canonical enumeration
    // must agree with the unsimplified solver's.
    Vocabulary vocab;
    ExprPtr r = vocab.declare("r", 2);
    // All three atoms interchangeable: adjacent-transposition generators.
    SymmetrySpec spec;
    spec.lexVarIds = {0};
    spec.generators.push_back({{1, 0, 2}, {}});
    spec.generators.push_back({{0, 2, 1}, {}});

    auto run = [&](bool simplify) {
        RelSolver solver(vocab, 3);
        solver.addBaseFact(mkIrreflexive(r));
        if (simplify) {
            EXPECT_TRUE(solver.simplifyBase());
        }
        solver.addSymmetryBreaking(spec);
        return enumerate(solver);
    };
    EXPECT_EQ(run(true), run(false));
}

} // namespace
} // namespace lts::rel
