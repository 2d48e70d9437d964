/**
 * @file
 * Tests for the SatELite-style preprocessing pass (Solver::simplify):
 * the individual simplifications (subsumption, self-subsuming
 * resolution, bounded variable elimination), the frozen-variable
 * protocol, model reconstruction for eliminated variables, interaction
 * with activation groups, and — the property everything downstream
 * depends on — that simplification never changes the set of models over
 * the frozen variables. The equivalence tests enumerate models by
 * blocking, exactly like the synthesizer's inner loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "sat/solver.hh"

namespace lts::sat
{
namespace
{

/** Enumerate all models projected onto @p vars, via blocking clauses. */
std::set<std::vector<bool>>
enumerateModels(Solver &s, const std::vector<Var> &vars)
{
    std::set<std::vector<bool>> models;
    while (s.solve() == SolveResult::Sat) {
        EXPECT_TRUE(s.checkModel());
        std::vector<bool> m;
        Clause blocking;
        for (Var v : vars) {
            m.push_back(s.modelValue(v));
            blocking.push_back(Lit(v, s.modelValue(v)));
        }
        // A model that comes back was not blocked: stop, or a solver
        // that ignores its blocking clauses would loop here forever.
        if (!models.insert(m).second) {
            ADD_FAILURE() << "duplicate model";
            break;
        }
        if (!s.addClause(blocking))
            break;
    }
    return models;
}

TEST(SimplifyTest, SubsumptionDeletesSupersetClause)
{
    Solver s;
    Var a = s.newVar(), b = s.newVar(), c = s.newVar();
    for (Var v : {a, b, c})
        s.setFrozen(v);
    s.addClause({Lit::pos(a), Lit::pos(b)});
    s.addClause({Lit::pos(a), Lit::pos(b), Lit::pos(c)});
    ASSERT_TRUE(s.simplify());
    EXPECT_GE(s.stats().subsumedClauses, 1u);
    EXPECT_EQ(s.numClauses(), 1);
}

TEST(SimplifyTest, SelfSubsumptionStrengthensClause)
{
    // {a, b} with {a, ~b, c}: resolving on b gives {a, c} which
    // subsumes {a, ~b, c} — so the latter is strengthened to {a, c}.
    Solver s;
    Var a = s.newVar(), b = s.newVar(), c = s.newVar();
    for (Var v : {a, b, c})
        s.setFrozen(v);
    s.addClause({Lit::pos(a), Lit::pos(b)});
    s.addClause({Lit::pos(a), Lit::neg(b), Lit::pos(c)});
    ASSERT_TRUE(s.simplify());
    EXPECT_GE(s.stats().strengthenedLits, 1u);
    // The strengthened formula still has exactly the models of the
    // original: enumerate and compare against a pristine solver.
    Solver plain;
    for (int i = 0; i < 3; i++)
        plain.newVar();
    plain.addClause({Lit::pos(a), Lit::pos(b)});
    plain.addClause({Lit::pos(a), Lit::neg(b), Lit::pos(c)});
    EXPECT_EQ(enumerateModels(s, {a, b, c}),
              enumerateModels(plain, {a, b, c}));
}

TEST(SimplifyTest, EliminatesTseitinVariable)
{
    // x <-> a & b with a, b frozen: x is pure plumbing and must go.
    Solver s;
    Var a = s.newVar(), b = s.newVar(), x = s.newVar();
    s.setFrozen(a);
    s.setFrozen(b);
    s.addClause({Lit::neg(x), Lit::pos(a)});
    s.addClause({Lit::neg(x), Lit::pos(b)});
    s.addClause({Lit::pos(x), Lit::neg(a), Lit::neg(b)});
    ASSERT_TRUE(s.simplify());
    EXPECT_TRUE(s.isEliminated(x));
    EXPECT_EQ(s.stats().eliminatedVars, 1u);

    // Reconstruction keeps modelValue() total and functionally correct:
    // in every model x must equal a & b, because checkModel() verifies
    // the archived defining clauses too.
    int models = 0;
    while (s.solve() == SolveResult::Sat) {
        ASSERT_TRUE(s.checkModel());
        EXPECT_EQ(s.modelValue(x), s.modelValue(a) && s.modelValue(b));
        Clause blocking = {Lit(a, s.modelValue(a)),
                           Lit(b, s.modelValue(b))};
        models++;
        if (!s.addClause(blocking))
            break;
    }
    EXPECT_EQ(models, 4);
}

TEST(SimplifyTest, FrozenVariablesAreNeverEliminated)
{
    Solver s;
    Var a = s.newVar(), b = s.newVar(), x = s.newVar();
    s.setFrozen(a);
    s.setFrozen(b);
    s.setFrozen(x); // would be eliminable, but the caller wants it
    s.addClause({Lit::neg(x), Lit::pos(a)});
    s.addClause({Lit::neg(x), Lit::pos(b)});
    s.addClause({Lit::pos(x), Lit::neg(a), Lit::neg(b)});
    ASSERT_TRUE(s.simplify());
    EXPECT_FALSE(s.isEliminated(x));
    EXPECT_EQ(s.stats().eliminatedVars, 0u);
}

TEST(SimplifyTest, DetectsRootUnsat)
{
    // BVE on the only unfrozen variable produces the empty clause.
    Solver s;
    Var a = s.newVar(), b = s.newVar();
    s.setFrozen(b);
    s.addClause({Lit::pos(a), Lit::pos(b)});
    s.addClause({Lit::pos(a), Lit::neg(b)});
    s.addClause({Lit::neg(a), Lit::pos(b)});
    s.addClause({Lit::neg(a), Lit::neg(b)});
    EXPECT_FALSE(s.simplify());
    EXPECT_TRUE(s.inConflict());
}

TEST(SimplifyTest, GroupedClausesAndTheirVariablesAreUntouched)
{
    Solver s;
    Var a = s.newVar(), b = s.newVar(), x = s.newVar();
    s.setFrozen(a);
    s.setFrozen(b);
    // x would be eliminable from the permanent clauses alone, but a
    // grouped clause mentions it, so elimination must skip it.
    s.addClause({Lit::neg(x), Lit::pos(a)});
    s.addClause({Lit::pos(x), Lit::neg(a)});
    Group g = s.newGroup();
    s.addClause(g, {Lit::neg(x), Lit::pos(b)});
    ASSERT_TRUE(s.simplify());
    EXPECT_FALSE(s.isEliminated(x));

    // The retractable layer still binds only under its activation
    // literal: with the layer, x forces b; without it, b is free.
    ASSERT_EQ(s.solve({s.groupLit(g), Lit::pos(x), Lit::neg(b)}),
              SolveResult::Unsat);
    ASSERT_EQ(s.solve({Lit::pos(x), Lit::neg(b)}), SolveResult::Sat);
    s.release(g);
    ASSERT_EQ(s.solve({Lit::pos(x), Lit::neg(b)}), SolveResult::Sat);
}

TEST(SimplifyTest, AssumptionsOnFrozenVarsAfterElimination)
{
    // A chain of Tseitin ands: y = a&b, z = y&c. Only the inputs are
    // frozen; both internals disappear, yet assumption-driven queries
    // over the inputs behave exactly as before.
    Solver s;
    Var a = s.newVar(), b = s.newVar(), c = s.newVar();
    Var y = s.newVar(), z = s.newVar();
    for (Var v : {a, b, c})
        s.setFrozen(v);
    s.addClause({Lit::neg(y), Lit::pos(a)});
    s.addClause({Lit::neg(y), Lit::pos(b)});
    s.addClause({Lit::pos(y), Lit::neg(a), Lit::neg(b)});
    s.addClause({Lit::neg(z), Lit::pos(y)});
    s.addClause({Lit::neg(z), Lit::pos(c)});
    s.addClause({Lit::pos(z), Lit::neg(y), Lit::neg(c)});
    ASSERT_TRUE(s.simplify());
    EXPECT_TRUE(s.isEliminated(y));
    EXPECT_TRUE(s.isEliminated(z));

    // Reconstruction must assign both internals their functional value
    // under every input assumption cube.
    for (int cube = 0; cube < 8; cube++) {
        std::vector<Lit> assumptions = {Lit(a, !(cube & 1)),
                                        Lit(b, !(cube & 2)),
                                        Lit(c, !(cube & 4))};
        ASSERT_EQ(s.solve(assumptions), SolveResult::Sat);
        EXPECT_TRUE(s.checkModel());
        EXPECT_EQ(s.modelValue(y), s.modelValue(a) && s.modelValue(b));
        EXPECT_EQ(s.modelValue(z), s.modelValue(y) && s.modelValue(c));
    }
}

/**
 * Expected SolverStats::modelReplays. Builds with assertions model-check
 * every Sat answer inside solve(), which settles each replay eagerly.
 */
uint64_t
replaysExpected(uint64_t lazy, uint64_t sat_answers)
{
#ifdef NDEBUG
    (void)sat_answers;
    return lazy;
#else
    (void)lazy;
    return sat_answers;
#endif
}

/** Whether the solver's current model satisfies every clause of @p cnf. */
bool
modelSatisfies(const Solver &s, const std::vector<Clause> &cnf)
{
    for (const Clause &c : cnf) {
        if (std::none_of(c.begin(), c.end(),
                         [&](Lit l) { return s.modelValue(l); }))
            return false;
    }
    return true;
}

TEST(SimplifyTest, ModelReplayWaitsForTheFirstEliminatedRead)
{
    // y = a & b and z = y | c over frozen inputs; y and z are eliminated.
    Solver s;
    Var a = s.newVar(), b = s.newVar(), c = s.newVar();
    Var y = s.newVar(), z = s.newVar();
    for (Var v : {a, b, c})
        s.setFrozen(v);
    std::vector<Clause> original = {
        {Lit::neg(y), Lit::pos(a)},
        {Lit::neg(y), Lit::pos(b)},
        {Lit::pos(y), Lit::neg(a), Lit::neg(b)},
        {Lit::neg(z), Lit::pos(y), Lit::pos(c)},
        {Lit::pos(z), Lit::neg(y)},
        {Lit::pos(z), Lit::neg(c)},
    };
    for (const Clause &cl : original)
        s.addClause(cl);
    ASSERT_TRUE(s.simplify());
    ASSERT_TRUE(s.isEliminated(y));
    ASSERT_TRUE(s.isEliminated(z));

    // Reading only frozen variables never replays the stack.
    ASSERT_EQ(s.solve({Lit::pos(a), Lit::pos(b)}), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(a));
    EXPECT_TRUE(s.modelValue(b));
    EXPECT_EQ(s.stats().modelReplays, replaysExpected(0, 1));

    // The second answer's first eliminated read replays once, against
    // the second model, not the first.
    ASSERT_EQ(s.solve({Lit::neg(a), Lit::neg(c)}), SolveResult::Sat);
    EXPECT_FALSE(s.modelValue(y));
    EXPECT_FALSE(s.modelValue(z));
    EXPECT_EQ(s.stats().modelReplays, replaysExpected(1, 2));
    EXPECT_TRUE(modelSatisfies(s, original));
    EXPECT_TRUE(s.checkModel());
    EXPECT_EQ(s.stats().modelReplays, replaysExpected(1, 2));
}

TEST(SimplifyTest, SimplifyKeepsTheModelFoundBeforeIt)
{
    // A first pass eliminates y = a & b, so the next Sat answer leaves a
    // replay pending. A second pass then eliminates w (a -> w -> c),
    // which that answer set true although false would do too. The
    // replay must be settled before the pass: w keeps its search value
    // instead of the one a later replay would reconstruct.
    Solver s;
    Var a = s.newVar(), b = s.newVar(), c = s.newVar(), y = s.newVar();
    for (Var v : {a, b, c})
        s.setFrozen(v);
    std::vector<Clause> original = {
        {Lit::neg(y), Lit::pos(a)},
        {Lit::neg(y), Lit::pos(b)},
        {Lit::pos(y), Lit::neg(a), Lit::neg(b)},
    };
    for (const Clause &cl : original)
        s.addClause(cl);
    ASSERT_TRUE(s.simplify());
    ASSERT_TRUE(s.isEliminated(y));

    Var w = s.newVar();
    std::vector<Clause> later = {
        {Lit::pos(w), Lit::neg(a)},
        {Lit::neg(w), Lit::pos(c)},
    };
    for (const Clause &cl : later)
        s.addClause(cl);
    original.insert(original.end(), later.begin(), later.end());

    ASSERT_EQ(s.solve({Lit::neg(a), Lit::pos(b), Lit::pos(c), Lit::pos(w)}),
              SolveResult::Sat);
    ASSERT_TRUE(s.simplify());
    ASSERT_TRUE(s.isEliminated(w));
    EXPECT_TRUE(s.modelValue(w));
    EXPECT_FALSE(s.modelValue(y));
    EXPECT_TRUE(modelSatisfies(s, original));
    EXPECT_TRUE(s.checkModel());
    EXPECT_EQ(s.stats().modelReplays, replaysExpected(1, 1));
}

TEST(SimplifyTest, RandomFormulasKeepTheirProjectedModelSets)
{
    // The contract the synthesizer relies on: over the frozen
    // variables, simplification changes nothing. Random 3-CNFs, a
    // random half of the variables frozen; compare full enumeration
    // against an untouched solver.
    std::mt19937 rng(7);
    for (int round = 0; round < 40; round++) {
        const int num_vars = 8;
        const int num_clauses = 18;
        std::vector<Clause> clauses;
        for (int i = 0; i < num_clauses; i++) {
            Clause c;
            for (int l = 0; l < 3; l++)
                c.push_back(Lit(static_cast<Var>(rng() % num_vars),
                                rng() & 1));
            clauses.push_back(c);
        }
        std::vector<Var> frozen;
        Solver simplified, plain;
        for (int v = 0; v < num_vars; v++) {
            simplified.newVar();
            plain.newVar();
            if (rng() & 1) {
                simplified.setFrozen(v);
                frozen.push_back(v);
            }
        }
        bool ok_simplified = true, ok_plain = true;
        for (const Clause &c : clauses) {
            ok_simplified = simplified.addClause(c) && ok_simplified;
            ok_plain = plain.addClause(c) && ok_plain;
        }
        EXPECT_EQ(ok_simplified, ok_plain);
        if (!ok_plain)
            continue;
        if (!simplified.simplify()) {
            // Simplification proved UNSAT; the plain solver must agree.
            EXPECT_EQ(plain.solve(), SolveResult::Unsat) << "round "
                                                         << round;
            continue;
        }
        EXPECT_EQ(enumerateModels(simplified, frozen),
                  enumerateModels(plain, frozen))
            << "round " << round;
    }
}

TEST(SimplifyTest, IsDeterministicAcrossIdenticalSolvers)
{
    // Clause sharing and suite byte-identity both require identical
    // solvers to simplify identically; compare the full live clause
    // lists of two independently simplified copies.
    auto build = [](Solver &s) {
        std::mt19937 rng(11);
        for (int v = 0; v < 12; v++) {
            s.newVar();
            if (v < 6)
                s.setFrozen(v);
        }
        for (int i = 0; i < 30; i++) {
            Clause c;
            for (int l = 0; l < 3; l++)
                c.push_back(Lit(static_cast<Var>(rng() % 12), rng() & 1));
            s.addClause(c);
        }
        ASSERT_TRUE(s.simplify());
    };
    Solver s1, s2;
    build(s1);
    build(s2);
    auto c1 = s1.liveClauses();
    auto c2 = s2.liveClauses();
    ASSERT_EQ(c1.size(), c2.size());
    for (size_t i = 0; i < c1.size(); i++)
        EXPECT_EQ(c1[i], c2[i]) << "clause " << i;
    for (int v = 0; v < 12; v++)
        EXPECT_EQ(s1.isEliminated(v), s2.isEliminated(v)) << "var " << v;
}

} // namespace
} // namespace lts::sat
