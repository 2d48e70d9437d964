/**
 * @file
 * Unit and property tests for the CDCL SAT solver.
 *
 * Besides hand-built formulas, a reference brute-force evaluator checks
 * the solver against exhaustive enumeration on randomly generated small
 * CNFs: SAT/UNSAT answers must agree, and every returned model must
 * actually satisfy the formula.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "sat/solver.hh"

namespace lts::sat
{

/** Read-only view of a solver's trail, for the clause-placement tests. */
struct TrailInspector
{
    static int decisionLevel(const Solver &s) { return s.decisionLevel(); }

    /** Level of @p l if it is true on the trail, -1 otherwise. */
    static int
    trueAt(const Solver &s, Lit l)
    {
        return s.value(l) == LBool::True ? s.levels[l.var()] : -1;
    }

    static bool
    unassigned(const Solver &s, Var v)
    {
        return s.value(v) == LBool::Undef;
    }

    /** The literals of @p v's reason clause; empty for a decision. */
    static Clause
    reason(const Solver &s, Var v)
    {
        if (s.reasons[v] == Solver::kNoReason)
            return {};
        auto lits = s.clauses[s.reasons[v]].lits();
        return Clause(lits.begin(), lits.end());
    }
};

namespace
{

/** Evaluate @p cnf under assignment bits of @p assignment. */
bool
evaluate(const std::vector<Clause> &cnf, uint32_t assignment)
{
    for (const auto &clause : cnf) {
        bool sat = false;
        for (Lit l : clause) {
            bool v = (assignment >> l.var()) & 1;
            if (l.sign() ? !v : v) {
                sat = true;
                break;
            }
        }
        if (!sat)
            return false;
    }
    return true;
}

/** Brute-force satisfiability over @p num_vars variables. */
bool
bruteForceSat(const std::vector<Clause> &cnf, int num_vars)
{
    for (uint32_t a = 0; a < (uint32_t(1) << num_vars); a++) {
        if (evaluate(cnf, a))
            return true;
    }
    return false;
}

TEST(SolverTest, EmptyFormulaIsSat)
{
    Solver s;
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SolverTest, SingleUnit)
{
    Solver s;
    Var a = s.newVar();
    ASSERT_TRUE(s.addClause({Lit::pos(a)}));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(a));
}

TEST(SolverTest, ContradictoryUnitsAreUnsat)
{
    Solver s;
    Var a = s.newVar();
    EXPECT_TRUE(s.addClause({Lit::pos(a)}));
    EXPECT_FALSE(s.addClause({Lit::neg(a)}));
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
    EXPECT_TRUE(s.inConflict());
}

TEST(SolverTest, TautologicalClauseIgnored)
{
    Solver s;
    Var a = s.newVar();
    EXPECT_TRUE(s.addClause({Lit::pos(a), Lit::neg(a)}));
    EXPECT_EQ(s.numClauses(), 0);
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SolverTest, DuplicateLiteralsDeduped)
{
    Solver s;
    Var a = s.newVar();
    Var b = s.newVar();
    EXPECT_TRUE(s.addClause({Lit::pos(a), Lit::pos(a), Lit::pos(b)}));
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SolverTest, ImplicationChainPropagates)
{
    Solver s;
    std::vector<Var> v;
    for (int i = 0; i < 20; i++)
        v.push_back(s.newVar());
    for (int i = 0; i + 1 < 20; i++)
        ASSERT_TRUE(s.addClause({Lit::neg(v[i]), Lit::pos(v[i + 1])}));
    ASSERT_TRUE(s.addClause({Lit::pos(v[0])}));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    for (int i = 0; i < 20; i++)
        EXPECT_TRUE(s.modelValue(v[i])) << "var " << i;
}

TEST(SolverTest, XorChainSat)
{
    // x0 xor x1 xor ... == 1, expressed clause-wise pairwise.
    Solver s;
    Var a = s.newVar();
    Var b = s.newVar();
    Var c = s.newVar();
    // a xor b = c
    ASSERT_TRUE(s.addClause({Lit::neg(a), Lit::neg(b), Lit::neg(c)}));
    ASSERT_TRUE(s.addClause({Lit::pos(a), Lit::pos(b), Lit::neg(c)}));
    ASSERT_TRUE(s.addClause({Lit::pos(a), Lit::neg(b), Lit::pos(c)}));
    ASSERT_TRUE(s.addClause({Lit::neg(a), Lit::pos(b), Lit::pos(c)}));
    ASSERT_TRUE(s.addClause({Lit::pos(c)}));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_EQ(s.modelValue(a) != s.modelValue(b), s.modelValue(c));
}

/** Encode the pigeonhole principle PHP(n+1, n): unsatisfiable. */
void
addPigeonhole(Solver &s, int holes)
{
    int pigeons = holes + 1;
    std::vector<std::vector<Var>> at(pigeons, std::vector<Var>(holes));
    for (int p = 0; p < pigeons; p++) {
        for (int h = 0; h < holes; h++)
            at[p][h] = s.newVar();
    }
    for (int p = 0; p < pigeons; p++) {
        Clause c;
        for (int h = 0; h < holes; h++)
            c.push_back(Lit::pos(at[p][h]));
        ASSERT_TRUE(s.addClause(c));
    }
    for (int h = 0; h < holes; h++) {
        for (int p1 = 0; p1 < pigeons; p1++) {
            for (int p2 = p1 + 1; p2 < pigeons; p2++) {
                s.addClause({Lit::neg(at[p1][h]), Lit::neg(at[p2][h])});
            }
        }
    }
}

TEST(SolverTest, PigeonholeUnsat)
{
    for (int holes = 2; holes <= 6; holes++) {
        Solver s;
        addPigeonhole(s, holes);
        EXPECT_EQ(s.solve(), SolveResult::Unsat) << "PHP with " << holes << " holes";
    }
}

TEST(SolverTest, PigeonholeExactFitSat)
{
    // n pigeons in n holes is satisfiable.
    int n = 5;
    Solver s;
    std::vector<std::vector<Var>> at(n, std::vector<Var>(n));
    for (int p = 0; p < n; p++) {
        for (int h = 0; h < n; h++)
            at[p][h] = s.newVar();
    }
    for (int p = 0; p < n; p++) {
        Clause c;
        for (int h = 0; h < n; h++)
            c.push_back(Lit::pos(at[p][h]));
        ASSERT_TRUE(s.addClause(c));
    }
    for (int h = 0; h < n; h++) {
        for (int p1 = 0; p1 < n; p1++) {
            for (int p2 = p1 + 1; p2 < n; p2++)
                s.addClause({Lit::neg(at[p1][h]), Lit::neg(at[p2][h])});
        }
    }
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SolverTest, AssumptionsRestrictAndRelease)
{
    Solver s;
    Var a = s.newVar();
    Var b = s.newVar();
    ASSERT_TRUE(s.addClause({Lit::pos(a), Lit::pos(b)}));

    EXPECT_EQ(s.solve({Lit::neg(a)}), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(b));

    EXPECT_EQ(s.solve({Lit::neg(b)}), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(a));

    EXPECT_EQ(s.solve({Lit::neg(a), Lit::neg(b)}), SolveResult::Unsat);
    // The solver is still usable and satisfiable without assumptions.
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SolverTest, ConflictAssumptionsReported)
{
    Solver s;
    Var a = s.newVar();
    Var b = s.newVar();
    ASSERT_TRUE(s.addClause({Lit::pos(a)}));
    (void)b;
    ASSERT_EQ(s.solve({Lit::neg(a)}), SolveResult::Unsat);
    const auto &confl = s.conflictAssumptions();
    ASSERT_FALSE(confl.empty());
    EXPECT_TRUE(std::find(confl.begin(), confl.end(), Lit::pos(a)) !=
                confl.end());
}

TEST(SolverTest, IncrementalBlockingEnumeratesAllModels)
{
    // 3 free variables -> 8 models; block each model as found.
    Solver s;
    std::vector<Var> vars = {s.newVar(), s.newVar(), s.newVar()};
    int models = 0;
    while (s.solve() == SolveResult::Sat) {
        ASSERT_TRUE(s.checkModel());
        models++;
        ASSERT_LE(models, 8);
        Clause blocking;
        for (Var v : vars)
            blocking.push_back(Lit(v, s.modelValue(v)));
        if (!s.addClause(blocking))
            break;
    }
    EXPECT_EQ(models, 8);
}

TEST(SolverTest, RandomCnfAgainstBruteForce)
{
    std::mt19937 rng(12345);
    int sat_count = 0;
    int unsat_count = 0;
    for (int iter = 0; iter < 300; iter++) {
        int num_vars = 4 + static_cast<int>(rng() % 6);   // 4..9
        int num_clauses = 5 + static_cast<int>(rng() % 36); // 5..40
        std::vector<Clause> cnf;
        for (int c = 0; c < num_clauses; c++) {
            int len = 1 + static_cast<int>(rng() % 3);
            Clause clause;
            for (int l = 0; l < len; l++) {
                Var v = static_cast<Var>(rng() % num_vars);
                clause.push_back(Lit(v, rng() & 1));
            }
            cnf.push_back(clause);
        }

        Solver s;
        for (int v = 0; v < num_vars; v++)
            s.newVar();
        bool trivially_unsat = false;
        for (const auto &clause : cnf) {
            if (!s.addClause(clause)) {
                trivially_unsat = true;
                break;
            }
        }
        bool got = !trivially_unsat && s.solve() == SolveResult::Sat;
        bool want = bruteForceSat(cnf, num_vars);
        ASSERT_EQ(got, want) << "iteration " << iter;
        if (got) {
            ASSERT_TRUE(s.checkModel()) << "iteration " << iter;
            sat_count++;
            uint32_t assignment = 0;
            for (int v = 0; v < num_vars; v++) {
                if (s.modelValue(static_cast<Var>(v)))
                    assignment |= uint32_t(1) << v;
            }
            ASSERT_TRUE(evaluate(cnf, assignment))
                << "solver returned a non-model on iteration " << iter;
        } else {
            unsat_count++;
        }
    }
    // The distribution should include both kinds, or the test is too weak.
    EXPECT_GT(sat_count, 20);
    EXPECT_GT(unsat_count, 20);
}

TEST(SolverTest, RandomCnfUnderAssumptionsAgainstBruteForce)
{
    std::mt19937 rng(999);
    for (int iter = 0; iter < 150; iter++) {
        int num_vars = 5 + static_cast<int>(rng() % 4);
        int num_clauses = 8 + static_cast<int>(rng() % 25);
        std::vector<Clause> cnf;
        for (int c = 0; c < num_clauses; c++) {
            int len = 2 + static_cast<int>(rng() % 2);
            Clause clause;
            for (int l = 0; l < len; l++)
                clause.push_back(Lit(static_cast<Var>(rng() % num_vars),
                                     rng() & 1));
            cnf.push_back(clause);
        }
        std::vector<Lit> assumptions;
        int num_assumps = static_cast<int>(rng() % 3);
        for (int a = 0; a < num_assumps; a++)
            assumptions.push_back(
                Lit(static_cast<Var>(rng() % num_vars), rng() & 1));

        Solver s;
        for (int v = 0; v < num_vars; v++)
            s.newVar();
        bool trivially_unsat = false;
        for (const auto &clause : cnf) {
            if (!s.addClause(clause))
                trivially_unsat = true;
        }

        std::vector<Clause> cnf_with_assumps = cnf;
        for (Lit a : assumptions)
            cnf_with_assumps.push_back({a});
        bool want = bruteForceSat(cnf_with_assumps, num_vars);
        bool got =
            !trivially_unsat && s.solve(assumptions) == SolveResult::Sat;
        if (trivially_unsat)
            ASSERT_FALSE(bruteForceSat(cnf, num_vars));
        else
            ASSERT_EQ(got, want) << "iteration " << iter;
    }
}

TEST(SolverTest, ReusableAfterUnsatAssumptions)
{
    Solver s;
    Var a = s.newVar();
    Var b = s.newVar();
    ASSERT_TRUE(s.addClause({Lit::pos(a), Lit::pos(b)}));
    ASSERT_EQ(s.solve({Lit::neg(a), Lit::neg(b)}), SolveResult::Unsat);
    ASSERT_EQ(s.solve({Lit::pos(a)}), SolveResult::Sat);
    ASSERT_TRUE(s.addClause({Lit::neg(a)}));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(b));
    EXPECT_FALSE(s.modelValue(a));
}

TEST(SolverTest, StatsAreTracked)
{
    Solver s;
    addPigeonhole(s, 5);
    ASSERT_EQ(s.solve(), SolveResult::Unsat);
    EXPECT_GT(s.stats().conflicts, 0u);
    EXPECT_GT(s.stats().propagations, 0u);
    EXPECT_GT(s.stats().decisions, 0u);
}

TEST(SolverTest, ConflictBudgetStopsSearch)
{
    Solver s;
    // PHP(8,7): thousands of conflicts, so more than 5, yet refuted in a
    // fraction of a second once the budget is lifted.
    addPigeonhole(s, 7);
    s.setConflictBudget(5);
    EXPECT_EQ(s.solve(), SolveResult::BudgetExhausted);
    s.setConflictBudget(0);
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(SolverTest, ConflictBudgetReArmsFromCurrentCount)
{
    // The budget counts conflicts from the setConflictBudget call, so a
    // long-lived solver can give each query family a fresh allowance.
    Solver s;
    addPigeonhole(s, 9);
    s.setConflictBudget(5);
    ASSERT_EQ(s.solve(), SolveResult::BudgetExhausted);
    uint64_t after_first = s.stats().conflicts;
    // Without re-arming, the spent budget would abort instantly; a fresh
    // budget of the same magnitude must buy another real search slice.
    s.setConflictBudget(5);
    ASSERT_EQ(s.solve(), SolveResult::BudgetExhausted);
    EXPECT_GE(s.stats().conflicts, after_first + 5);
}

TEST(SolverTest, GroupClausesBindOnlyWhenAssumed)
{
    Solver s;
    Var a = s.newVar();
    Group g = s.newGroup();
    ASSERT_TRUE(s.addClause(g, {Lit::neg(a)}));
    ASSERT_TRUE(s.addClause({Lit::pos(a)}));

    // Without the activation literal the group's clause is inert.
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(a));
    // With it, ~a clashes with the permanent unit a.
    EXPECT_EQ(s.solve({s.groupLit(g)}), SolveResult::Unsat);
    const auto &confl = s.conflictAssumptions();
    EXPECT_TRUE(std::find(confl.begin(), confl.end(), ~s.groupLit(g)) !=
                confl.end());
}

TEST(SolverTest, ReleasedGroupNeverPropagates)
{
    Solver s;
    Var a = s.newVar();
    Var b = s.newVar();
    Group g = s.newGroup();
    ASSERT_TRUE(s.addClause(g, {Lit::neg(a)}));
    ASSERT_TRUE(s.addClause(g, {Lit::pos(b)}));
    ASSERT_EQ(s.solve({s.groupLit(g), Lit::pos(a)}), SolveResult::Unsat);

    s.release(g);
    EXPECT_TRUE(s.isReleased(g));
    // The retracted clauses are gone for good: both polarities of both
    // variables are reachable again.
    ASSERT_EQ(s.solve({Lit::pos(a), Lit::neg(b)}), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(a));
    EXPECT_FALSE(s.modelValue(b));
    // Releasing twice is a no-op.
    s.release(g);
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SolverTest, CheckModelValidatesSatAnswers)
{
    Solver s;
    Var a = s.newVar();
    Var b = s.newVar();
    Var c = s.newVar();
    // checkModel() is only meaningful after a Sat answer.
    EXPECT_FALSE(s.checkModel());
    ASSERT_TRUE(s.addClause({Lit::pos(a), Lit::pos(b)}));
    ASSERT_TRUE(s.addClause({Lit::neg(a), Lit::pos(c)}));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.checkModel());

    // Grouped clauses carry their activation guard, so the check holds
    // whether or not the group is assumed.
    Group g = s.newGroup();
    ASSERT_TRUE(s.addClause(g, {Lit::neg(b)}));
    ASSERT_EQ(s.solve({s.groupLit(g)}), SolveResult::Sat);
    EXPECT_TRUE(s.checkModel());
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.checkModel());

    // After an Unsat answer the previous model is stale; report failure.
    ASSERT_EQ(s.solve({Lit::pos(a), Lit::neg(c)}), SolveResult::Unsat);
    EXPECT_FALSE(s.checkModel());
}

TEST(SolverTest, ManyGroupsActivateIndependently)
{
    Solver s;
    Var x = s.newVar();
    Group even = s.newGroup();
    Group odd = s.newGroup();
    ASSERT_TRUE(s.addClause(even, {Lit::pos(x)}));
    ASSERT_TRUE(s.addClause(odd, {Lit::neg(x)}));

    ASSERT_EQ(s.solve({s.groupLit(even)}), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(x));
    ASSERT_EQ(s.solve({s.groupLit(odd)}), SolveResult::Sat);
    EXPECT_FALSE(s.modelValue(x));
    EXPECT_EQ(s.solve({s.groupLit(even), s.groupLit(odd)}),
              SolveResult::Unsat);

    s.release(even);
    ASSERT_EQ(s.solve({s.groupLit(odd)}), SolveResult::Sat);
    EXPECT_FALSE(s.modelValue(x));
}

TEST(SolverTest, GroupedPigeonholeMatchesPermanentAnswer)
{
    // The same UNSAT core asserted through a group must answer exactly
    // like the permanent encoding, and disappear on release.
    Solver s;
    int holes = 4;
    int pigeons = holes + 1;
    std::vector<std::vector<Var>> at(pigeons, std::vector<Var>(holes));
    for (int p = 0; p < pigeons; p++) {
        for (int h = 0; h < holes; h++)
            at[p][h] = s.newVar();
    }
    Group g = s.newGroup();
    for (int p = 0; p < pigeons; p++) {
        Clause c;
        for (int h = 0; h < holes; h++)
            c.push_back(Lit::pos(at[p][h]));
        ASSERT_TRUE(s.addClause(g, c));
    }
    for (int h = 0; h < holes; h++) {
        for (int p1 = 0; p1 < pigeons; p1++) {
            for (int p2 = p1 + 1; p2 < pigeons; p2++) {
                ASSERT_TRUE(s.addClause(
                    g, {Lit::neg(at[p1][h]), Lit::neg(at[p2][h])}));
            }
        }
    }
    EXPECT_EQ(s.solve({s.groupLit(g)}), SolveResult::Unsat);
    EXPECT_EQ(s.solve(), SolveResult::Sat);
    s.release(g);
    EXPECT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_EQ(s.numClauses(), 0);
}

TEST(SolverTest, ReduceDBKeepsGlueAndBinaryClauses)
{
    // Learn some clauses on a hard instance, then force a reduction:
    // the database must shrink without losing correctness.
    Solver s;
    addPigeonhole(s, 7);
    s.setConflictBudget(2000);
    ASSERT_NE(s.solve(), SolveResult::Sat);
    int learned_before = s.numLearned();
    ASSERT_GT(learned_before, 0);
    uint64_t reduces_before = s.stats().reduceCalls;
    s.reduceLearnedClauses();
    EXPECT_EQ(s.stats().reduceCalls, reduces_before + 1);
    EXPECT_LE(s.numLearned(), learned_before);
    // Still answers correctly after the purge.
    s.setConflictBudget(0);
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(SolverTest, TrailReuseAgreesWithFreshSolver)
{
    // solve() keeps the levels of the assumptions it reached and the
    // next call backtracks only to the common prefix. Drive one solver
    // through random operations — solves whose assumptions share a
    // random prefix with the previous call, interleaved with permanent
    // and grouped clause additions, releases and conflict budgets — and
    // check every answer against a fresh solver given the same live
    // clauses and assumptions.
    struct LiveGroup
    {
        Group g;
        std::vector<Clause> clauses; // without the guard literal
        bool released = false;
    };
    uint64_t kept_levels = 0;
    int sat_answers = 0, unsat_answers = 0;
    for (uint32_t seed = 1; seed <= 12; seed++) {
        std::mt19937 rng(seed);
        const int num_vars = 6 + static_cast<int>(rng() % 7); // 6..12
        auto randomClause = [&](int len) {
            Clause c;
            for (int l = 0; l < len; l++)
                c.push_back(Lit(static_cast<Var>(rng() % num_vars), rng() & 1));
            return c;
        };

        Solver s;
        for (int v = 0; v < num_vars; v++)
            s.newVar();
        std::vector<Clause> permanent;
        std::vector<LiveGroup> groups;
        for (int i = 0; i < num_vars; i++) {
            Clause c = randomClause(3);
            permanent.push_back(c);
            s.addClause(c);
        }

        // A fresh solver holding exactly s's live constraints: the
        // permanent clauses, each unreleased group's clauses with their
        // guard, and the false pin of each released selector.
        auto fresh = [&](Solver &f) {
            for (int v = 0; v < s.numVars(); v++)
                f.newVar();
            for (const Clause &c : permanent)
                f.addClause(c);
            for (const LiveGroup &lg : groups) {
                Lit guard = ~s.groupLit(lg.g);
                if (lg.released) {
                    f.addClause({guard});
                    continue;
                }
                for (Clause c : lg.clauses) {
                    c.push_back(guard);
                    f.addClause(c);
                }
            }
        };

        std::vector<Lit> prev;
        for (int op = 0; op < 200; op++) {
            int kind = static_cast<int>(rng() % 20);
            if (kind < 2) {
                Clause c = randomClause(3);
                permanent.push_back(c);
                s.addClause(c);
            } else if (kind < 4) {
                LiveGroup lg;
                lg.g = s.newGroup();
                lg.clauses.push_back(randomClause(1 + rng() % 2));
                s.addClause(lg.g, lg.clauses.back());
                groups.push_back(lg);
            } else if (kind < 5 && !groups.empty()) {
                LiveGroup &lg = groups[rng() % groups.size()];
                if (!lg.released) {
                    lg.clauses.push_back(randomClause(1 + rng() % 3));
                    s.addClause(lg.g, lg.clauses.back());
                }
            } else if (kind < 6 && !groups.empty()) {
                LiveGroup &lg = groups[rng() % groups.size()];
                s.release(lg.g);
                lg.released = true;
            } else if (kind < 7) {
                s.setConflictBudget(rng() % 3 == 0 ? 1 + rng() % 4 : 0);
            } else {
                std::vector<Lit> assume(
                    prev.begin(), prev.begin() + rng() % (prev.size() + 1));
                int extra = static_cast<int>(rng() % 4);
                for (int i = 0; i < extra; i++) {
                    if (!groups.empty() && rng() % 3 == 0)
                        assume.push_back(
                            s.groupLit(groups[rng() % groups.size()].g));
                    else
                        assume.push_back(Lit(
                            static_cast<Var>(rng() % num_vars), rng() & 1));
                }
                prev = assume;

                SolveResult got = s.solve(assume);
                if (got == SolveResult::BudgetExhausted)
                    continue;
                Solver oracle;
                fresh(oracle);
                ASSERT_EQ(got, oracle.solve(assume))
                    << "seed " << seed << " op " << op;
                if (got == SolveResult::Sat) {
                    sat_answers++;
                    ASSERT_TRUE(s.checkModel())
                        << "seed " << seed << " op " << op;
                    for (Lit a : assume)
                        ASSERT_TRUE(s.modelValue(a))
                            << "seed " << seed << " op " << op;
                    continue;
                }
                unsat_answers++;
                std::vector<Lit> core;
                for (Lit l : s.conflictAssumptions()) {
                    ASSERT_NE(std::find(assume.begin(), assume.end(), ~l),
                              assume.end())
                        << "seed " << seed << " op " << op;
                    core.push_back(~l);
                }
                Solver core_check;
                fresh(core_check);
                ASSERT_EQ(core_check.solve(core), SolveResult::Unsat)
                    << "seed " << seed << " op " << op;
            }
        }
        kept_levels += s.stats().keptLevels;
    }
    // Both answers occur, and the reuse path actually ran.
    EXPECT_GT(sat_answers, 100);
    EXPECT_GT(unsat_answers, 100);
    EXPECT_GT(kept_levels, 0u);
}

TEST(SolverTest, AssumptionLevelsSurviveOnlyTheCommonPrefix)
{
    Solver s;
    Var a = s.newVar(), b = s.newVar(), c = s.newVar(), d = s.newVar();
    ASSERT_TRUE(s.addClause({Lit::neg(a), Lit::pos(b)}));
    ASSERT_TRUE(s.addClause({Lit::neg(c), Lit::neg(d)}));
    ASSERT_EQ(s.solve({Lit::pos(a), Lit::pos(c)}), SolveResult::Sat);
    EXPECT_EQ(s.stats().keptLevels, 0u);
    // One literal longer: both levels are reused.
    ASSERT_EQ(s.solve({Lit::pos(a), Lit::pos(c), Lit::neg(b)}),
              SolveResult::Unsat);
    EXPECT_EQ(s.stats().keptLevels, 2u);
    // Diverging at the second literal keeps only the first level.
    ASSERT_EQ(s.solve({Lit::pos(a), Lit::pos(d)}), SolveResult::Sat);
    EXPECT_EQ(s.stats().keptLevels, 3u);
    EXPECT_TRUE(s.modelValue(b));
    EXPECT_FALSE(s.modelValue(c));
    // A unit clause goes to the root, dropping every kept level.
    ASSERT_TRUE(s.addClause({Lit::neg(d)}));
    ASSERT_EQ(s.solve({Lit::pos(a), Lit::pos(d)}), SolveResult::Unsat);
    EXPECT_EQ(s.stats().keptLevels, 3u);
    EXPECT_EQ(s.stats().solves, 4u);
}

TEST(SolverTest, FalsifiedClauseBacktracksToItsSecondHighestLevel)
{
    using T = TrailInspector;
    Solver s;
    Var a = s.newVar(), b = s.newVar(), c = s.newVar(), d = s.newVar();
    std::vector<Lit> assume = {Lit::pos(a), Lit::pos(b), Lit::pos(c),
                               Lit::pos(d)};
    ASSERT_EQ(s.solve(assume), SolveResult::Sat);
    ASSERT_EQ(T::decisionLevel(s), 4);
    // False at levels 1, 3 and 4: the level-4 literal is asserted at 3.
    ASSERT_TRUE(s.addClause({Lit::neg(a), Lit::neg(c), Lit::neg(d)}));
    EXPECT_EQ(T::decisionLevel(s), 3);
    EXPECT_EQ(T::trueAt(s, Lit::neg(d)), 3);
    EXPECT_EQ(T::reason(s, d),
              (Clause{Lit::neg(d), Lit::neg(c), Lit::neg(a)}));
    // The same assumptions resume on the kept levels and hit ~d.
    ASSERT_EQ(s.solve(assume), SolveResult::Unsat);
    EXPECT_EQ(s.stats().keptLevels, 3u);
}

TEST(SolverTest, FalsifiedClauseWithTiedLevelsBacktracksBelowThem)
{
    using T = TrailInspector;
    Solver s;
    Var a = s.newVar(), b = s.newVar(), c = s.newVar(), e = s.newVar();
    ASSERT_TRUE(s.addClause({Lit::neg(c), Lit::pos(e)}));
    std::vector<Lit> assume = {Lit::pos(a), Lit::pos(b), Lit::pos(c)};
    ASSERT_EQ(s.solve(assume), SolveResult::Sat);
    ASSERT_EQ(T::decisionLevel(s), 3);
    ASSERT_EQ(T::trueAt(s, Lit::pos(e)), 3);
    // c and e both sit at level 3: no literal is implied, both watches
    // come free one level below.
    ASSERT_TRUE(s.addClause({Lit::neg(a), Lit::neg(c), Lit::neg(e)}));
    EXPECT_EQ(T::decisionLevel(s), 2);
    EXPECT_TRUE(T::unassigned(s, c));
    EXPECT_TRUE(T::unassigned(s, e));
    EXPECT_EQ(T::trueAt(s, Lit::pos(b)), 2);
    ASSERT_EQ(s.solve(assume), SolveResult::Unsat);
    ASSERT_EQ(s.solve({Lit::pos(a), Lit::pos(b)}), SolveResult::Sat);
    EXPECT_FALSE(s.modelValue(c));
}

TEST(SolverTest, UnitClauseIsAssertedAtItsHighestFalseLevel)
{
    using T = TrailInspector;
    Solver s;
    Var a = s.newVar(), b = s.newVar(), c = s.newVar(), d = s.newVar();
    std::vector<Lit> assume = {Lit::pos(a), Lit::pos(b), Lit::pos(c),
                               Lit::pos(d)};
    ASSERT_EQ(s.solve(assume), SolveResult::Sat);
    // A variable made after the answer is unassigned: the clause is unit
    // under levels 1 and 2 and is asserted at 2, below the current 4.
    Var x = s.newVar();
    ASSERT_TRUE(s.addClause({Lit::pos(x), Lit::neg(a), Lit::neg(b)}));
    EXPECT_EQ(T::decisionLevel(s), 2);
    EXPECT_EQ(T::trueAt(s, Lit::pos(x)), 2);
    EXPECT_EQ(T::reason(s, x),
              (Clause{Lit::pos(x), Lit::neg(b), Lit::neg(a)}));
    EXPECT_TRUE(T::unassigned(s, c));
    EXPECT_TRUE(T::unassigned(s, d));
    ASSERT_EQ(s.solve(assume), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(x));
}

TEST(SolverTest, TrueLiteralAboveItsFalseOnesIsReassertedLower)
{
    using T = TrailInspector;
    Solver s;
    Var a = s.newVar(), b = s.newVar(), c = s.newVar(), d = s.newVar();
    std::vector<Lit> assume = {Lit::pos(a), Lit::pos(b), Lit::pos(c),
                               Lit::pos(d)};
    ASSERT_EQ(s.solve(assume), SolveResult::Sat);
    // True at 2, false at 3: already where propagation would put it.
    ASSERT_TRUE(s.addClause({Lit::pos(b), Lit::neg(c)}));
    EXPECT_EQ(T::decisionLevel(s), 4);
    EXPECT_EQ(T::trueAt(s, Lit::pos(b)), 2);
    EXPECT_TRUE(T::reason(s, b).empty());
    // True at 4, false at 2: the clause implies d at 2.
    ASSERT_TRUE(s.addClause({Lit::pos(d), Lit::neg(b)}));
    EXPECT_EQ(T::decisionLevel(s), 2);
    EXPECT_EQ(T::trueAt(s, Lit::pos(d)), 2);
    EXPECT_EQ(T::reason(s, d), (Clause{Lit::pos(d), Lit::neg(b)}));
    EXPECT_TRUE(T::unassigned(s, c));
    ASSERT_EQ(s.solve(assume), SolveResult::Sat);
    EXPECT_TRUE(s.checkModel());
}

TEST(SolverTest, KeptTrailEnumerationMatchesBruteForce)
{
    // Enumerate the models, projected onto the frozen variables, of
    // random CNFs that a variable permutation maps onto themselves, the
    // way the synthesizer enumerates tests under thread symmetry: each
    // model is blocked in a layer together with its image under the
    // permutation, so every blocking clause lands on the trail the last
    // Sat answer left. Side queries under other assumptions, released
    // layers, simplify(), forced reductions and conflict budgets are
    // interleaved. The models found and their images must be exactly the
    // projected models brute force finds, and no model comes back.
    int found_total = 0;
    uint64_t kept_levels = 0;
    for (uint32_t seed = 1; seed <= 40; seed++) {
        std::mt19937 rng(seed);
        const int frozen = 4 + static_cast<int>(rng() % 9); // 4..12
        const int num_vars = frozen + static_cast<int>(rng() % 4);
        const uint32_t frozen_mask = (uint32_t(1) << frozen) - 1;

        // An involution of the frozen variables: a few random swaps.
        std::vector<Var> perm(static_cast<size_t>(num_vars));
        for (int v = 0; v < num_vars; v++)
            perm[v] = v;
        std::vector<Var> order(perm.begin(), perm.begin() + frozen);
        std::shuffle(order.begin(), order.end(), rng);
        int swaps = 1 + static_cast<int>(rng() % (frozen / 2));
        for (int k = 0; k < swaps; k++)
            std::swap(perm[order[2 * k]], perm[order[2 * k + 1]]);
        auto permute = [&](uint32_t m) {
            uint32_t r = 0;
            for (int v = 0; v < frozen; v++) {
                if ((m >> v) & 1)
                    r |= uint32_t(1) << perm[v];
            }
            return r;
        };
        auto randomLit = [&](int below) {
            return Lit(static_cast<Var>(rng() % below), rng() & 1);
        };

        Solver s;
        for (int v = 0; v < num_vars; v++)
            s.newVar();
        for (int v = 0; v < frozen; v++)
            s.setFrozen(v);
        // Each clause and its image go together, to the permanent part
        // or to one layer, so both parts stay symmetric.
        Group layer = s.newGroup();
        std::vector<Clause> cnf;
        int pairs = frozen + static_cast<int>(rng() % (2 * frozen));
        for (int i = 0; i < pairs; i++) {
            Clause c;
            int len = 2 + static_cast<int>(rng() % 3);
            for (int l = 0; l < len; l++)
                c.push_back(randomLit(num_vars));
            Clause img;
            for (Lit l : c)
                img.push_back(Lit(perm[l.var()], l.sign()));
            bool grouped = rng() & 1;
            for (const Clause &cl : {c, img}) {
                cnf.push_back(cl);
                ASSERT_TRUE(grouped ? s.addClause(layer, cl)
                                    : s.addClause(cl));
            }
        }
        std::set<uint32_t> expected;
        for (uint32_t a = 0; a < (uint32_t(1) << num_vars); a++) {
            if (evaluate(cnf, a))
                expected.insert(a & frozen_mask);
        }

        Group block = s.newGroup();
        const std::vector<Lit> enumerate = {s.groupLit(layer),
                                            s.groupLit(block)};
        std::set<uint32_t> blocked;
        auto blockProjected = [&](uint32_t m) {
            Clause c;
            for (int v = 0; v < frozen; v++)
                c.push_back(Lit(static_cast<Var>(v), (m >> v) & 1));
            ASSERT_TRUE(s.addClause(block, c));
            blocked.insert(m);
        };
        auto projection = [&]() {
            uint32_t m = 0;
            for (int v = 0; v < frozen; v++) {
                if (s.modelValue(static_cast<Var>(v)))
                    m |= uint32_t(1) << v;
            }
            return m;
        };

        bool exhausted = false;
        for (int step = 0; step < 20000 && !exhausted; step++) {
            int kind = static_cast<int>(rng() % 40);
            if (kind == 0) {
                // A side query under a longer, reordered vector.
                Lit extra = randomLit(frozen);
                std::vector<Lit> assume = {s.groupLit(block),
                                           s.groupLit(layer), extra};
                bool want = false;
                for (uint32_t m : expected) {
                    bool bit = (m >> extra.var()) & 1;
                    if (!blocked.count(m) && bit != extra.sign())
                        want = true;
                }
                SolveResult got = s.solve(assume);
                ASSERT_EQ(got == SolveResult::Sat, want)
                    << "seed " << seed << " step " << step;
                if (want) {
                    ASSERT_TRUE(s.checkModel());
                    ASSERT_TRUE(s.modelValue(extra));
                }
            } else if (kind == 1) {
                // A layer that lives for one query, then is released.
                Group junk = s.newGroup();
                for (int i = 0; i < 3; i++) {
                    ASSERT_TRUE(s.addClause(
                        junk, {randomLit(frozen), randomLit(frozen)}));
                }
                if (s.solve({s.groupLit(junk)}) == SolveResult::Sat) {
                    ASSERT_TRUE(s.checkModel());
                }
                s.release(junk);
            } else if (kind == 2) {
                ASSERT_TRUE(s.simplify());
            } else if (kind == 3) {
                s.reduceLearnedClauses();
            } else {
                if (kind == 4)
                    s.setConflictBudget(1 + rng() % 3);
                SolveResult got = s.solve(enumerate);
                s.setConflictBudget(0);
                if (got == SolveResult::BudgetExhausted)
                    continue;
                if (got == SolveResult::Unsat) {
                    exhausted = true;
                    continue;
                }
                ASSERT_TRUE(s.checkModel());
                uint32_t m = projection();
                ASSERT_TRUE(expected.count(m))
                    << "seed " << seed << " step " << step;
                ASSERT_FALSE(blocked.count(m))
                    << "model found twice: seed " << seed << " step "
                    << step;
                found_total++;
                // The model first, then its image, before the next solve.
                blockProjected(m);
                ASSERT_TRUE(expected.count(permute(m)));
                blockProjected(permute(m));
            }
        }
        ASSERT_TRUE(exhausted) << "seed " << seed;
        EXPECT_EQ(blocked, expected) << "seed " << seed;
        kept_levels += s.stats().keptLevels;
    }
    EXPECT_GT(found_total, 200);
    EXPECT_GT(kept_levels, 0u);
}

TEST(SolverTest, SearchIsPinned)
{
    // The search is pinned exactly: conflicts, decisions and learned
    // clauses. A fixed, self-generated workload touches every path that
    // moves clauses around or keeps search state between calls: grouped
    // blocking enumeration, where each blocking clause lands on the
    // trail the last Sat answer kept and backjumps only as far as it
    // needs (so each solve after a blocked model keeps the layer's
    // assumption level), release, assumptions, simplify and a forced
    // reduction. The clause store's layout must never move these
    // numbers; a change to them means the search changed, not just its
    // speed.
    std::mt19937 rng(20261017);
    const int num_vars = 150;
    const int frozen = 24; // the variables assumed or blocked on
    Solver s;
    for (int v = 0; v < num_vars; v++)
        s.newVar();
    for (int v = 0; v < frozen; v++)
        s.setFrozen(v);
    auto randomLit = [&](int below) {
        return Lit(static_cast<Var>(rng() % below), rng() & 1);
    };
    auto randomClause = [&](int len) {
        Clause c;
        for (int l = 0; l < len; l++)
            c.push_back(randomLit(num_vars));
        return c;
    };
    auto randomAssumptions = [&](int count) {
        std::vector<Lit> assume;
        for (int a = 0; a < count; a++)
            assume.push_back(randomLit(frozen));
        return assume;
    };
    int sat_answers = 0;
    auto tally = [&](SolveResult r) {
        ASSERT_NE(r, SolveResult::BudgetExhausted);
        if (r == SolveResult::Sat) {
            ASSERT_TRUE(s.checkModel());
            sat_answers++;
        }
    };

    for (int c = 0; c < 580; c++)
        ASSERT_TRUE(s.addClause(randomClause(3)));
    for (int c = 0; c < 40; c++)
        ASSERT_TRUE(s.addClause(randomClause(6)));
    tally(s.solve());

    // A retractable layer enumerated to exhaustion over the frozen
    // variables, the way the synthesizer enumerates tests.
    Group g = s.newGroup();
    for (int c = 0; c < 60; c++)
        ASSERT_TRUE(s.addClause(g, randomClause(4)));
    int models = 0;
    while (models < 40 && s.solve({s.groupLit(g)}) == SolveResult::Sat) {
        ASSERT_TRUE(s.checkModel());
        models++;
        Clause blocking;
        for (Var v = 0; v < frozen; v++)
            blocking.push_back(Lit(v, s.modelValue(v)));
        ASSERT_TRUE(s.addClause(g, blocking));
    }
    s.release(g);

    for (int i = 0; i < 30; i++)
        tally(s.solve(randomAssumptions(4)));
    ASSERT_TRUE(s.simplify());
    for (int i = 0; i < 30; i++)
        tally(s.solve(randomAssumptions(3)));
    s.reduceLearnedClauses();
    for (int i = 0; i < 10; i++)
        tally(s.solve(randomAssumptions(2)));

    const SolverStats &st = s.stats();
    EXPECT_EQ(models, 40);
    EXPECT_EQ(sat_answers, 63);
    EXPECT_EQ(st.conflicts, 8709u);
    EXPECT_EQ(st.decisions, 12474u);
    EXPECT_EQ(st.propagations, 292827u);
    EXPECT_EQ(st.learnedClauses, 8709u);
    EXPECT_EQ(st.deletedClauses, 7449u);
    EXPECT_EQ(st.reduceCalls, 5u);
    EXPECT_EQ(st.eliminatedVars, 5u);
    EXPECT_EQ(st.keptLevels, 41u);
}

TEST(SolverTest, ArenaCompactsAfterReleasedLayers)
{
    // A resident solver retires a clause layer per query. Released
    // clauses must not pin arena words forever: after each release the
    // arena stays within a constant factor of what is still live, and
    // every answer along the way agrees with brute force.
    std::mt19937 rng(77);
    const int num_vars = 10;
    Solver s;
    for (int v = 0; v < num_vars; v++)
        s.newVar();
    std::vector<Clause> base;
    for (int c = 0; c < 8; c++) {
        Clause clause;
        for (int l = 0; l < 3; l++)
            clause.push_back(
                Lit(static_cast<Var>(rng() % num_vars), rng() & 1));
        base.push_back(clause);
        ASSERT_TRUE(s.addClause(clause));
    }
    auto liveWords = [&] {
        // Header plus literals, two to a word, per stored clause (units
        // live on the trail, not in the arena).
        size_t words = 0;
        for (const Clause &c : s.liveClauses(true)) {
            if (c.size() >= 2)
                words += 3 + (c.size() + 1) / 2;
        }
        return words;
    };

    int sat_answers = 0;
    int unsat_answers = 0;
    for (int round = 0; round < 200; round++) {
        Group g = s.newGroup();
        std::vector<Clause> cnf = base;
        int clauses = 10 + static_cast<int>(rng() % 40);
        for (int c = 0; c < clauses; c++) {
            int len = 2 + static_cast<int>(rng() % 7);
            Clause clause;
            for (int l = 0; l < len; l++)
                clause.push_back(
                    Lit(static_cast<Var>(rng() % num_vars), rng() & 1));
            cnf.push_back(clause);
            ASSERT_TRUE(s.addClause(g, clause));
        }
        bool want = bruteForceSat(cnf, num_vars);
        SolveResult got = s.solve({s.groupLit(g)});
        ASSERT_EQ(got == SolveResult::Sat, want) << "round " << round;
        if (want) {
            ASSERT_TRUE(s.checkModel());
            uint32_t assignment = 0;
            for (int v = 0; v < num_vars; v++) {
                if (s.modelValue(static_cast<Var>(v)))
                    assignment |= uint32_t(1) << v;
            }
            ASSERT_TRUE(evaluate(cnf, assignment)) << "round " << round;
            sat_answers++;
        } else {
            unsat_answers++;
        }
        s.release(g);
        ASSERT_LE(s.arenaWords(), 2 * liveWords() + 16) << "round " << round;
    }
    EXPECT_GT(sat_answers, 20);
    EXPECT_GT(unsat_answers, 20);
    EXPECT_GT(s.stats().arenaCompactions, 0u);
    // Permanent clauses and base-derived learnts are all that is left.
    EXPECT_EQ(s.solve(), bruteForceSat(base, num_vars) ? SolveResult::Sat
                                                       : SolveResult::Unsat);
}

TEST(LitTest, EncodingRoundTrips)
{
    Lit p = Lit::pos(7);
    EXPECT_EQ(p.var(), 7);
    EXPECT_FALSE(p.sign());
    Lit n = ~p;
    EXPECT_EQ(n.var(), 7);
    EXPECT_TRUE(n.sign());
    EXPECT_EQ(~n, p);
    EXPECT_EQ(Lit::fromCode(p.index()), p);
    EXPECT_EQ(p.toString(), "x7");
    EXPECT_EQ(n.toString(), "~x7");
    EXPECT_FALSE(Lit().valid());
}

} // namespace
} // namespace lts::sat
