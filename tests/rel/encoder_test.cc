/**
 * @file
 * Tests for the gate builder and the symbolic relational encoder.
 *
 * The central property test generates random relational expressions and
 * formulas, pins relation variables to random concrete contents via SAT
 * assumptions, and checks that the symbolic encoding evaluates to exactly
 * what the concrete evaluator computes. This is the soundness anchor for
 * the entire synthesis pipeline.
 */

#include <gtest/gtest.h>

#include <random>

#include "rel/encoder.hh"
#include "rel/eval.hh"

namespace lts::rel
{
namespace
{

TEST(GateBuilderTest, ConstantFolding)
{
    sat::Solver s;
    GateBuilder g(s);
    GLit a = g.mkFreeInput();
    EXPECT_EQ(g.mkAnd(a, kTrue), a);
    EXPECT_EQ(g.mkAnd(kTrue, a), a);
    EXPECT_EQ(g.mkAnd(a, kFalse), kFalse);
    EXPECT_EQ(g.mkAnd(a, a), a);
    EXPECT_EQ(g.mkAnd(a, gNot(a)), kFalse);
    EXPECT_EQ(g.mkOr(a, kTrue), kTrue);
    EXPECT_EQ(g.mkOr(a, kFalse), a);
}

TEST(GateBuilderTest, StructuralHashing)
{
    sat::Solver s;
    GateBuilder g(s);
    GLit a = g.mkFreeInput();
    GLit b = g.mkFreeInput();
    GLit x = g.mkAnd(a, b);
    GLit y = g.mkAnd(b, a);
    EXPECT_EQ(x, y);
    size_t before = g.numAnds();
    (void)g.mkAnd(a, b);
    EXPECT_EQ(g.numAnds(), before);
}

TEST(GateBuilderTest, TseitinSemantics)
{
    // Assert (a & b) | ~c and enumerate: model count must be 5 of 8.
    sat::Solver s;
    GateBuilder g(s);
    sat::Var va = s.newVar(), vb = s.newVar(), vc = s.newVar();
    GLit f = g.mkOr(g.mkAnd(g.mkInput(va), g.mkInput(vb)),
                    gNot(g.mkInput(vc)));
    g.assertTrue(f);
    int models = 0;
    while (s.solve() == sat::SolveResult::Sat) {
        bool a = s.modelValue(va), b = s.modelValue(vb), c = s.modelValue(vc);
        EXPECT_TRUE((a && b) || !c);
        models++;
        sat::Clause block = {sat::Lit(va, a), sat::Lit(vb, b),
                             sat::Lit(vc, c)};
        if (!s.addClause(block))
            break;
    }
    EXPECT_EQ(models, 5);
}

TEST(GateBuilderTest, XorMuxIff)
{
    sat::Solver s;
    GateBuilder g(s);
    sat::Var va = s.newVar(), vb = s.newVar(), vs = s.newVar();
    GLit a = g.mkInput(va), b = g.mkInput(vb), sel = g.mkInput(vs);
    g.assertTrue(g.mkIff(g.mkXor(a, b), g.mkMux(sel, a, b)));
    // xor(a,b) == mux(s,a,b) has solutions; check each returned model.
    int models = 0;
    while (s.solve() == sat::SolveResult::Sat && models < 8) {
        bool A = s.modelValue(va), B = s.modelValue(vb), S = s.modelValue(vs);
        EXPECT_EQ(A != B, S ? A : B);
        models++;
        if (!s.addClause({sat::Lit(va, A), sat::Lit(vb, B), sat::Lit(vs, S)}))
            break;
    }
    EXPECT_EQ(models, 4);
}

TEST(GateBuilderTest, AtMostOne)
{
    sat::Solver s;
    GateBuilder g(s);
    std::vector<sat::Var> vars = {s.newVar(), s.newVar(), s.newVar(),
                                  s.newVar()};
    std::vector<GLit> lits;
    for (auto v : vars)
        lits.push_back(g.mkInput(v));
    g.assertTrue(g.mkAtMostOne(lits));
    int models = 0;
    while (s.solve() == sat::SolveResult::Sat) {
        int set = 0;
        sat::Clause block;
        for (auto v : vars) {
            if (s.modelValue(v))
                set++;
            block.push_back(sat::Lit(v, s.modelValue(v)));
        }
        EXPECT_LE(set, 1);
        models++;
        if (!s.addClause(block))
            break;
    }
    EXPECT_EQ(models, 5); // empty + 4 singletons
}

TEST(GateBuilderTest, AssertFalseMakesUnsat)
{
    sat::Solver s;
    GateBuilder g(s);
    g.assertTrue(kFalse);
    EXPECT_EQ(s.solve(), sat::SolveResult::Unsat);
}

/** Pin every relation cell to the given instance via assumptions. */
std::vector<sat::Lit>
pinInstance(const Vocabulary &vocab, const Encoder &enc, const Instance &inst)
{
    std::vector<sat::Lit> assumptions;
    size_t n = inst.universe();
    for (size_t id = 0; id < vocab.size(); id++) {
        const VarDecl &d = vocab.decl(static_cast<int>(id));
        if (d.arity == 1) {
            for (size_t i = 0; i < n; i++) {
                assumptions.push_back(
                    sat::Lit(enc.cellVar(d.id, i), !inst.set(d.id).test(i)));
            }
        } else {
            for (size_t i = 0; i < n; i++) {
                for (size_t j = 0; j < n; j++) {
                    assumptions.push_back(
                        sat::Lit(enc.cellVar(d.id, i, j),
                                 !inst.matrix(d.id).test(i, j)));
                }
            }
        }
    }
    return assumptions;
}

/** Build a random expression tree of the given depth. */
ExprPtr
randomExpr(std::mt19937 &rng, const std::vector<ExprPtr> &rels,
           const std::vector<ExprPtr> &sets, int depth, int want_arity)
{
    if (depth == 0) {
        if (want_arity == 2)
            return rels[rng() % rels.size()];
        return sets[rng() % sets.size()];
    }
    auto sub2 = [&](int d) {
        return randomExpr(rng, rels, sets, d, 2);
    };
    auto sub1 = [&](int d) {
        return randomExpr(rng, rels, sets, d, 1);
    };
    if (want_arity == 2) {
        switch (rng() % 9) {
          case 0:
            return mkUnion(sub2(depth - 1), sub2(depth - 1));
          case 1:
            return mkIntersect(sub2(depth - 1), sub2(depth - 1));
          case 2:
            return mkDiff(sub2(depth - 1), sub2(depth - 1));
          case 3:
            return mkJoin(sub2(depth - 1), sub2(depth - 1));
          case 4:
            return mkTranspose(sub2(depth - 1));
          case 5:
            return mkClosure(sub2(depth - 1));
          case 6:
            return mkProduct(sub1(depth - 1), sub1(depth - 1));
          case 7:
            return mkDomRestrict(sub1(depth - 1), sub2(depth - 1));
          default:
            return mkRanRestrict(sub2(depth - 1), sub1(depth - 1));
        }
    }
    switch (rng() % 4) {
      case 0:
        return mkUnion(sub1(depth - 1), sub1(depth - 1));
      case 1:
        return mkIntersect(sub1(depth - 1), sub1(depth - 1));
      case 2:
        return mkJoin(sub1(depth - 1), sub2(depth - 1));
      default:
        return mkJoin(sub2(depth - 1), sub1(depth - 1));
    }
}

/** Build a random formula over random expressions. */
FormulaPtr
randomFormula(std::mt19937 &rng, const std::vector<ExprPtr> &rels,
              const std::vector<ExprPtr> &sets, int depth)
{
    if (depth == 0) {
        ExprPtr e2 = randomExpr(rng, rels, sets, 1 + rng() % 2, 2);
        switch (rng() % 7) {
          case 0:
            return mkSubset(e2, randomExpr(rng, rels, sets, 1, 2));
          case 1:
            return mkEqual(e2, randomExpr(rng, rels, sets, 1, 2));
          case 2:
            return mkSome(e2);
          case 3:
            return mkNo(e2);
          case 4:
            return mkLone(e2);
          case 5:
            return mkAcyclic(e2);
          default:
            return mkIrreflexive(e2);
        }
    }
    switch (rng() % 4) {
      case 0:
        return mkAnd(randomFormula(rng, rels, sets, depth - 1),
                     randomFormula(rng, rels, sets, depth - 1));
      case 1:
        return mkOr(randomFormula(rng, rels, sets, depth - 1),
                    randomFormula(rng, rels, sets, depth - 1));
      case 2:
        return mkNot(randomFormula(rng, rels, sets, depth - 1));
      default:
        return mkImplies(randomFormula(rng, rels, sets, depth - 1),
                         randomFormula(rng, rels, sets, depth - 1));
    }
}

class EncoderPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EncoderPropertyTest, SymbolicMatchesConcreteOnRandomFormulas)
{
    std::mt19937 rng(GetParam());
    size_t n = 3 + rng() % 3; // universe of 3..5 atoms

    Vocabulary vocab;
    std::vector<ExprPtr> rels = {vocab.declare("p", 2), vocab.declare("q", 2)};
    std::vector<ExprPtr> sets = {vocab.declare("A", 1), vocab.declare("B", 1)};

    sat::Solver solver;
    GateBuilder builder(solver);
    Encoder enc(vocab, n, builder);

    // A batch of random formulas encoded against one shared encoder.
    std::vector<FormulaPtr> formulas;
    std::vector<sat::Lit> indicators;
    for (int f = 0; f < 12; f++) {
        FormulaPtr formula = randomFormula(rng, rels, sets, 1 + rng() % 2);
        formulas.push_back(formula);
        indicators.push_back(builder.lower(enc.encodeFormula(formula)));
    }

    // Try several random instances; for each, pin the cells and compare
    // every formula's indicator literal against concrete evaluation.
    for (int trial = 0; trial < 10; trial++) {
        Instance inst(vocab, n);
        for (size_t id = 0; id < vocab.size(); id++) {
            if (vocab.decl(static_cast<int>(id)).arity == 1) {
                for (size_t i = 0; i < n; i++) {
                    if (rng() & 1)
                        inst.set(static_cast<int>(id)).set(i);
                }
            } else {
                for (size_t i = 0; i < n; i++) {
                    for (size_t j = 0; j < n; j++) {
                        if (rng() % 3 == 0)
                            inst.matrix(static_cast<int>(id)).set(i, j);
                    }
                }
            }
        }
        auto assumptions = pinInstance(vocab, enc, inst);
        ASSERT_EQ(solver.solve(assumptions), sat::SolveResult::Sat);
        for (size_t f = 0; f < formulas.size(); f++) {
            bool want = evalFormula(formulas[f], inst);
            bool got = solver.modelValue(indicators[f]);
            ASSERT_EQ(got, want)
                << "formula: " << formulas[f]->toString() << "\ninstance p:\n"
                << inst.matrix(0).toString();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncoderPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(RelSolverTest, FindsTotalOrders)
{
    // Count strict total orders over 4 atoms: must be 4! = 24.
    Vocabulary vocab;
    ExprPtr lt = vocab.declare("lt", 2);
    RelSolver solver(vocab, 4);
    solver.addFact(mkTotal(lt, mkUniv()));
    int count = 0;
    sat::SolveResult more = solver.solve();
    while (more == sat::SolveResult::Sat) {
        count++;
        ASSERT_LE(count, 24);
        EXPECT_TRUE(evalFormula(mkTotal(lt, mkUniv()), solver.instance()));
        solver.blockModel();
        more = solver.solve();
    }
    EXPECT_EQ(count, 24);
}

TEST(RelSolverTest, AcyclicSubsetEnumeration)
{
    // Over 3 atoms: acyclic relations that are subsets of a fixed cycle
    // {0->1,1->2,2->0}: all proper subsets, i.e. 2^3 - 1 = 7.
    Vocabulary vocab;
    ExprPtr r = vocab.declare("r", 2);
    BitMatrix cycle(3);
    cycle.set(0, 1);
    cycle.set(1, 2);
    cycle.set(2, 0);
    RelSolver solver(vocab, 3);
    solver.addFact(mkSubset(r, mkConst(cycle)));
    solver.addFact(mkAcyclic(r));
    int count = 0;
    sat::SolveResult more = solver.solve();
    while (more == sat::SolveResult::Sat) {
        count++;
        ASSERT_LE(count, 7);
        solver.blockModel();
        more = solver.solve();
    }
    EXPECT_EQ(count, 7);
}

TEST(RelSolverTest, UnsatisfiableFacts)
{
    Vocabulary vocab;
    ExprPtr r = vocab.declare("r", 2);
    RelSolver solver(vocab, 3);
    solver.addFact(mkSome(r));
    solver.addFact(mkNo(r));
    EXPECT_EQ(solver.solve(), sat::SolveResult::Unsat);
}

TEST(RelSolverTest, PartialBlockingEnumeratesProjections)
{
    // Two relations; block only on "a": the number of enumerated models
    // equals the number of distinct "a" values (2^4 over 2 atoms).
    Vocabulary vocab;
    vocab.declare("a", 2);
    vocab.declare("b", 2);
    RelSolver solver(vocab, 2);
    int count = 0;
    sat::SolveResult more = solver.solve();
    while (more == sat::SolveResult::Sat) {
        count++;
        ASSERT_LE(count, 16);
        solver.blockModel({0});
        more = solver.solve();
    }
    EXPECT_EQ(count, 16);
}

TEST(RelSolverTest, InstanceExtractionRoundTrips)
{
    Vocabulary vocab;
    ExprPtr r = vocab.declare("r", 2);
    ExprPtr s = vocab.declare("s", 1);
    BitMatrix want(3);
    want.set(0, 2);
    want.set(1, 1);
    Bitset wantSet(3);
    wantSet.set(2);
    RelSolver solver(vocab, 3);
    solver.addFact(mkEqual(r, mkConst(want)));
    solver.addFact(mkEqual(s, mkConst(wantSet)));
    ASSERT_EQ(solver.solve(), sat::SolveResult::Sat);
    EXPECT_EQ(solver.instance().matrix(0), want);
    EXPECT_EQ(solver.instance().set(1), wantSet);
}

} // namespace
} // namespace lts::rel
// Appended coverage: constructs absent from the random generators above.
namespace lts::rel
{
namespace
{

TEST(EncoderCoverageTest, TotalOrderSymbolicMatchesConcrete)
{
    std::mt19937 rng(4242);
    Vocabulary vocab;
    ExprPtr r = vocab.declare("r", 2);
    ExprPtr s = vocab.declare("s", 1);
    size_t n = 4;

    sat::Solver solver;
    GateBuilder builder(solver);
    Encoder enc(vocab, n, builder);
    FormulaPtr total = mkTotal(r, s);
    sat::Lit indicator = builder.lower(enc.encodeFormula(total));

    for (int trial = 0; trial < 200; trial++) {
        Instance inst(vocab, n);
        for (size_t i = 0; i < n; i++) {
            if (rng() & 1)
                inst.set(1).set(i);
            for (size_t j = 0; j < n; j++) {
                if (rng() % 3 == 0)
                    inst.matrix(0).set(i, j);
            }
        }
        std::vector<sat::Lit> assumptions;
        for (size_t i = 0; i < n; i++) {
            assumptions.push_back(
                sat::Lit(enc.cellVar(1, i), !inst.set(1).test(i)));
            for (size_t j = 0; j < n; j++) {
                assumptions.push_back(sat::Lit(
                    enc.cellVar(0, i, j), !inst.matrix(0).test(i, j)));
            }
        }
        ASSERT_EQ(solver.solve(assumptions), sat::SolveResult::Sat);
        ASSERT_EQ(solver.modelValue(indicator), evalFormula(total, inst))
            << "trial " << trial;
    }
}

TEST(EncoderCoverageTest, RClosureAndOneSymbolicMatchConcrete)
{
    std::mt19937 rng(777);
    Vocabulary vocab;
    ExprPtr r = vocab.declare("r", 2);
    size_t n = 4;

    sat::Solver solver;
    GateBuilder builder(solver);
    Encoder enc(vocab, n, builder);
    FormulaPtr f1 = mkEqual(mkRClosure(r), mkClosure(r) + mkIden());
    FormulaPtr f2 = mkOne(mkRanRestrict(r, mkJoin(r, mkUniv())));
    FormulaPtr f3 = mkSubset(mkJoin(mkUniv(), r), mkJoin(r, mkUniv())) ||
                    mkNo(r);
    sat::Lit l1 = builder.lower(enc.encodeFormula(f1));
    sat::Lit l2 = builder.lower(enc.encodeFormula(f2));
    sat::Lit l3 = builder.lower(enc.encodeFormula(f3));

    for (int trial = 0; trial < 200; trial++) {
        Instance inst(vocab, n);
        for (size_t i = 0; i < n; i++) {
            for (size_t j = 0; j < n; j++) {
                if (rng() % 3 == 0)
                    inst.matrix(0).set(i, j);
            }
        }
        std::vector<sat::Lit> assumptions;
        for (size_t i = 0; i < n; i++) {
            for (size_t j = 0; j < n; j++) {
                assumptions.push_back(sat::Lit(
                    enc.cellVar(0, i, j), !inst.matrix(0).test(i, j)));
            }
        }
        ASSERT_EQ(solver.solve(assumptions), sat::SolveResult::Sat);
        EXPECT_EQ(solver.modelValue(l1), evalFormula(f1, inst));
        EXPECT_EQ(solver.modelValue(l2), evalFormula(f2, inst));
        EXPECT_EQ(solver.modelValue(l3), evalFormula(f3, inst));
    }
}

TEST(EncoderCoverageTest, SolvingForATotalOrderOnASubset)
{
    // Ask the solver for a strict total order on a 2-element subset with
    // the rest untouched: count solutions = (choose the subset is fixed)
    // 2 orders.
    Vocabulary vocab;
    ExprPtr r = vocab.declare("r", 2);
    Bitset subset(3);
    subset.set(0);
    subset.set(2);
    RelSolver solver(vocab, 3);
    solver.addFact(mkTotal(r, mkConst(subset)));
    int count = 0;
    sat::SolveResult more = solver.solve();
    while (more == sat::SolveResult::Sat) {
        count++;
        ASSERT_LE(count, 2);
        solver.blockModel();
        more = solver.solve();
    }
    EXPECT_EQ(count, 2);
}

TEST(RelSolverFactTest, RetractableFactsLayerOverBase)
{
    // Base: r is a subset of a fixed 2-edge relation. Layers: "some r"
    // and "no r" are individually satisfiable over the base but clash.
    Vocabulary vocab;
    ExprPtr r = vocab.declare("r", 2);
    BitMatrix allowed(2);
    allowed.set(0, 1);
    allowed.set(1, 0);
    RelSolver solver(vocab, 2);
    solver.addBaseFact(mkSubset(r, mkConst(allowed)));

    FactHandle some = solver.addFact(mkSome(r));
    FactHandle none = solver.addFact(mkNo(r));

    ASSERT_EQ(solver.solveUnder({some}), sat::SolveResult::Sat);
    EXPECT_GT(solver.instance().matrix(0).count(), 0u);
    ASSERT_EQ(solver.solveUnder({none}), sat::SolveResult::Sat);
    EXPECT_EQ(solver.instance().matrix(0).count(), 0u);
    EXPECT_EQ(solver.solveUnder({some, none}), sat::SolveResult::Unsat);
    // solve() activates every live layer.
    EXPECT_EQ(solver.solve(), sat::SolveResult::Unsat);

    solver.retract(none);
    ASSERT_EQ(solver.solve(), sat::SolveResult::Sat);
    EXPECT_GT(solver.instance().matrix(0).count(), 0u);
}

TEST(RelSolverFactTest, GuardedBlockingClausesDieWithTheirLayer)
{
    // Enumerate all 3 non-empty subsets of a 2-edge relation under a
    // layer, retract it, re-layer the same fact: the count repeats,
    // proving the layer's blocking clauses were retired with it.
    Vocabulary vocab;
    ExprPtr r = vocab.declare("r", 2);
    BitMatrix allowed(2);
    allowed.set(0, 1);
    allowed.set(1, 0);
    RelSolver solver(vocab, 2);
    solver.addBaseFact(mkSubset(r, mkConst(allowed)));

    for (int round = 0; round < 2; round++) {
        FactHandle layer = solver.addFact(mkSome(r));
        int count = 0;
        sat::SolveResult res = solver.solveUnder({layer});
        while (res == sat::SolveResult::Sat) {
            count++;
            ASSERT_LE(count, 3);
            solver.blockModel({}, layer);
            res = solver.solveUnder({layer});
        }
        EXPECT_EQ(count, 3) << "round " << round;
        solver.retract(layer);
    }
}

TEST(RelSolverFactTest, FalseFactDeadensOnlyItsLayer)
{
    // A layer whose formula lowers to constant-false must make queries
    // under it Unsat without poisoning the solver for other layers.
    Vocabulary vocab;
    ExprPtr r = vocab.declare("r", 2);
    RelSolver solver(vocab, 2);
    FactHandle absurd = solver.addFact(mkFalse());
    FactHandle fine = solver.addFact(mkNo(r));
    EXPECT_EQ(solver.solveUnder({absurd}), sat::SolveResult::Unsat);
    EXPECT_EQ(solver.solveUnder({fine}), sat::SolveResult::Sat);
    solver.retract(absurd);
    EXPECT_EQ(solver.solve(), sat::SolveResult::Sat);
}

} // namespace
} // namespace lts::rel
