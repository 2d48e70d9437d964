/**
 * @file
 * Witness resolution on a real model encoding: the synthesizer's
 * per-instance load of tiny assumption solves. pinAndMinimize's lex walk
 * extends its assumption vector one literal at a time, so the solver
 * must reuse the kept assumption levels across those solves, and the
 * instance extraction reads only frozen cell variables, so no Sat answer
 * may pay for replaying the elimination stack. Reuse must not change
 * the witness: it stays a pure function of the pin, equal to what a
 * fresh solver computes. The walk runs on a private clone of the
 * solver, so the clone must follow every change to what it copied: a
 * stale one would resolve a different witness.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mm/registry.hh"
#include "rel/encoder.hh"

namespace lts::rel
{
namespace
{

TEST(RelWitnessTest, SbpEnumerationReusesLevelsWithoutModelReplays)
{
    auto model = mm::makeModel("scc");
    const size_t n = 3;
    FormulaPtr base = model->wellFormed(n);
    FormulaPtr violation =
        mkNot(model->axioms().front().pred(*model, model->base(), n));
    std::vector<int> static_ids = model->staticVarIds();

    RelSolver solver(model->vocab(), n);
    solver.addBaseFact(base);
    ASSERT_TRUE(solver.simplifyBase());
    ASSERT_GT(solver.satSolver().stats().eliminatedVars, 0u);
    SymmetrySpec spec = model->symmetrySpec(n);
    ASSERT_FALSE(spec.empty());
    solver.addSymmetryBreaking(spec);
    FactHandle layer = solver.addFact(violation);
    FactHandle blocks = solver.newLayer();

    int instances = 0, checked = 0;
    sat::SolveResult res = solver.solve();
    while (res == sat::SolveResult::Sat) {
        instances++;
        Instance found = solver.instance();
        solver.blockModel(static_ids, blocks);
        uint64_t solves = solver.satSolver().stats().solves;
        ASSERT_TRUE(solver.pinAndMinimize(found, static_ids, {layer}));
        Instance witness = solver.instance();
        EXPECT_GT(solver.satSolver().stats().solves, solves);

        // The first few witnesses against a fresh, unsimplified solver
        // that solves the same pin from level 0.
        if (checked < 8) {
            checked++;
            RelSolver fresh(model->vocab(), n);
            fresh.addBaseFact(base);
            FactHandle fresh_layer = fresh.addFact(violation);
            ASSERT_TRUE(fresh.pinAndMinimize(found, static_ids, {fresh_layer}));
            for (size_t id = 0; id < model->vocab().size(); id++) {
                const VarDecl &d = model->vocab().decl(static_cast<int>(id));
                if (d.arity == 1)
                    EXPECT_EQ(witness.set(d.id), fresh.instance().set(d.id));
                else
                    EXPECT_EQ(witness.matrix(d.id),
                              fresh.instance().matrix(d.id));
            }
        }
        res = solver.solve();
    }
    ASSERT_EQ(res, sat::SolveResult::Unsat);
    ASSERT_GT(instances, 0);

    const sat::SolverStats &stats = solver.satSolver().stats();
    EXPECT_GT(stats.keptLevels, 0u);
#ifdef NDEBUG
    EXPECT_EQ(stats.modelReplays, 0u);
#else
    // Builds with assertions model-check every Sat answer inside
    // solve(), which settles each replay eagerly.
    EXPECT_GT(stats.modelReplays, 0u);
#endif
}

/** Whether @p a and @p b agree on every declared relation. */
bool
sameInstance(const Vocabulary &vocab, const Instance &a, const Instance &b)
{
    for (size_t id = 0; id < vocab.size(); id++) {
        const VarDecl &d = vocab.decl(static_cast<int>(id));
        if (d.arity == 1 ? a.set(d.id) != b.set(d.id)
                         : a.matrix(d.id) != b.matrix(d.id))
            return false;
    }
    return true;
}

/**
 * Witness resolution on one scc encoding at n = 3: the well-formedness
 * base, the violation of each of two axioms, and pins (programs)
 * enumerated under each.
 */
class RelWitnessCloneTest : public ::testing::Test
{
  protected:
    static constexpr size_t n = 3;

    RelWitnessCloneTest()
        : model(mm::makeModel("scc")), base(model->wellFormed(n)),
          staticIds(model->staticVarIds())
    {
        for (const char *name : {"causality", "sc_per_loc"}) {
            for (const mm::Axiom &axiom : model->axioms()) {
                if (axiom.name == name)
                    violations.push_back(
                        mkNot(axiom.pred(*model, model->base(), n)));
            }
        }
    }

    /** Up to @p count instances of the base and violation @p v, one per
     *  program, in enumeration order. */
    std::vector<Instance>
    pins(size_t v, size_t count) const
    {
        RelSolver solver(model->vocab(), n);
        solver.addBaseFact(base);
        FactHandle layer = solver.addFact(violations[v]);
        std::vector<Instance> out;
        while (out.size() < count && solver.solveUnder({layer}) ==
                                         sat::SolveResult::Sat) {
            out.push_back(solver.instance());
            solver.blockModel(staticIds);
        }
        return out;
    }

    /** The witness of @p pin on a fresh solver: the base, the given
     *  violations as its layers and @p blocked excluded permanently.
     *  False when the pinned program has no witness there. */
    bool
    fresh(const Instance &pin, const std::vector<size_t> &vs,
          Instance &out, const std::vector<Instance> &blocked = {}) const
    {
        RelSolver solver(model->vocab(), n);
        solver.addBaseFact(base);
        std::vector<FactHandle> layers;
        for (size_t v : vs)
            layers.push_back(solver.addFact(violations[v]));
        for (const Instance &b : blocked)
            solver.blockInstance(b);
        if (!solver.pinAndMinimize(pin, staticIds, layers))
            return false;
        out = solver.instance();
        return true;
    }

    /** A simplified solver over the base, as the synthesizer builds. */
    std::unique_ptr<RelSolver>
    simplified() const
    {
        auto solver = std::make_unique<RelSolver>(model->vocab(), n);
        solver->addBaseFact(base);
        EXPECT_TRUE(solver->simplifyBase());
        return solver;
    }

    bool
    same(const Instance &a, const Instance &b) const
    {
        return sameInstance(model->vocab(), a, b);
    }

    std::unique_ptr<mm::Model> model;
    FormulaPtr base;
    std::vector<int> staticIds;
    std::vector<FormulaPtr> violations;
};

TEST_F(RelWitnessCloneTest, RetractFreesTheCloneAndNewGatesRebuildIt)
{
    ASSERT_EQ(violations.size(), 2u);
    // A causality program whose witness the bare base would resolve
    // differently, so a clone that missed the new layer shows.
    Instance pin_b, want_b, base_only;
    for (const Instance &p : pins(0, 20)) {
        ASSERT_TRUE(fresh(p, {0}, want_b));
        ASSERT_TRUE(fresh(p, {}, base_only));
        if (!same(want_b, base_only)) {
            pin_b = p;
            break;
        }
    }
    ASSERT_FALSE(same(want_b, base_only)) << "no discriminating program";
    Instance pin_a = pins(1, 1).at(0), want_a, want_base;
    ASSERT_TRUE(fresh(pin_a, {1}, want_a));
    ASSERT_TRUE(fresh(pin_b, {}, want_base));

    auto solver = simplified();
    FactHandle a = solver->addFact(violations[1]);
    EXPECT_EQ(solver->witnessSolver(), nullptr);
    ASSERT_TRUE(solver->pinAndMinimize(pin_a, staticIds, {a}));
    EXPECT_TRUE(same(solver->instance(), want_a));
    EXPECT_NE(solver->witnessSolver(), nullptr);
    solver->retract(a);
    EXPECT_EQ(solver->witnessSolver(), nullptr);

    // A clone over the base alone, then a layer with gates of its own.
    ASSERT_TRUE(solver->pinAndMinimize(pin_b, staticIds, {}));
    EXPECT_TRUE(same(solver->instance(), want_base));
    FactHandle b = solver->addFact(violations[0]);
    ASSERT_TRUE(solver->pinAndMinimize(pin_b, staticIds, {b}));
    EXPECT_TRUE(same(solver->instance(), want_b));
}

TEST_F(RelWitnessCloneTest, PermanentBlockRebuildsTheClone)
{
    // A program with a second witness once its first is blocked.
    Instance pin, first, second;
    bool found = false;
    for (const Instance &p : pins(0, 40)) {
        ASSERT_TRUE(fresh(p, {0}, first));
        if (fresh(p, {0}, second, {first})) {
            pin = p;
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "no program with two witnesses";

    auto solver = simplified();
    FactHandle a = solver->addFact(violations[0]);
    ASSERT_TRUE(solver->pinAndMinimize(pin, staticIds, {a}));
    EXPECT_TRUE(same(solver->instance(), first));
    solver->blockInstance(solver->instance(), {}, kNoFact);
    ASSERT_TRUE(solver->pinAndMinimize(pin, staticIds, {a}));
    EXPECT_TRUE(same(solver->instance(), second));
}

TEST_F(RelWitnessCloneTest, EmptyLayerListSeesOnlyTheBase)
{
    // A program whose witness needs the violation layer: a clone kept
    // from the layered call would resolve it differently.
    Instance pin, layered, bare;
    bool found = false;
    for (const Instance &p : pins(0, 20)) {
        ASSERT_TRUE(fresh(p, {0}, layered));
        ASSERT_TRUE(fresh(p, {}, bare));
        if (!same(layered, bare)) {
            pin = p;
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "no discriminating program";

    auto solver = simplified();
    FactHandle a = solver->addFact(violations[0]);
    ASSERT_TRUE(solver->pinAndMinimize(pin, staticIds, {a}));
    EXPECT_TRUE(same(solver->instance(), layered));
    ASSERT_TRUE(solver->pinAndMinimize(pin, staticIds, {}));
    EXPECT_TRUE(same(solver->instance(), bare));
}

TEST_F(RelWitnessCloneTest, BudgetCutWalkFails)
{
    // A lex-walk step the budget cuts proves nothing about its cell;
    // taking the cell as forced would return a non-minimal witness.
    // Under every budget pinAndMinimize fails or returns the witness.
    size_t cut = 0;
    for (const Instance &pin : pins(0, 12)) {
        RelSolver probe(model->vocab(), n);
        probe.addBaseFact(base);
        FactHandle layer = probe.addFact(violations[0]);
        ASSERT_TRUE(probe.pinAndMinimize(pin, staticIds, {layer}));
        Instance want = probe.instance();
        uint64_t conflicts = probe.satSolver().stats().conflicts;
        for (uint64_t budget = 1; budget <= conflicts; budget++) {
            RelSolver solver(model->vocab(), n);
            solver.addBaseFact(base);
            FactHandle l = solver.addFact(violations[0]);
            solver.satSolver().setConflictBudget(budget);
            if (solver.pinAndMinimize(pin, staticIds, {l}))
                EXPECT_TRUE(same(solver.instance(), want))
                    << "budget " << budget << " of " << conflicts;
            else
                cut++;
        }
    }
    EXPECT_GT(cut, 0u);
}

} // namespace
} // namespace lts::rel
