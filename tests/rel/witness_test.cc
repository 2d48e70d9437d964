/**
 * @file
 * Witness resolution on a real model encoding: the synthesizer's
 * per-instance load of tiny assumption solves. pinAndMinimize's lex walk
 * extends its assumption vector one literal at a time, so the solver
 * must reuse the kept assumption levels across those solves, and the
 * instance extraction reads only frozen cell variables, so no Sat answer
 * may pay for replaying the elimination stack. Reuse must not change
 * the witness: it stays a pure function of the pin, equal to what a
 * fresh solver computes.
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

} // namespace
} // namespace lts::rel
