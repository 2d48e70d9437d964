/**
 * @file
 * Tests for the memory-model framework: vocabulary construction,
 * well-formedness, conversions, and the legality of the textbook
 * outcomes of the named litmus tests under each model.
 */

#include <gtest/gtest.h>

#include "litmus/test.hh"
#include "mm/convert.hh"
#include "mm/exprs.hh"
#include "mm/registry.hh"
#include "rel/eval.hh"

namespace lts::mm
{
namespace
{

using litmus::LitmusTest;
using litmus::MemOrder;
using litmus::Outcome;
using litmus::TestBuilder;

TEST(RegistryTest, AllModelsConstruct)
{
    for (const auto &name : modelNames()) {
        auto model = makeModel(name);
        EXPECT_EQ(model->name(), name);
        EXPECT_FALSE(model->axioms().empty()) << name;
        EXPECT_FALSE(model->relaxations().empty()) << name;
        EXPECT_GE(model->vocab().size(), 6u) << name;
    }
}

TEST(RegistryTest, UnknownModelThrows)
{
    EXPECT_THROW(makeModel("itanium"), std::out_of_range);
}

TEST(RegistryTest, AxiomLookup)
{
    auto tso = makeModel("tso");
    EXPECT_EQ(tso->axiom("causality").name, "causality");
    EXPECT_THROW(tso->axiom("nope"), std::out_of_range);
}

TEST(RegistryTest, SccFamilyDigestsArePinned)
{
    // scc, scc-strict and sscc share one builder; its fact, axiom and
    // relaxation order is part of each digest (and so of every store key).
    EXPECT_EQ(makeModel("scc")->digest(), "56f9a43476b12e50");
    EXPECT_EQ(makeModel("scc-strict")->digest(), "8afa8046d3911b32");
    EXPECT_EQ(makeModel("sscc")->digest(), "e988de151ffcb381");
}

TEST(RegistryTest, ApplicabilityTableMatchesPaper)
{
    auto table = applicabilityTable();
    ASSERT_EQ(table.size(), 10u); // the ten models of Table 2
    // Spot checks against Table 2.
    EXPECT_EQ(table[0].model.substr(0, 2), "SC");
    EXPECT_EQ(table[0].dmo, Applicability::No);
    EXPECT_EQ(table[2].model.substr(0, 5), "Power");
    EXPECT_EQ(table[2].rd, Applicability::Yes);
    EXPECT_EQ(table[6].model.substr(0, 3), "SCC");
    EXPECT_EQ(table[6].rd, Applicability::ThinAirOnly);
    EXPECT_EQ(table[7].ds, Applicability::Yes);  // HSA has scopes
    EXPECT_EQ(table[9].ds, Applicability::Yes);  // OpenCL has scopes
    int synthesizable = 0;
    for (const auto &row : table) {
        if (row.synthesizable)
            synthesizable++;
        EXPECT_EQ(row.ri, Applicability::Yes) << row.model;
    }
    EXPECT_EQ(synthesizable, 6);
}

TEST(ModelTest, StaticAndDynamicVarsPartitionVocabulary)
{
    for (const auto &name : modelNames()) {
        auto model = makeModel(name);
        auto s = model->staticVarIds();
        auto d = model->dynamicVarIds();
        EXPECT_EQ(s.size() + d.size(), model->vocab().size()) << name;
        // rf and co are always dynamic.
        EXPECT_GE(d.size(), 2u) << name;
    }
}

/** Build MP with the Figure 1 annotations and its forbidden outcome. */
LitmusTest
mpRelAcq()
{
    TestBuilder b;
    int t0 = b.newThread();
    b.write(t0, "x");
    int wf = b.write(t0, "y", MemOrder::Release);
    int t1 = b.newThread();
    int rf = b.read(t1, "y", MemOrder::Acquire);
    int rd = b.read(t1, "x");
    b.readsFrom(wf, rf);
    b.readsInitial(rd);
    return b.build("MP+rel+acq");
}

TEST(ConvertTest, RoundTripsThroughInstance)
{
    auto scc = makeModel("scc");
    LitmusTest mp = mpRelAcq();
    rel::Instance inst = toInstance(*scc, mp, mp.forbidden);
    LitmusTest back = fromInstance(*scc, inst);
    EXPECT_EQ(back.validate(), "");
    EXPECT_EQ(back.size(), mp.size());
    EXPECT_EQ(back.numThreads, mp.numThreads);
    EXPECT_EQ(back.numLocs, mp.numLocs);
    for (size_t i = 0; i < mp.size(); i++) {
        EXPECT_EQ(back.events[i].type, mp.events[i].type);
        EXPECT_EQ(back.events[i].order, mp.events[i].order);
        EXPECT_EQ(back.events[i].loc, mp.events[i].loc);
        EXPECT_EQ(back.events[i].tid, mp.events[i].tid);
    }
    EXPECT_EQ(back.forbidden.rf, mp.forbidden.rf);
    EXPECT_EQ(back.forbidden.co, mp.forbidden.co);
}

TEST(ConvertTest, WellFormedAcceptsConvertedTests)
{
    auto scc = makeModel("scc");
    LitmusTest mp = mpRelAcq();
    rel::Instance inst = toInstance(*scc, mp, mp.forbidden);
    EXPECT_TRUE(
        rel::evalFormula(scc->wellFormed(mp.size()), inst));
}

TEST(ConvertTest, RejectsUnsupportedFeatures)
{
    auto tso = makeModel("tso");
    // Annotations are not part of TSO's vocabulary.
    EXPECT_THROW(toInstance(*tso, mpRelAcq(), mpRelAcq().forbidden),
                 std::invalid_argument);

    // Dependencies are not part of TSO.
    TestBuilder b;
    int t0 = b.newThread();
    int r = b.read(t0, "x");
    int w = b.write(t0, "y");
    b.dataDepend(r, w);
    LitmusTest t = b.build("deps");
    EXPECT_THROW(toInstance(*tso, t, Outcome(t.size())),
                 std::invalid_argument);

    // Fences do not exist under SC.
    auto sc = makeModel("sc");
    TestBuilder b2;
    int u0 = b2.newThread();
    b2.fence(u0, MemOrder::Plain);
    b2.write(u0, "x");
    LitmusTest t2 = b2.build("fence");
    EXPECT_THROW(toInstance(*sc, t2, Outcome(t2.size())),
                 std::invalid_argument);
}

TEST(ConvertTest, ConsumeIsRejectedWithGuidance)
{
    auto c11 = makeModel("c11");
    TestBuilder b;
    int t0 = b.newThread();
    b.read(t0, "x", MemOrder::Consume);
    LitmusTest t = b.build("consume");
    EXPECT_THROW(toInstance(*c11, t, Outcome(t.size())),
                 std::invalid_argument);
}

TEST(WellFormedTest, RejectsBrokenInstances)
{
    auto tso = makeModel("tso");
    LitmusTest mp = mpRelAcq();
    // Strip annotations so TSO accepts the shape.
    for (auto &e : mp.events)
        e.order = MemOrder::Plain;

    {
        // rf edge between different locations.
        rel::Instance inst = toInstance(*tso, mp, mp.forbidden);
        inst.matrix(tso->vocab().find(kRf).id).set(0, 2); // W[x] -> R[y]
        EXPECT_FALSE(rel::evalFormula(tso->wellFormed(mp.size()), inst));
    }
    {
        // Read with two rf sources.
        rel::Instance inst = toInstance(*tso, mp, mp.forbidden);
        inst.matrix(tso->vocab().find(kRf).id).set(0, 3);
        inst.matrix(tso->vocab().find(kRf).id).set(1, 3);
        EXPECT_FALSE(rel::evalFormula(tso->wellFormed(mp.size()), inst));
    }
    {
        // Missing co ordering between same-location writes.
        TestBuilder b;
        int t0 = b.newThread();
        b.write(t0, "x");
        int t1 = b.newThread();
        b.write(t1, "x");
        LitmusTest ww = b.build("ww");
        rel::Instance inst = toInstance(*tso, ww, Outcome(ww.size()));
        EXPECT_FALSE(rel::evalFormula(tso->wellFormed(ww.size()), inst));
        inst.matrix(tso->vocab().find(kCo).id).set(0, 1);
        EXPECT_TRUE(rel::evalFormula(tso->wellFormed(ww.size()), inst));
    }
}

TEST(WellFormedTest, ConvexityBreaksSymmetricThreadLayouts)
{
    // A hand-built instance with interleaved thread blocks (atom 0 and 2
    // in one thread, atom 1 in another) must be rejected.
    auto sc = makeModel("sc");
    rel::Instance inst(sc->vocab(), 3);
    inst.set(sc->vocab().find(kW).id).set(0);
    inst.set(sc->vocab().find(kW).id).set(1);
    inst.set(sc->vocab().find(kW).id).set(2);
    auto &po = inst.matrix(sc->vocab().find(kPo).id);
    po.set(0, 2); // same thread: 0 and 2, skipping 1
    auto &sloc = inst.matrix(sc->vocab().find(kSloc).id);
    for (int i = 0; i < 3; i++)
        sloc.set(i, i);
    // co must order same-location writes; give each its own location.
    EXPECT_FALSE(rel::evalFormula(sc->wellFormed(3), inst));
    // Making them contiguous (0,1 same thread) is accepted.
    po.set(0, 2, false);
    po.set(0, 1);
    EXPECT_TRUE(rel::evalFormula(sc->wellFormed(3), inst));
}

// --- Named-test legality per model (the paper's running examples) ---------

TEST(TsoSemanticsTest, TsoPermitsSbButScForbidsIt)
{
    TestBuilder b;
    int t0 = b.newThread();
    b.write(t0, "x");
    int r0 = b.read(t0, "y");
    int t1 = b.newThread();
    b.write(t1, "y");
    int r1 = b.read(t1, "x");
    b.readsInitial(r0);
    b.readsInitial(r1);
    LitmusTest sb = b.build("SB");

    auto tso = makeModel("tso");
    auto sc = makeModel("sc");
    rel::Instance tso_inst = toInstance(*tso, sb, sb.forbidden);
    rel::Instance sc_inst = toInstance(*sc, sb, sb.forbidden);
    EXPECT_TRUE(rel::evalFormula(tso->allAxioms(tso->base(), sb.size()),
                                 tso_inst));
    EXPECT_FALSE(
        rel::evalFormula(sc->allAxioms(sc->base(), sb.size()), sc_inst));
}

TEST(SccSemanticsTest, Figure1OutcomeForbiddenWithAnnotations)
{
    auto scc = makeModel("scc");
    LitmusTest mp = mpRelAcq();
    rel::Instance inst = toInstance(*scc, mp, mp.forbidden);
    EXPECT_FALSE(
        rel::evalFormula(scc->allAxioms(scc->base(), mp.size()), inst));
}

TEST(SccSemanticsTest, PlainMpOutcomeAllowed)
{
    auto scc = makeModel("scc");
    LitmusTest mp = mpRelAcq();
    for (auto &e : mp.events)
        e.order = MemOrder::Plain;
    rel::Instance inst = toInstance(*scc, mp, mp.forbidden);
    EXPECT_TRUE(
        rel::evalFormula(scc->allAxioms(scc->base(), mp.size()), inst));
}

TEST(C11SemanticsTest, ReleaseAcquireForbidsMpOutcome)
{
    auto c11 = makeModel("c11");
    LitmusTest mp = mpRelAcq();
    rel::Instance inst = toInstance(*c11, mp, mp.forbidden);
    EXPECT_FALSE(
        rel::evalFormula(c11->allAxioms(c11->base(), mp.size()), inst));

    for (auto &e : mp.events)
        e.order = MemOrder::Plain;
    rel::Instance relaxed = toInstance(*c11, mp, mp.forbidden);
    EXPECT_TRUE(
        rel::evalFormula(c11->allAxioms(c11->base(), mp.size()), relaxed));
}

TEST(RelaxationTest, NamesAndTags)
{
    EXPECT_EQ(toString(RTag::RI), "RI");
    EXPECT_EQ(toString(RTag::DMO), "DMO");
    EXPECT_EQ(toString(RTag::DS), "DS");
    auto scc = makeModel("scc");
    bool has_dmo = false;
    for (const auto &r : scc->relaxations()) {
        if (r.tag == RTag::DMO)
            has_dmo = true;
    }
    EXPECT_TRUE(has_dmo);
}

TEST(RelaxationTest, RIPerturbationMasksEverything)
{
    auto tso = makeModel("tso");
    LitmusTest mp = mpRelAcq();
    for (auto &e : mp.events)
        e.order = MemOrder::Plain;
    rel::Instance inst = toInstance(*tso, mp, mp.forbidden);

    const Relaxation *ri = nullptr;
    for (const auto &r : tso->relaxations()) {
        if (r.tag == RTag::RI)
            ri = &r;
    }
    ASSERT_NE(ri, nullptr);
    // Remove event 1 (the flag write): rf to the flag read disappears.
    Env perturbed = ri->perturb(tso->base(), singleton(1, mp.size()),
                                mp.size());
    BitMatrix rf = rel::evalMatrix(perturbed.get(kRf), inst);
    EXPECT_EQ(rf.count(), 0u);
    Bitset w = rel::evalSet(perturbed.get(kW), inst);
    EXPECT_FALSE(w.test(1));
    EXPECT_TRUE(w.test(0));
    // po among the survivors is untouched.
    BitMatrix po = rel::evalMatrix(perturbed.get(kPo), inst);
    EXPECT_TRUE(po.test(2, 3));
    EXPECT_FALSE(po.test(0, 1));
}

TEST(RelaxationTest, CoMaskRepairsTransitiveChain)
{
    // Three same-location writes in co order 0 -> 1 -> 2 stored as a
    // non-transitive chain: masking out the middle write must keep
    // 0 -> 2 (Figure 8).
    auto tso = makeModel("tso");
    TestBuilder b;
    int t0 = b.newThread();
    b.write(t0, "x");
    b.write(t0, "x");
    int t1 = b.newThread();
    b.write(t1, "x");
    LitmusTest www = b.build("www");
    rel::Instance inst = toInstance(*tso, www, Outcome(www.size()));
    auto &co = inst.matrix(tso->vocab().find(kCo).id);
    co.set(0, 1);
    co.set(1, 2); // deliberately not transitively closed

    const Relaxation *ri = nullptr;
    for (const auto &r : tso->relaxations()) {
        if (r.tag == RTag::RI)
            ri = &r;
    }
    Env perturbed = ri->perturb(tso->base(), singleton(1, 3), 3);
    BitMatrix masked = rel::evalMatrix(perturbed.get(kCo), inst);
    EXPECT_TRUE(masked.test(0, 2));
    EXPECT_FALSE(masked.test(0, 1));
    EXPECT_FALSE(masked.test(1, 2));
}

TEST(RelaxationTest, DemoteMovesAnnotation)
{
    auto scc = makeModel("scc");
    LitmusTest mp = mpRelAcq();
    rel::Instance inst = toInstance(*scc, mp, mp.forbidden);

    const Relaxation *dmo = nullptr;
    for (const auto &r : scc->relaxations()) {
        if (r.name == "DMO(acq->rlx)")
            dmo = &r;
    }
    ASSERT_NE(dmo, nullptr);
    // Applies to the acquire load (event 2), not to the plain load.
    EXPECT_TRUE(rel::evalFormula(
        dmo->applies(scc->base(), singleton(2, 4), 4), inst));
    EXPECT_FALSE(rel::evalFormula(
        dmo->applies(scc->base(), singleton(3, 4), 4), inst));

    Env perturbed = dmo->perturb(scc->base(), singleton(2, 4), 4);
    Bitset acq = rel::evalSet(perturbed.get(kAcq), inst);
    EXPECT_FALSE(acq.test(2));
}

} // namespace
} // namespace lts::mm
