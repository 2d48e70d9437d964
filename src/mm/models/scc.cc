/**
 * @file
 * Streamlined Causal Consistency (SCC), the model the paper introduces in
 * Section 6.3 (Figure 17), including the lone-sc workaround of Figure 19.
 *
 *     pred scc {
 *       acyclic[rf + co + fr + po_loc]      // SC per Location
 *       acyclic[rf + dep]                   // No Thin-Air values
 *       no fr.co & rmw                      // RMW Atomicity
 *       irreflexive[*(rf + co + fr).^cause] // Causality
 *     }
 *     prefix = iden + (Fence <: po) + (Release <: po_loc)
 *     suffix = iden + (po :> Fence) + (po_loc :> Acquire)
 *     sync   = Releasers <: prefix.^(rf+rmw).suffix :> Acquirers
 *     cause  = *po.(sc + sync).*po
 *
 * The sc relation is a total order over FenceSC instructions. Because sc
 * is an auxiliary execution relation, the Figure 5c phrasing of the
 * minimality criterion would under-approximate (the SB discussion of
 * Figure 18); the model therefore constrains tests to at most one sc edge
 * and checks relaxed executions against causality_wa (Figure 19), which
 * also tries the reversed sc edge.
 *
 * Scoped SCC ("sscc") extends SCC with OpenCL/HSA-style synchronization
 * scopes, standing in for the scoped models of Table 2 (HSA, OpenCL) so
 * the DS (demote scope) relaxation is exercised end to end. Threads are
 * grouped into workgroups (the swg equivalence). Every synchronizing
 * operation (acquire read, release write, fence) carries a scope:
 * workgroup or system. A release-acquire synchronization edge takes
 * effect only when both endpoints' scopes cover their distance —
 * same-workgroup pairs synchronize at any scope, cross-workgroup pairs
 * only when both ends are system-scoped (the "too narrow scope is
 * insufficient" behavior of Section 3.2's DS discussion). FenceSC is
 * always system-scoped. Everything else is SCC, including the lone-sc
 * workaround.
 */

#include "mm/exprs.hh"
#include "mm/models.hh"

namespace lts::mm
{

using namespace rel;

namespace
{

/** SCC sync; @p scoped gates it by scope coverage (sscc). */
ExprPtr
sccSync(const Env &env, bool scoped)
{
    ExprPtr f = env.get(kF);
    ExprPtr acq = env.get(kAcq);
    ExprPtr rel_set = env.get(kRel);
    ExprPtr po = env.get(kPo);

    ExprPtr prefix = mkIden() + mkDomRestrict(f, po) +
                     mkDomRestrict(rel_set, poLoc(env));
    ExprPtr suffix = mkIden() + mkRanRestrict(po, f) +
                     mkRanRestrict(poLoc(env), acq);
    ExprPtr chain = mkClosure(env.get(kRf) + env.get(kRmw));
    ExprPtr releasers = rel_set + f;
    ExprPtr acquirers = acq + f;
    ExprPtr sync = mkRanRestrict(
        mkDomRestrict(releasers, mkJoin(prefix, mkJoin(chain, suffix))),
        acquirers);
    if (!scoped)
        return sync;

    // Coverage: same workgroup, or both endpoints system-scoped.
    ExprPtr s_sys = env.get(kScopeSys);
    ExprPtr covered = env.get(kSameWg) + mkProduct(s_sys, s_sys);
    return sync & covered;
}

/** cause with the given sc edge orientation. */
ExprPtr
sccCause(const Env &env, const ExprPtr &sc, bool scoped)
{
    ExprPtr po_star = mkRClosure(env.get(kPo));
    return mkJoin(po_star, mkJoin(sc + sccSync(env, scoped), po_star));
}

FormulaPtr
sccCausality(const Env &env, const ExprPtr &sc, bool scoped)
{
    return mkIrreflexive(
        mkJoin(mkRClosure(com(env)), mkClosure(sccCause(env, sc, scoped))));
}

/**
 * The one builder behind scc, scc-strict and sscc. @p workaround turns
 * on the Figure 19 relaxed causality check; @p scoped adds sscc's
 * scopes, its scope-gated sync and the DS relaxation.
 */
std::unique_ptr<Model>
makeSccImpl(bool workaround, bool scoped)
{
    ModelFeatures feats;
    feats.fences = true;
    feats.deps = true; // used by no_thin_air only
    feats.rmw = true;
    feats.acqRelAccess = true; // Acquire reads, Release writes
    feats.acqRelFence = true;  // FenceAcqRel
    feats.scFence = true;      // FenceSC
    feats.scOrder = true;      // explicit sc total order (lone, Figure 19)
    feats.scopes = scoped;

    auto model = std::make_unique<Model>(
        scoped ? "sscc" : workaround ? "scc" : "scc-strict", feats);

    // SCC annotations: acquires are reads, releases are writes (the
    // ARMv8-like opcodes of Figure 17), fences are AcqRel or SC.
    model->addExtraFact(
        scoped ? "sscc.annotation-carriers" : "scc.annotation-carriers",
        [scoped](const Model &, const Env &env, size_t) {
        std::vector<FormulaPtr> carriers = {
            mkSubset(env.get(kAcq), env.get(kR)),
            mkSubset(env.get(kRel), env.get(kW)),
            mkSubset(env.get(kF), env.get(kAcqRel) + env.get(kSc)),
        };
        if (scoped) {
            // FenceSC is inherently system-scoped.
            carriers.push_back(
                mkSubset(env.get(kF) & env.get(kSc), env.get(kScopeSys)));
        }
        return mkAndAll(carriers);
    });

    model->addAxiom(Axiom{
        "sc_per_loc",
        [](const Model &, const Env &env, size_t) {
            return mkAcyclic(com(env) + poLoc(env));
        },
        nullptr,
    });
    model->addAxiom(Axiom{
        "no_thin_air",
        [](const Model &, const Env &env, size_t) {
            ExprPtr dep =
                env.get(kAddr) + env.get(kData) + env.get(kCtrl);
            return mkAcyclic(env.get(kRf) + dep);
        },
        nullptr,
    });
    model->addAxiom(Axiom{
        "rmw_atomicity",
        [](const Model &, const Env &env, size_t) {
            return mkNo(mkJoin(fr(env), env.get(kCo)) & env.get(kRmw));
        },
        nullptr,
    });
    Axiom causality;
    causality.name = "causality";
    causality.pred = [scoped](const Model &, const Env &env, size_t) {
        return sccCausality(env, env.get(kScOrd), scoped);
    };
    if (workaround) {
        // Figure 19: when checking relaxed executions, also accept the
        // reversed sc edge, emulating enumeration over sc orders.
        causality.relaxedPred = [scoped](const Model &, const Env &env,
                                         size_t) {
            return sccCausality(env, env.get(kScOrd), scoped) ||
                   sccCausality(env, mkTranspose(env.get(kScOrd)), scoped);
        };
    }
    model->addAxiom(std::move(causality));

    model->addRelaxation(makeRI());
    model->addRelaxation(makeRD());
    model->addRelaxation(makeDRMW());
    model->addRelaxation(
        makeDemote(RTag::DMO, "DMO(acq->rlx)", kAcq, std::nullopt, kR));
    model->addRelaxation(
        makeDemote(RTag::DMO, "DMO(rel->rlx)", kRel, std::nullopt, kW));
    // FenceSC -> FenceAcqRel also drops the fence's sc edges.
    {
        Relaxation df = makeDemote(RTag::DF, "DF(sc->ar)", kSc, kAcqRel, kF);
        auto base_perturb = df.perturb;
        df.perturb = [base_perturb](const Env &env, const ExprPtr &ev,
                                    size_t n) {
            Env out = base_perturb(env, ev, n);
            ExprPtr keep = mkUniv() - ev;
            out.set(kScOrd, mkRanRestrict(
                                mkDomRestrict(keep, env.get(kScOrd)), keep));
            return out;
        };
        model->addRelaxation(df);
    }
    model->addRelaxation(
        makeDemote(RTag::DF, "DF(ar->rlx)", kAcqRel, std::nullopt, kF));

    if (scoped) {
        // DS: narrow a system-scoped synchronizing op to workgroup scope.
        // FenceSC is excluded (pinned to system scope by the facts above).
        Relaxation ds;
        ds.tag = RTag::DS;
        ds.name = "DS(sys->wg)";
        ds.applies = [](const Env &env, const ExprPtr &ev, size_t) {
            ExprPtr fence_sc = env.get(kF) & env.get(kSc);
            return mkSome((ev & env.get(kScopeSys)) - fence_sc);
        };
        ds.perturb = [](const Env &env, const ExprPtr &ev, size_t) {
            Env out = env;
            out.set(kScopeSys, env.get(kScopeSys) - ev);
            out.set(kScopeWg, env.get(kScopeWg) + ev);
            return out;
        };
        model->addRelaxation(ds);
    }
    return model;
}

} // namespace

std::unique_ptr<Model>
makeScc()
{
    return makeSccImpl(true, false);
}

std::unique_ptr<Model>
makeSccStrict()
{
    return makeSccImpl(false, false);
}

std::unique_ptr<Model>
makeScopedScc()
{
    return makeSccImpl(true, true);
}

} // namespace lts::mm
