/**
 * @file
 * The solver's SatELite-style preprocessing pass (Solver::simplify).
 * It runs three classic CNF simplifications over an occurrence-list
 * index of the live problem clauses:
 *
 *  - backward subsumption: a clause C deletes every clause D with C ⊆ D;
 *  - self-subsuming resolution: when C subsumes D except for one literal
 *    that appears flipped, that literal is removed from D (strengthening);
 *  - bounded variable elimination (BVE): a variable v whose full
 *    resolvent set is no larger than the clauses it replaces is
 *    eliminated by distribution (Davis-Putnam), and its clauses move to
 *    an extension stack used to reconstruct v's value in later models.
 *
 * The pass is guarded by the solver's *frozen-variable protocol*:
 * variables the outside world refers to — relation-tuple cell variables,
 * activation-group selectors, anything the caller may later assume, pin,
 * or read back — must be frozen (Solver::setFrozen) and are never
 * eliminated. Pure Tseitin internals stay eliminable; the first read of
 * an eliminated variable after a Sat answer replays the extension stack,
 * so modelValue() is total and checkModel() also verifies the eliminated
 * clauses. Implemented as a friend class so the pass can manipulate the
 * solver's clause store and watches directly.
 *
 * Scope rules:
 *  - learnt clauses are purged up front (they are re-derivable, and
 *    keeping them would let an elimination candidate linger in a clause
 *    the pass does not rewrite);
 *  - grouped clauses are left completely untouched and every variable
 *    occurring in one is exempt from elimination, so retractable layers
 *    survive the pass bit-for-bit;
 *  - frozen variables (relation cells, group selectors, anything the
 *    caller assumes or reads back) are never eliminated.
 *
 * Determinism: clauses are visited in index order, variables in
 * ascending order, occurrence lists in registration order, and no
 * unordered container is ever iterated — two solvers holding the same
 * clauses simplify into bit-identical clause stores. The suite
 * byte-identity guarantee depends on this.
 */

#include <algorithm>
#include <cassert>

#include "sat/solver.hh"

namespace lts::sat
{

namespace
{

/**
 * BVE skips a variable with more occurrences than this: the resolvent
 * check alone would be quadratic in the list lengths.
 */
constexpr size_t kMaxOccurrences = 30;

/** BVE never creates a resolvent longer than this many literals. */
constexpr size_t kMaxResolventLits = 20;

} // namespace

class Simplifier
{
  public:
    explicit Simplifier(Solver &solver) : s(solver) {}

    bool run();

  private:
    using ClauseRef = Solver::ClauseRef;

    /** Outcome of a pairwise subsumption check. */
    enum class SubsumeResult
    {
        No,
        Subsumes,   ///< C ⊆ D: D is redundant
        Strengthens ///< C ⊆ D except one flipped literal: remove it from D
    };

    void purgeLearnts();
    void collectGroupScope();
    void buildIndex();
    void registerClause(ClauseRef cref);
    void removeIndexed(ClauseRef cref);
    void touch(ClauseRef cref);
    void enqueueSubsumption(ClauseRef cref);
    int addOrEnqueue(std::vector<Lit> lits, bool log_add = true);
    void processTrail();
    void drainSubsumption();
    void backwardSubsume(ClauseRef cref);
    SubsumeResult subsumeCheck(std::span<const Lit> c, std::span<const Lit> d,
                               Lit &flip) const;
    void strengthenClause(ClauseRef cref, Lit drop);
    bool bveSweep();
    bool tryEliminate(Var v);

    static uint64_t
    signature(std::span<const Lit> lits)
    {
        uint64_t sig = 0;
        for (Lit l : lits)
            sig |= uint64_t(1) << (l.var() & 63);
        return sig;
    }

    Solver &s;

    std::vector<std::vector<ClauseRef>> occ; ///< per Lit::index()
    std::vector<uint64_t> sigs;              ///< per clause, 0 if unindexed
    std::vector<uint8_t> noElim;             ///< var occurs in a grouped clause
    /** Per var: a clause on it was added or removed since its last BVE
     *  try. tryEliminate's answer depends only on the var's live
     *  clauses, so an untouched var would fail again. */
    std::vector<uint8_t> touched;
    std::vector<ClauseRef> subQueue;
    std::vector<uint8_t> queued;         ///< per clause: in subQueue
    mutable std::vector<uint8_t> marks;  ///< per Lit::index() scratch
    size_t trailSeen = 0;                ///< root trail prefix already handled
    size_t proofTrailSeen = 0;           ///< root trail prefix proof-logged
};

bool
Solver::simplify()
{
    cancelUntil(0);
    // Settle a pending replay against the stack its model was found
    // under, so the variables eliminated below keep their search values.
    if (modelStale)
        reconstructModel();
    if (!ok)
        return false;
    permanentRevision++;
    bool consistent = Simplifier(*this).run();
    maybeCompactArena();
    // Give back what the pass outgrew: the arena's and the watch lists'
    // pre-pass capacity, and the elimination stack's doubling slack.
    // Only capacities change, so the search is unaffected.
    clauses.words.shrink_to_fit();
    for (auto &ws : watches)
        ws.shrink_to_fit();
    elimClauseEnds.shrink_to_fit();
    elimLits.shrink_to_fit();
    return consistent;
}

bool
Simplifier::run()
{
    // Proof logging: the pass deletes clauses that may be the unit-
    // propagation reasons of root assignments (purged learnts,
    // satisfied clauses), which would strand those units' derivations.
    // Re-derive every root unit up front — in trail order each is RUP
    // while its reason is still live — so later proof steps can lean on
    // them regardless of what the pass removes.
    if (s.proof) {
        for (Lit l : s.trail)
            s.proofAddUnit(l);
    }
    proofTrailSeen = s.trail.size();

    purgeLearnts();
    collectGroupScope();
    buildIndex();
    if (!s.ok)
        return false;

    // Alternate subsumption fixpoints and elimination sweeps until the
    // formula stops shrinking. Resolvents re-enter the subsumption queue
    // when registered, so each round starts from a clean fixpoint.
    for (;;) {
        drainSubsumption();
        if (!s.ok)
            return false;
        if (!bveSweep())
            break;
        if (!s.ok)
            return false;
    }
    return s.ok;
}

void
Simplifier::purgeLearnts()
{
    for (ClauseRef cref : s.learnts) {
        if (!s.clauses[cref].deleted)
            s.removeClause(cref);
    }
    s.learnts.clear();
}

void
Simplifier::collectGroupScope()
{
    noElim.assign(static_cast<size_t>(s.numVars()), 0);
    for (const auto &g : s.groups) {
        for (ClauseRef cref : g.clauseRefs) {
            const auto &c = s.clauses[cref];
            if (c.deleted)
                continue;
            for (Lit l : c.lits())
                noElim[l.var()] = 1;
        }
    }
}

void
Simplifier::buildIndex()
{
    occ.assign(static_cast<size_t>(s.numVars()) * 2, {});
    touched.assign(static_cast<size_t>(s.numVars()), 1);
    sigs.assign(s.clauses.size(), 0);
    queued.assign(s.clauses.size(), 0);
    marks.assign(static_cast<size_t>(s.numVars()) * 2, 0);
    trailSeen = s.trail.size();

    // Grouped clauses never enter the index: collectGroupScope() already
    // exempted their variables, and the clauses themselves are neither
    // subsumed, strengthened, nor used as subsumers.
    std::vector<uint8_t> grouped(s.clauses.size(), 0);
    for (const auto &g : s.groups) {
        for (ClauseRef cref : g.clauseRefs)
            grouped[cref] = 1;
    }

    size_t initial = s.clauses.size();
    for (ClauseRef i = 0; i < static_cast<ClauseRef>(initial); i++) {
        const auto &c = s.clauses[i];
        if (c.deleted || grouped[i])
            continue;
        assert(!c.learned);
        bool satisfied = false;
        bool shrinks = false;
        for (Lit l : c.lits()) {
            if (s.value(l) == LBool::True)
                satisfied = true;
            else if (s.value(l) == LBool::False)
                shrinks = true;
        }
        if (satisfied) {
            removeIndexed(i);
        } else if (shrinks) {
            // Root-falsified literals are dropped by rebuilding the
            // clause: an in-place edit could leave a false literal in a
            // watch position, making the clause invisible to propagation.
            // Add before delete — the proof justifies the residue from
            // the original, so the original must still be in the
            // database when the residue's 'a' line appears. (The add
            // can reallocate the clause store and, via propagation,
            // even delete the original itself; hence the re-checks.)
            auto span = c.lits();
            std::vector<Lit> lits(span.begin(), span.end());
            addOrEnqueue(std::move(lits));
            if (!s.ok)
                return;
            if (!s.clauses[i].deleted)
                removeIndexed(i);
        } else {
            registerClause(i);
        }
    }
    processTrail();
}

void
Simplifier::registerClause(ClauseRef cref)
{
    const auto &c = s.clauses[cref];
    assert(c.lits().size() >= 2);
    if (sigs.size() <= static_cast<size_t>(cref)) {
        sigs.resize(s.clauses.size(), 0);
        queued.resize(s.clauses.size(), 0);
    }
    sigs[cref] = signature(c.lits());
    for (Lit l : c.lits())
        occ[l.index()].push_back(cref);
    touch(cref);
    enqueueSubsumption(cref);
}

/** Delete clause @p cref, marking its variables for the next BVE try. */
void
Simplifier::removeIndexed(ClauseRef cref)
{
    touch(cref);
    s.removeClause(cref);
}

void
Simplifier::touch(ClauseRef cref)
{
    for (Lit l : s.clauses[cref].lits())
        touched[l.var()] = 1;
}

void
Simplifier::enqueueSubsumption(ClauseRef cref)
{
    if (queued[cref])
        return;
    queued[cref] = 1;
    subQueue.push_back(cref);
}

/**
 * Normalize @p lits at the root and insert the result: tautologies and
 * satisfied clauses vanish, units are enqueued and propagated (newly
 * implied root facts then flow back through processTrail), and real
 * clauses are allocated, attached, and registered in the index. Returns
 * the new clause ref, or kNoReason when no clause was stored.
 *
 * With @p log_add the stored (or enqueued) clause is proof-logged
 * unconditionally; without it only an actual normalization is logged —
 * callers that already logged the raw clause (BVE resolvents) pass
 * false to avoid duplicate lines.
 */
int
Simplifier::addOrEnqueue(std::vector<Lit> lits, bool log_add)
{
    std::sort(lits.begin(), lits.end());
    std::vector<Lit> out;
    Lit prev;
    for (Lit l : lits) {
        assert(!s.elimFlags[l.var()]);
        if (s.value(l) == LBool::True || (prev.valid() && l == ~prev))
            return Solver::kNoReason;
        if (s.value(l) != LBool::False && l != prev)
            out.push_back(l);
        prev = l;
    }
    if (out.empty()) {
        // No 'a' line for the empty clause: the caller keeps the parent
        // clause in the database on this path, and its literals are all
        // root-false, so the checker reaches the conflict by itself.
        s.ok = false;
        return Solver::kNoReason;
    }
    if (s.proof && (log_add || out.size() != lits.size()))
        s.proofAdd(out);
    if (out.size() == 1) {
        s.uncheckedEnqueue(out[0], Solver::kNoReason);
        // out[0]'s add line is already in the trace (just above, or the
        // caller's raw line when !log_add and nothing normalized away).
        proofTrailSeen++;
        if (s.propagate() != Solver::kNoReason) {
            s.ok = false;
            return Solver::kNoReason;
        }
        // Log propagation-derived units now, while their reason clauses
        // are still live — processTrail below starts deleting clauses.
        if (s.proof) {
            while (proofTrailSeen < s.trail.size())
                s.proofAddUnit(s.trail[proofTrailSeen++]);
        }
        processTrail();
        return Solver::kNoReason;
    }
    ClauseRef cref = s.allocClause(std::move(out), false);
    s.attachClause(cref);
    registerClause(cref);
    return cref;
}

/**
 * Fold freshly derived root assignments back into the index: clauses
 * containing a now-true literal die, clauses containing a now-false
 * literal are rebuilt without it. Re-entrant (rebuilding can enqueue
 * further units); the trailSeen cursor makes each literal processed once.
 */
void
Simplifier::processTrail()
{
    while (trailSeen < s.trail.size()) {
        Lit p = s.trail[trailSeen++];
        for (size_t i = 0; i < occ[p.index()].size(); i++) {
            ClauseRef cref = occ[p.index()][i];
            if (!s.clauses[cref].deleted)
                removeIndexed(cref);
        }
        occ[p.index()].clear();
        for (size_t i = 0; i < occ[(~p).index()].size(); i++) {
            ClauseRef cref = occ[(~p).index()][i];
            if (s.clauses[cref].deleted)
                continue;
            // Add before delete: the residue's proof line needs the
            // original live. The add can reallocate s.clauses and even
            // delete the original via re-entrant trail processing.
            auto span = s.clauses[cref].lits();
            std::vector<Lit> lits(span.begin(), span.end());
            addOrEnqueue(std::move(lits));
            if (!s.ok)
                return;
            if (!s.clauses[cref].deleted)
                removeIndexed(cref);
        }
        occ[(~p).index()].clear();
    }
}

void
Simplifier::drainSubsumption()
{
    for (size_t qi = 0; qi < subQueue.size(); qi++) {
        ClauseRef cref = subQueue[qi];
        queued[cref] = 0;
        if (s.clauses[cref].deleted)
            continue;
        backwardSubsume(cref);
        if (!s.ok)
            return;
        s.maybeCompactArena();
    }
    subQueue.clear();
}

/**
 * Use clause @p cref as a subsumer: delete every indexed clause it
 * subsumes and strengthen every clause it self-subsumes. Candidates are
 * found through the occurrence lists of the clause's rarest literal —
 * any subsumed clause contains every literal of C, and a self-subsumed
 * one contains every literal but one flipped, so scanning occ[best] and
 * occ[~best] together is exhaustive.
 */
void
Simplifier::backwardSubsume(ClauseRef cref)
{
    Lit best;
    size_t best_occ = 0;
    {
        const auto &c = s.clauses[cref];
        for (Lit l : c.lits()) {
            size_t n = occ[l.index()].size() + occ[(~l).index()].size();
            if (!best.valid() || n < best_occ) {
                best = l;
                best_occ = n;
            }
        }
    }
    assert(best.valid());
    for (int side = 0; side < 2; side++) {
        Lit probe = side == 0 ? best : ~best;
        auto &list = occ[probe.index()];
        for (size_t i = 0; i < list.size(); i++) {
            ClauseRef dref = list[i];
            if (dref == cref || s.clauses[dref].deleted)
                continue;
            if (s.clauses[cref].deleted)
                return; // strengthening cascaded back onto the subsumer
            const auto &c = s.clauses[cref];
            const auto &d = s.clauses[dref];
            if (c.lits().size() > d.lits().size() ||
                (sigs[cref] & ~sigs[dref]) != 0)
                continue;
            Lit flip;
            SubsumeResult res = subsumeCheck(c.lits(), d.lits(), flip);
            if (res == SubsumeResult::Subsumes) {
                s.statsData.subsumedClauses++;
                removeIndexed(dref);
            } else if (res == SubsumeResult::Strengthens) {
                strengthenClause(dref, ~flip);
                if (!s.ok)
                    return;
            }
        }
    }
}

Simplifier::SubsumeResult
Simplifier::subsumeCheck(std::span<const Lit> c, std::span<const Lit> d,
                         Lit &flip) const
{
    for (Lit l : d)
        marks[l.index()] = 1;
    SubsumeResult res = SubsumeResult::Subsumes;
    for (Lit l : c) {
        if (marks[l.index()])
            continue;
        if (res == SubsumeResult::Subsumes && marks[(~l).index()]) {
            res = SubsumeResult::Strengthens;
            flip = l;
            continue;
        }
        res = SubsumeResult::No;
        break;
    }
    for (Lit l : d)
        marks[l.index()] = 0;
    return res;
}

/** Self-subsuming resolution: rebuild @p cref without literal @p drop. */
void
Simplifier::strengthenClause(ClauseRef cref, Lit drop)
{
    std::vector<Lit> lits;
    {
        const auto &c = s.clauses[cref];
        lits.reserve(c.lits().size() - 1);
        for (Lit l : c.lits()) {
            if (l != drop)
                lits.push_back(l);
        }
        assert(lits.size() + 1 == c.lits().size());
    }
    s.statsData.strengthenedLits++;
    // Add before delete: the strengthened clause is RUP from the
    // subsumer plus the original, so the original must still be present
    // when its 'a' line is emitted. The add can reallocate s.clauses
    // (hence the scoped reference above) and can delete the original
    // itself through re-entrant trail processing.
    addOrEnqueue(std::move(lits));
    if (!s.ok)
        return;
    if (!s.clauses[cref].deleted)
        removeIndexed(cref);
}

bool
Simplifier::bveSweep()
{
    bool changed = false;
    int vars = s.numVars();
    for (Var v = 0; v < vars; v++) {
        if (s.frozenFlags[v] || s.elimFlags[v] || noElim[v] ||
            s.value(v) != LBool::Undef || !touched[v])
            continue;
        touched[v] = 0;
        if (tryEliminate(v))
            changed = true;
        if (!s.ok)
            return changed;
        // Compact as the pass goes: resolvents are appended while the
        // clauses they replace lie deleted in the arena, which would
        // otherwise double its capacity before the pass ends. The index
        // names clauses by id, which compaction keeps.
        s.maybeCompactArena();
    }
    return changed;
}

/**
 * Bounded variable elimination by distribution (Davis-Putnam): replace
 * the clauses containing v with their full pairwise resolvent set when
 * that set is no larger and no resolvent is too long.
 * Keeping *all* non-tautological resolvents makes the elimination an
 * exact existential projection: the remaining formula has identical
 * models over the other variables, which is what lets eliminated Tseitin
 * outputs be re-used as inputs of later-lowered cones.
 */
bool
Simplifier::tryEliminate(Var v)
{
    auto compact = [&](std::vector<ClauseRef> &list) {
        list.erase(std::remove_if(list.begin(), list.end(),
                                  [&](ClauseRef cref) {
                                      return s.clauses[cref].deleted;
                                  }),
                   list.end());
    };
    std::vector<ClauseRef> &pos = occ[Lit::pos(v).index()];
    std::vector<ClauseRef> &neg = occ[Lit::neg(v).index()];
    compact(pos);
    compact(neg);

    size_t before = pos.size() + neg.size();
    if (before > kMaxOccurrences)
        return false;

    // Build the full resolvent set, bailing out the moment it outgrows
    // the clauses it would replace or a resolvent exceeds the length cap.
    std::vector<std::vector<Lit>> resolvents;
    std::vector<Lit> resolvent;
    for (ClauseRef pref : pos) {
        const auto &pc = s.clauses[pref];
        for (ClauseRef nref : neg) {
            const auto &nc = s.clauses[nref];
            resolvent.clear();
            bool tautology = false;
            for (Lit l : pc.lits()) {
                if (l.var() != v)
                    resolvent.push_back(l);
            }
            for (Lit l : nc.lits()) {
                if (l.var() == v)
                    continue;
                if (std::find(resolvent.begin(), resolvent.end(), ~l) !=
                    resolvent.end()) {
                    tautology = true;
                    break;
                }
                if (std::find(resolvent.begin(), resolvent.end(), l) ==
                    resolvent.end())
                    resolvent.push_back(l);
            }
            if (tautology)
                continue;
            if (resolvent.size() > kMaxResolventLits ||
                resolvents.size() + 1 > before)
                return false;
            resolvents.push_back(resolvent);
        }
    }

    // Commit: archive the originals for model reconstruction, then swap
    // them for the resolvents.
    s.elimStack.push_back(
        {v, static_cast<uint32_t>(s.elimClauseEnds.size())});
    auto archive = [&](ClauseRef cref) {
        auto lits = s.clauses[cref].lits();
        s.elimLits.insert(s.elimLits.end(), lits.begin(), lits.end());
        s.elimClauseEnds.push_back(static_cast<uint32_t>(s.elimLits.size()));
    };
    for (ClauseRef cref : pos)
        archive(cref);
    for (ClauseRef cref : neg)
        archive(cref);
    s.elimFlags[v] = 1;
    s.numEliminated++;
    s.statsData.eliminatedVars++;

    // Proof: every resolvent is RUP while both parents are live, so log
    // the whole raw set before deleting the originals. addOrEnqueue is
    // then told not to re-log; it only adds a line if normalization
    // changes the clause.
    if (s.proof) {
        for (const auto &lits : resolvents)
            s.proofAdd(lits);
    }

    std::vector<ClauseRef> originals;
    originals.reserve(before);
    originals.insert(originals.end(), pos.begin(), pos.end());
    originals.insert(originals.end(), neg.begin(), neg.end());
    for (ClauseRef cref : originals) {
        if (!s.clauses[cref].deleted)
            removeIndexed(cref);
    }
    pos.clear();
    neg.clear();
    for (auto &lits : resolvents) {
        addOrEnqueue(std::move(lits), /*log_add=*/false);
        if (!s.ok)
            return true;
    }
    return true;
}

} // namespace lts::sat
