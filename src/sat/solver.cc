#include "sat/solver.hh"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cmath>
#include <cstring>
#include <new>

#include "sat/drat.hh"

namespace lts::sat
{

namespace
{

/**
 * Compact the clause arena once deleted clauses hold more than 1/n of
 * its words (MiniSat's 20%): the arena then stays within 1.25x of its
 * live clauses, and each compaction's copy is paid for by the deletions
 * since the last one.
 */
constexpr size_t kArenaWasteShare = 5;

} // namespace

Solver::ClauseArena::ClauseArena()
{
    static_assert(sizeof(InternalClause) == kHeaderWords * sizeof(uint64_t),
                  "a clause header spans exactly kHeaderWords arena words");
    static_assert(alignof(InternalClause) <= alignof(uint64_t));
    // The tombstone: compacted-away ids resolve here, to a clause that
    // reads as deleted and empty.
    words.resize(kHeaderWords);
    new (words.data()) InternalClause{0, kNoReason, 0, false, true, 0.0};
}

Solver::Solver() = default;

Var
Solver::newVar()
{
    Var v = static_cast<Var>(assigns.size());
    assigns.push_back(LBool::Undef);
    model.push_back(LBool::Undef);
    polarity.push_back(true); // negative phase first, MiniSAT-style
    levels.push_back(0);
    reasons.push_back(kNoReason);
    activity.push_back(0.0);
    heapIndex.push_back(-1);
    seen.push_back(0);
    frozenFlags.push_back(0);
    elimFlags.push_back(0);
    watches.emplace_back();
    watches.emplace_back();
    heapInsert(v);
    permanentRevision++;
    return v;
}

void
Solver::setFrozen(Var v, bool frozen)
{
    assert(v >= 0 && v < numVars());
    assert(!(frozen && elimFlags[v]) && "freezing an eliminated variable");
    frozenFlags[v] = frozen ? 1 : 0;
}

// ---------------------------------------------------------------------------
// Clause management
// ---------------------------------------------------------------------------

Solver::ClauseRef
Solver::allocClause(const std::vector<Lit> &lits, bool learned)
{
    ClauseRef cref = static_cast<ClauseRef>(clauses.size());
    auto size = static_cast<uint32_t>(lits.size());
    size_t off = clauses.words.size();
    assert(off + ClauseArena::wordsFor(size) <= UINT32_MAX &&
           "clause arena outgrew 32-bit offsets");
    clauses.words.resize(off + ClauseArena::wordsFor(size));
    uint64_t *at = clauses.words.data() + off;
    new (at) InternalClause{size, cref, 0, learned, false, 0.0};
    std::memcpy(at + ClauseArena::kHeaderWords, lits.data(),
                size * sizeof(Lit));
    clauses.offsets.push_back(static_cast<uint32_t>(off));
    if (learned) {
        numLearnedClauses++;
        statsData.learnedClauses++;
    } else {
        numProblemClauses++;
    }
    return cref;
}

void
Solver::attachClause(ClauseRef cref)
{
    uint32_t off = clauses.offsets[cref];
    const auto &c = clauses.at(off);
    assert(c.size >= 2);
    watches[(~c.lits()[0]).index()].push_back(off);
    watches[(~c.lits()[1]).index()].push_back(off);
}

void
Solver::detachClause(ClauseRef cref)
{
    uint32_t off = clauses.offsets[cref];
    const auto &c = clauses.at(off);
    for (int i = 0; i < 2; i++) {
        auto &ws = watches[(~c.lits()[i]).index()];
        auto it = std::find(ws.begin(), ws.end(), off);
        assert(it != ws.end());
        *it = ws.back();
        ws.pop_back();
    }
}

void
Solver::removeClause(ClauseRef cref)
{
    auto &c = clauses[cref];
    assert(!c.deleted);
    if (proof)
        proof->deleteClause(c.lits());
    detachClause(cref);
    // The clause may be recorded as the reason of a root-level assignment;
    // root-level reasons are never dereferenced, but clear the record so
    // no stale reference survives the removal.
    Var v0 = c.lits()[0].var();
    if (reasons[v0] == cref)
        reasons[v0] = kNoReason;
    // The words stay in place, unwatched, until maybeCompactArena().
    c.deleted = true;
    clauses.wasted += ClauseArena::wordsFor(c.size);
    if (c.learned)
        numLearnedClauses--;
    else
        numProblemClauses--;
    statsData.deletedClauses++;
}

void
Solver::maybeCompactArena()
{
    if (clauses.wasted * kArenaWasteShare <= clauses.words.size())
        return;
    statsData.arenaCompactions++;
    const uint32_t end = static_cast<uint32_t>(clauses.words.size());

    // 1. New offsets: live clauses packed in arena order, which is id
    //    order; deleted ids fall to the tombstone.
    uint32_t dest = ClauseArena::kHeaderWords;
    for (uint32_t off = dest; off < end;) {
        const InternalClause &c = clauses.at(off);
        uint32_t n = ClauseArena::wordsFor(c.size);
        clauses.offsets[c.id] = c.deleted ? 0 : dest;
        if (!c.deleted)
            dest += n;
        off += n;
    }
    // 2. Retarget each watcher in place, while the old headers still
    //    name their ids. Every list keeps its order, so the search after
    //    a compaction is the search without one.
    for (auto &ws : watches) {
        for (uint32_t &w : ws) {
            assert(!clauses.at(w).deleted);
            w = clauses.offsets[clauses.at(w).id];
        }
    }
    // 3. Slide the live clauses down. A clause never moves past its old
    //    start, so copying in arena order never overwrites a clause
    //    before it has moved.
    for (uint32_t off = ClauseArena::kHeaderWords; off < end;) {
        const InternalClause &c = clauses.at(off);
        uint32_t n = ClauseArena::wordsFor(c.size);
        if (!c.deleted && clauses.offsets[c.id] != off)
            std::memmove(clauses.words.data() + clauses.offsets[c.id],
                         clauses.words.data() + off, n * sizeof(uint64_t));
        off += n;
    }
    clauses.words.resize(dest);
    clauses.wasted = 0;
}

bool
Solver::addClause(Clause lits)
{
    permanentRevision++;
    return addClauseInternal(std::move(lits), kNoGroup);
}

bool
Solver::addClause(Group g, Clause lits)
{
    assert(g >= 0 && g < static_cast<Group>(groups.size()));
    assert(!groups[g].releasedFlag && "adding clause to a released group");
    groups[g].added++;
    // The guard literal: the clause only binds when the activation
    // literal (groupLit) is assumed true.
    lits.push_back(Lit::neg(groups[g].selector));
    return addClauseInternal(std::move(lits), g);
}

bool
Solver::addClauseInternal(Clause lits, Group group)
{
    if (!ok)
        return false;

    std::sort(lits.begin(), lits.end());
    // Input clauses are logged as given (before normalization): they are
    // the caller's constraints, which the checker takes on faith. The
    // normalized residue is re-derived below as an 'a' line when it
    // differs, so later deletions match a clause the checker has.
    if (proof)
        proof->addInput(lits);
    // Dedupe; drop clause on tautology; drop root-falsified literals.
    // Only root values count here: values above the root are search
    // state, which the placement below reconciles with the clause.
    auto root_value = [&](Lit l) {
        return levels[l.var()] == 0 ? value(l) : LBool::Undef;
    };
    std::vector<Lit> out;
    Lit prev;
    for (Lit l : lits) {
        assert(l.var() < numVars());
        assert(!elimFlags[l.var()] &&
               "clause refers to an eliminated variable");
        if (root_value(l) == LBool::True || (prev.valid() && l == ~prev))
            return true; // satisfied or tautological
        if (root_value(l) != LBool::False && l != prev)
            out.push_back(l);
        prev = l;
    }
    if (out.empty()) {
        cancelUntil(0);
        ok = false;
        return false;
    }
    // The root-normalized clause is RUP given the input line and the
    // units that falsified the dropped literals, all logged earlier.
    if (proof && out.size() != lits.size())
        proof->addDerived(out);
    if (out.size() == 1) {
        // For a group clause this can only be the guard literal itself
        // (the body was root-falsified): the group becomes permanently
        // inactive, which is the correct residue of an absurd layer.
        cancelUntil(0);
        uncheckedEnqueue(out[0], kNoReason);
        ok = (propagate() == kNoReason);
        return ok;
    }
    // Watch the non-false literals first, then the false ones by
    // decreasing level; at the root every literal is unassigned and the
    // sorted order stands.
    if (decisionLevel() > 0) {
        auto rank = [&](Lit l) {
            return value(l) == LBool::False ? levels[l.var()] : INT_MAX;
        };
        std::stable_sort(out.begin(), out.end(),
                         [&](Lit a, Lit b) { return rank(a) > rank(b); });
    }
    ClauseRef cref = allocClause(out, false);
    attachClause(cref);
    if (group != kNoGroup)
        groups[group].clauseRefs.push_back(cref);
    // Backtrack only as far as the clause needs. With its second watch
    // false, at most one literal is not false, and the clause must stand
    // where unit propagation would have left it.
    if (value(out[1]) == LBool::False) {
        int high = levels[out[1].var()]; // highest false level but out[0]'s
        LBool first = value(out[0]);
        int first_level = levels[out[0].var()];
        if (first == LBool::False && first_level == high) {
            // Falsified, highest level tied: both watches come free.
            cancelUntil(high - 1);
        } else if (first != LBool::True || first_level > high) {
            // Falsified with a unique highest level, unit, or true above
            // the level that implies it: assert it there.
            cancelUntil(high);
            uncheckedEnqueue(out[0], cref);
        }
    }
    assert(placedOnTrail(clauses[cref].lits()) &&
           "a clause added above the root is falsified or missed a unit");
    return true;
}

bool
Solver::placedOnTrail(std::span<const Lit> lits) const
{
    int open = 0;
    int high = 0;
    Lit open_lit;
    for (Lit l : lits) {
        if (value(l) == LBool::False) {
            high = std::max(high, levels[l.var()]);
        } else {
            open++;
            open_lit = l;
        }
    }
    if (open != 1)
        return open > 1;
    return value(open_lit) == LBool::True && levels[open_lit.var()] <= high;
}

// ---------------------------------------------------------------------------
// Activation-literal groups
// ---------------------------------------------------------------------------

Group
Solver::newGroup()
{
    Group g = static_cast<Group>(groups.size());
    GroupInfo info;
    info.selector = newVar();
    // The selector is assumed by solve() and pinned by release(): both
    // uses outlive any simplification pass, so it must never be
    // eliminated.
    setFrozen(info.selector);
    groups.push_back(std::move(info));
    return g;
}

Lit
Solver::groupLit(Group g) const
{
    assert(g >= 0 && g < static_cast<Group>(groups.size()));
    return Lit::pos(groups[g].selector);
}

bool
Solver::isReleased(Group g) const
{
    assert(g >= 0 && g < static_cast<Group>(groups.size()));
    return groups[g].releasedFlag;
}

void
Solver::release(Group g)
{
    assert(g >= 0 && g < static_cast<Group>(groups.size()));
    auto &info = groups[g];
    if (info.releasedFlag)
        return;
    // Kept assumption levels may rest on the clauses about to go.
    cancelUntil(0);
    info.releasedFlag = true;
    statsData.releasedGroups++;

    // A group clause can only ever root-propagate its own guard (any
    // other propagation would need the selector true at the root, which
    // never happens). If one did, re-derive the guard unit before its
    // reason clause is deleted, so later proof steps can still rely on
    // it; the Undef case is covered by the pin below ('i' line).
    if (proof && value(info.selector) == LBool::False)
        proofAddUnit(Lit::neg(info.selector));

    for (ClauseRef cref : info.clauseRefs) {
        if (!clauses[cref].deleted)
            removeClause(cref);
    }
    info.clauseRefs.clear();
    info.clauseRefs.shrink_to_fit();

    // Every learned clause derived from this group's clauses carries the
    // negated activation literal (the selector is only ever assigned as
    // an assumption decision, so conflict analysis can never resolve it
    // away). Purge them: with the group gone they are dead weight.
    Lit guard = Lit::neg(info.selector);
    size_t keep = 0;
    for (ClauseRef cref : learnts) {
        auto &c = clauses[cref];
        if (c.deleted)
            continue;
        auto lits = c.lits();
        if (std::find(lits.begin(), lits.end(), guard) != lits.end()) {
            removeClause(cref);
            continue;
        }
        learnts[keep++] = cref;
    }
    learnts.resize(keep);

    // Pin the selector false so the variable never burdens the search
    // again (and any remaining guarded clause is root-satisfied).
    if (ok && value(info.selector) == LBool::Undef)
        addClause({guard});
    maybeCompactArena();
}

// ---------------------------------------------------------------------------
// Trail
// ---------------------------------------------------------------------------

void
Solver::uncheckedEnqueue(Lit l, ClauseRef reason)
{
    assert(value(l) == LBool::Undef);
    Var v = l.var();
    assigns[v] = l.sign() ? LBool::False : LBool::True;
    levels[v] = decisionLevel();
    reasons[v] = reason;
    trail.push_back(l);
}

void
Solver::cancelUntil(int level)
{
    if (decisionLevel() <= level)
        return;
    for (size_t i = trail.size(); i > trailLims[level]; i--) {
        Lit l = trail[i - 1];
        Var v = l.var();
        assigns[v] = LBool::Undef;
        polarity[v] = l.sign();
        reasons[v] = kNoReason;
        if (!heapContains(v))
            heapInsert(v);
    }
    trail.resize(trailLims[level]);
    trailLims.resize(level);
    qhead = trail.size();
}

// ---------------------------------------------------------------------------
// Propagation
// ---------------------------------------------------------------------------

Solver::ClauseRef
Solver::propagate()
{
    ClauseRef confl = kNoReason;
    while (qhead < trail.size()) {
        Lit p = trail[qhead++];
        Lit false_lit = ~p;
        statsData.propagations++;
        // Pushing onto another literal's list never touches this one's
        // buffer (the new watch is not false, ~p is), so the pointers
        // stay valid across the loop.
        auto &ws = watches[p.index()];
        uint32_t *i = ws.data();
        uint32_t *keep = i;
        uint32_t *end = i + ws.size();
        while (i != end) {
            uint32_t off = *i++;
            InternalClause &c = clauses.at(off);
            assert(!c.deleted && "removeClause detaches both watches");
            Lit *lits = c.lits().data();
            // Make sure the false literal (~p) sits at position 1.
            if (lits[0] == false_lit)
                std::swap(lits[0], lits[1]);
            assert(lits[1] == false_lit);

            Lit first = lits[0];
            if (value(first) == LBool::True) {
                *keep++ = off;
                continue;
            }
            // Search for a replacement watch.
            bool found = false;
            for (uint32_t k = 2; k < c.size; k++) {
                if (value(lits[k]) != LBool::False) {
                    std::swap(lits[1], lits[k]);
                    watches[(~lits[1]).index()].push_back(off);
                    found = true;
                    break;
                }
            }
            if (found)
                continue;
            // Clause is unit or conflicting; the watch stays.
            *keep++ = off;
            if (value(first) == LBool::False) {
                confl = c.id;
                qhead = trail.size();
                // Preserve the remaining watches.
                while (i != end)
                    *keep++ = *i++;
                break;
            }
            uncheckedEnqueue(first, c.id);
        }
        ws.resize(static_cast<size_t>(keep - ws.data()));
        if (confl != kNoReason)
            break;
    }
    return confl;
}

// ---------------------------------------------------------------------------
// Conflict analysis
// ---------------------------------------------------------------------------

void
Solver::analyze(ClauseRef confl, std::vector<Lit> &out_learnt, int &out_btlevel,
                int &out_lbd)
{
    out_learnt.clear();
    out_learnt.push_back(Lit()); // placeholder for the asserting literal

    int path_count = 0;
    Lit p; // invalid
    int index = static_cast<int>(trail.size()) - 1;

    do {
        assert(confl != kNoReason);
        auto &c = clauses[confl];
        if (c.learned)
            claBumpActivity(c);

        auto lits = c.lits();
        for (size_t j = p.valid() ? 1 : 0; j < lits.size(); j++) {
            Lit q = lits[j];
            Var v = q.var();
            if (!seen[v] && levels[v] > 0) {
                seen[v] = 1;
                varBumpActivity(v);
                if (levels[v] >= decisionLevel())
                    path_count++;
                else
                    out_learnt.push_back(q);
            }
        }
        // Select the next node on the current decision level to expand.
        while (!seen[trail[index].var()])
            index--;
        p = trail[index];
        index--;
        confl = reasons[p.var()];
        seen[p.var()] = 0;
        path_count--;
    } while (path_count > 0);
    out_learnt[0] = ~p;

    // Recursive minimization of the learnt clause.
    analyzeToClear = out_learnt;
    uint32_t abstract_levels = 0;
    for (size_t i = 1; i < out_learnt.size(); i++)
        abstract_levels |= uint32_t(1) << (levels[out_learnt[i].var()] & 31);

    size_t keep = 1;
    for (size_t i = 1; i < out_learnt.size(); i++) {
        if (reasons[out_learnt[i].var()] == kNoReason ||
            !litRedundant(out_learnt[i], abstract_levels)) {
            out_learnt[keep++] = out_learnt[i];
        } else {
            statsData.minimizedLits++;
        }
    }
    out_learnt.resize(keep);

    // Literal block distance: number of distinct decision levels in the
    // minimized clause (the "glue" metric of Glucose). Low-LBD clauses
    // bridge few decision blocks and stay useful across restarts and
    // incremental queries, so reduceDB retains them preferentially.
    lbdLevels.clear();
    for (Lit l : out_learnt) {
        int lev = levels[l.var()];
        if (std::find(lbdLevels.begin(), lbdLevels.end(), lev) ==
            lbdLevels.end())
            lbdLevels.push_back(lev);
    }
    out_lbd = static_cast<int>(lbdLevels.size());

    // Find the backtrack level (second-highest level in the clause).
    if (out_learnt.size() == 1) {
        out_btlevel = 0;
    } else {
        size_t max_i = 1;
        for (size_t i = 2; i < out_learnt.size(); i++) {
            if (levels[out_learnt[i].var()] > levels[out_learnt[max_i].var()])
                max_i = i;
        }
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = levels[out_learnt[1].var()];
    }

    for (Lit l : analyzeToClear)
        seen[l.var()] = 0;
    analyzeToClear.clear();
}

bool
Solver::litRedundant(Lit l, uint32_t abstract_levels)
{
    analyzeStack.clear();
    analyzeStack.push_back(l);
    size_t top = analyzeToClear.size();
    while (!analyzeStack.empty()) {
        Lit cur = analyzeStack.back();
        analyzeStack.pop_back();
        assert(reasons[cur.var()] != kNoReason);
        auto lits = clauses[reasons[cur.var()]].lits();
        for (size_t i = 1; i < lits.size(); i++) {
            Lit q = lits[i];
            Var v = q.var();
            if (seen[v] || levels[v] == 0)
                continue;
            bool level_ok =
                (uint32_t(1) << (levels[v] & 31)) & abstract_levels;
            if (reasons[v] != kNoReason && level_ok) {
                seen[v] = 1;
                analyzeStack.push_back(q);
                analyzeToClear.push_back(q);
            } else {
                // Not provably redundant: undo the marks we made here.
                for (size_t j = top; j < analyzeToClear.size(); j++)
                    seen[analyzeToClear[j].var()] = 0;
                analyzeToClear.resize(top);
                return false;
            }
        }
    }
    return true;
}

void
Solver::analyzeFinal(Lit p)
{
    conflict.clear();
    conflict.push_back(p);
    if (decisionLevel() == 0)
        return;

    seen[p.var()] = 1;
    for (size_t i = trail.size(); i > trailLims[0]; i--) {
        Var v = trail[i - 1].var();
        if (!seen[v])
            continue;
        if (reasons[v] == kNoReason) {
            assert(levels[v] > 0);
            conflict.push_back(~trail[i - 1]);
        } else {
            auto lits = clauses[reasons[v]].lits();
            for (size_t j = 1; j < lits.size(); j++) {
                if (levels[lits[j].var()] > 0)
                    seen[lits[j].var()] = 1;
            }
        }
        seen[v] = 0;
    }
    seen[p.var()] = 0;
}

// ---------------------------------------------------------------------------
// Heuristics
// ---------------------------------------------------------------------------

void
Solver::varBumpActivity(Var v)
{
    activity[v] += varInc;
    if (activity[v] > 1e100) {
        for (auto &a : activity)
            a *= 1e-100;
        varInc *= 1e-100;
    }
    if (heapContains(v))
        heapUpdate(v);
}

void
Solver::claBumpActivity(InternalClause &c)
{
    c.activity += claInc;
    if (c.activity > 1e20) {
        for (ClauseRef cref : learnts) {
            if (!clauses[cref].deleted)
                clauses[cref].activity *= 1e-20;
        }
        claInc *= 1e-20;
    }
}

Lit
Solver::pickBranchLit()
{
    // Every live variable assigned (eliminated ones never are): popping
    // would drain the whole heap and find nothing, so empty it at once.
    if (trail.size() + numEliminated == assigns.size()) {
        for (Var v : heap)
            heapIndex[v] = -1;
        heap.clear();
        return Lit();
    }
    while (!heap.empty()) {
        Var v = heapRemoveMax();
        // Eliminated variables occur in no live clause; deciding them
        // would only pad the trail. They stay Undef until model
        // reconstruction assigns them.
        if (value(v) == LBool::Undef && !elimFlags[v])
            return Lit(v, polarity[v]);
    }
    return Lit();
}

bool
Solver::satisfiedAtRoot(const InternalClause &c) const
{
    for (Lit l : c.lits()) {
        if (value(l) == LBool::True && levels[l.var()] == 0)
            return true;
    }
    return false;
}

void
Solver::reduceDB()
{
    statsData.reduceCalls++;

    // LBD-aware retention (Glucose-style): "glue" clauses (LBD <= 2) and
    // binary clauses are kept unconditionally — they are what makes
    // learning pay off across incremental queries. The rest are ranked
    // worst-first by (high LBD, low activity) and the worst half is
    // dropped. Clauses satisfied at the root are dead weight regardless
    // of quality and go immediately.
    std::vector<ClauseRef> cands;
    size_t keep = 0;
    for (ClauseRef cref : learnts) {
        auto &c = clauses[cref];
        if (c.deleted)
            continue;
        bool locked = reasons[c.lits()[0].var()] == cref &&
                      value(c.lits()[0]) == LBool::True;
        if (!locked && satisfiedAtRoot(c)) {
            removeClause(cref);
            continue;
        }
        learnts[keep++] = cref;
        if (!locked && c.size > 2 && c.lbd > 2)
            cands.push_back(cref);
    }
    learnts.resize(keep);

    std::sort(cands.begin(), cands.end(), [&](ClauseRef a, ClauseRef b) {
        const auto &ca = clauses[a];
        const auto &cb = clauses[b];
        if (ca.lbd != cb.lbd)
            return ca.lbd > cb.lbd;
        return ca.activity < cb.activity;
    });
    for (size_t i = 0; i < cands.size() / 2; i++)
        removeClause(cands[i]);

    learnts.erase(std::remove_if(learnts.begin(), learnts.end(),
                                 [&](ClauseRef cref) {
                                     return clauses[cref].deleted;
                                 }),
                  learnts.end());
    maybeCompactArena();
}

void
Solver::reduceLearnedClauses()
{
    cancelUntil(0);
    reduceDB();
}

double
Solver::luby(double y, int i)
{
    // Find the finite subsequence that contains index i, and the index of
    // i within that subsequence.
    int size = 1;
    int seq = 0;
    while (size < i + 1) {
        seq++;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) >> 1;
        seq--;
        i = i % size;
    }
    return std::pow(y, seq);
}

// ---------------------------------------------------------------------------
// Main search
// ---------------------------------------------------------------------------

LBool
Solver::search(int64_t max_conflicts)
{
    int64_t conflicts_here = 0;
    std::vector<Lit> learnt;

    for (;;) {
        ClauseRef confl = propagate();
        if (confl != kNoReason) {
            statsData.conflicts++;
            conflicts_here++;
            if (decisionLevel() == 0) {
                ok = false;
                return LBool::False;
            }
            int bt_level = 0;
            int lbd = 0;
            analyze(confl, learnt, bt_level, lbd);
            // First-UIP clauses (minimization included) are derivable by
            // trivial resolution from the conflict's reason cone, hence
            // RUP against the clauses live right now.
            if (proof)
                proof->addDerived(learnt);
            cancelUntil(bt_level);
            if (learnt.size() == 1) {
                uncheckedEnqueue(learnt[0], kNoReason);
            } else {
                ClauseRef cref = allocClause(learnt, true);
                clauses[cref].lbd = lbd;
                learnts.push_back(cref);
                attachClause(cref);
                claBumpActivity(clauses[cref]);
                uncheckedEnqueue(learnt[0], cref);
            }
            varDecayActivity();
            claDecayActivity();
            if (conflictBudget &&
                statsData.conflicts - budgetBase >= conflictBudget) {
                hitBudget = true;
                cancelUntil(0);
                return LBool::Undef;
            }
        } else {
            if (conflicts_here >= max_conflicts) {
                statsData.restarts++;
                cancelUntil(0);
                return LBool::Undef;
            }
            if (numLearnedClauses - static_cast<int>(trail.size()) >=
                maxLearnts) {
                reduceDB();
            }

            // Respect assumptions before free decisions.
            Lit next;
            while (decisionLevel() < static_cast<int>(assumptionsVec.size())) {
                Lit p = assumptionsVec[decisionLevel()];
                if (value(p) == LBool::True) {
                    newDecisionLevel(); // dummy level; already satisfied
                } else if (value(p) == LBool::False) {
                    analyzeFinal(~p);
                    return LBool::False;
                } else {
                    next = p;
                    break;
                }
            }
            if (!next.valid()) {
                next = pickBranchLit();
                if (!next.valid()) {
                    model = assigns;
                    return LBool::True;
                }
                statsData.decisions++;
            }
            newDecisionLevel();
            uncheckedEnqueue(next, kNoReason);
        }
    }
}

SolveResult
Solver::solve()
{
    return solve({});
}

SolveResult
Solver::solve(const std::vector<Lit> &assumptions)
{
    statsData.solves++;
    for ([[maybe_unused]] Lit p : assumptions)
        assert(!elimFlags[p.var()] && "assuming an eliminated variable");
    conflict.clear();
    hitBudget = false;
    if (!ok) {
        lastResult = SolveResult::Unsat;
        return lastResult;
    }
    // Reuse the levels the last call kept: level i+1 holds assumption i,
    // so every level within the common prefix of the old and the new
    // assumptions is exactly what re-assuming that prefix would build.
    // Search resumes above it as if it had just decided the prefix. A
    // Sat answer also keeps its free decisions, so the trail can be
    // deeper than either vector; under the same assumptions search
    // resumes on all of it.
    int kept = 0;
    int reusable = std::min({decisionLevel(),
                             static_cast<int>(assumptions.size()),
                             static_cast<int>(assumptionsVec.size())});
    while (kept < reusable && assumptionsVec[kept] == assumptions[kept])
        kept++;
    if (assumptions != assumptionsVec)
        cancelUntil(kept);
    statsData.keptLevels += static_cast<uint64_t>(kept);
    assumptionsVec = assumptions;
    maxLearnts = std::max(static_cast<double>(numProblemClauses) / 3.0,
                          2000.0);

    LBool status = LBool::Undef;
    int curr_restarts = 0;
    while (status == LBool::Undef && !hitBudget) {
        double base = luby(2.0, curr_restarts) * 100.0;
        status = search(static_cast<int64_t>(base));
        curr_restarts++;
    }
    // A Sat answer keeps its whole trail for the next call; any other
    // keeps the assumption levels. An inconsistent solver never searches
    // again.
    if (!ok)
        cancelUntil(0);
    else if (status != LBool::True)
        cancelUntil(static_cast<int>(assumptionsVec.size()));
    if (status == LBool::True) {
        lastResult = SolveResult::Sat;
        haveModel = true;
        // Eliminated variables are Undef in the copied assignment; they
        // are reconstructed on first read (modelValue / checkModel).
        modelStale = !elimStack.empty();
        assert(checkModel() && "model violates a problem clause");
    } else if (status == LBool::False) {
        lastResult = SolveResult::Unsat;
    } else {
        lastResult = SolveResult::BudgetExhausted;
    }
    return lastResult;
}

void
Solver::reconstructModel() const
{
    modelStale = false;
    statsData.modelReplays++;
    // Replay the elimination stack in reverse: a record's clauses never
    // mention variables eliminated before it (elimination removed those
    // clauses from the formula first), so by the time a record is
    // replayed every other variable in its clauses has a model value.
    for (size_t r = elimStack.size(); r-- > 0;) {
        const ElimRecord &rec = elimStack[r];
        // Default false; flip only when some removed clause needs the
        // variable to satisfy it. The full resolvent set added at
        // elimination time guarantees all such clauses agree on the
        // required polarity, so the first unsatisfied one decides.
        LBool val = LBool::False;
        for (uint32_t c = rec.firstClause, e = elimRecordEnd(r); c < e; c++) {
            bool satisfied = false;
            Lit own;
            for (Lit l : elimClause(c)) {
                if (l.var() == rec.v) {
                    own = l;
                    continue;
                }
                if (modelValue(l)) {
                    satisfied = true;
                    break;
                }
            }
            if (!satisfied) {
                assert(own.valid());
                val = own.sign() ? LBool::False : LBool::True;
                break;
            }
        }
        model[rec.v] = val;
    }
}

void
Solver::setProof(DratWriter *writer)
{
    cancelUntil(0);
    proof = writer;
    if (!proof)
        return;
    // Snapshot what is already here as input lines so attachment is
    // sound at any point. Learnt clauses cannot be re-justified after
    // the fact, so the solver must not have any yet.
    assert(numLearnedClauses == 0 &&
           "attach the proof writer before any solving");
    for (const Clause &c : liveClauses(false))
        proof->addInput(c);
}

void
Solver::proofConcludeUnsat()
{
    if (!proof)
        return;
    assert(lastResult == SolveResult::Unsat &&
           "proofConcludeUnsat() is only meaningful after Unsat");
    // The final conflict clause (negated failed assumptions) is RUP:
    // asserting the assumptions back and propagating replays the
    // reason cone analyzeFinal walked. An assumption-free refutation
    // concludes with the empty clause.
    proof->addConclusion(conflict);
}

void
Solver::proofAdd(const std::vector<Lit> &lits)
{
    if (proof)
        proof->addDerived(lits);
}

void
Solver::proofAddUnit(Lit l)
{
    if (proof)
        proof->addDerived({l});
}

std::vector<Clause>
Solver::liveClauses(bool include_learned) const
{
    std::vector<Clause> out;
    // Unit facts live on the root trail, not in the clause vector.
    size_t root_end = trailLims.empty() ? trail.size() : trailLims[0];
    for (size_t i = 0; i < root_end; i++) {
        if (reasons[trail[i].var()] == kNoReason)
            out.push_back({trail[i]});
    }
    for (ClauseRef cref = 0; cref < static_cast<ClauseRef>(clauses.size());
         cref++) {
        const auto &c = clauses[cref];
        if (c.deleted || (c.learned && !include_learned))
            continue;
        out.emplace_back(c.lits().begin(), c.lits().end());
    }
    return out;
}

bool
Solver::checkModel() const
{
    // lastResult defaults to Sat, so an untouched solver would report
    // vacuous success; haveModel distinguishes "never solved" from that.
    if (lastResult != SolveResult::Sat || !haveModel)
        return false;
    if (modelStale)
        reconstructModel();
    for (ClauseRef cref = 0; cref < static_cast<ClauseRef>(clauses.size());
         cref++) {
        const auto &c = clauses[cref];
        if (c.deleted || c.learned)
            continue;
        bool satisfied = false;
        for (Lit l : c.lits()) {
            if (l.var() < static_cast<Var>(model.size()) && modelValue(l)) {
                satisfied = true;
                break;
            }
        }
        if (!satisfied)
            return false;
    }
    // The clauses removed by variable elimination must hold too: the
    // reconstructed values of eliminated variables stand in for them.
    for (uint32_t c = 0; c < elimClauseEnds.size(); c++) {
        bool satisfied = false;
        for (Lit l : elimClause(c)) {
            if (modelValue(l)) {
                satisfied = true;
                break;
            }
        }
        if (!satisfied)
            return false;
    }
    return true;
}

std::unique_ptr<Solver>
Solver::restrictedCopy(const std::vector<Group> &keep) const
{
    auto copy = std::make_unique<Solver>();
    Solver &c = *copy;
    for (int v = 0; v < numVars(); v++)
        c.newVar();
    if (!ok) {
        c.ok = false;
        return copy;
    }
    // Units first, so each copied clause is normalized against them: the
    // kept selectors' units strip the guards off their groups' clauses,
    // and a group whose selector is root-false here leaves the copy
    // inconsistent, as assuming it here would be.
    size_t root_end = trailLims.empty() ? trail.size() : trailLims[0];
    for (size_t i = 0; i < root_end; i++)
        c.addClause({trail[i]});
    std::vector<uint8_t> grouped(clauses.size(), 0);
    for (const GroupInfo &g : groups) {
        for (ClauseRef cref : g.clauseRefs)
            grouped[cref] = 1;
    }
    for (Group g : keep) {
        assert(!isReleased(g) && "copying a released group");
        c.addClause({groupLit(g)});
        for (ClauseRef cref : groups[g].clauseRefs)
            grouped[cref] = 0;
    }
    for (ClauseRef cref = 0; cref < static_cast<ClauseRef>(clauses.size());
         cref++) {
        const InternalClause &cl = clauses[cref];
        if (cl.deleted || cl.learned || grouped[cref])
            continue;
        c.addClause(Clause(cl.lits().begin(), cl.lits().end()));
    }
    if (!c.ok)
        return copy;
    // What no copied clause mentions can take any value: keep the copy
    // from deciding it, unless it may be assumed or read back.
    std::vector<uint8_t> used(static_cast<size_t>(numVars()), 0);
    for (ClauseRef cref = 0; cref < static_cast<ClauseRef>(c.clauses.size());
         cref++) {
        for (Lit l : c.clauses[cref].lits())
            used[l.var()] = 1;
    }
    for (Var v = 0; v < numVars(); v++) {
        if (!used[v] && !frozenFlags[v] && c.value(v) == LBool::Undef) {
            c.elimFlags[v] = 1;
            c.numEliminated++;
        }
    }
    return copy;
}

uint64_t
Solver::revision(const std::vector<Group> &keep) const
{
    // Every term only grows, so the sum changes whenever one of them does.
    uint64_t rev = permanentRevision;
    for (Group g : keep)
        rev += groups[g].added;
    return rev;
}

SolveResult
Solver::solveProbe(Solver &probe, const std::vector<Lit> &assumptions)
{
    // A solve here that starts at or past the budget stops at its first
    // conflict; a budget of one does the same on the probe.
    uint64_t budget = 0;
    if (conflictBudget) {
        uint64_t used = statsData.conflicts - budgetBase;
        budget = used < conflictBudget ? conflictBudget - used : 1;
    }
    probe.setConflictBudget(budget);
    SolverStats before = probe.statsData;
    SolveResult res = probe.solve(assumptions);
    const SolverStats &after = probe.statsData;
    statsData.decisions += after.decisions - before.decisions;
    statsData.propagations += after.propagations - before.propagations;
    statsData.conflicts += after.conflicts - before.conflicts;
    statsData.restarts += after.restarts - before.restarts;
    statsData.learnedClauses += after.learnedClauses - before.learnedClauses;
    statsData.minimizedLits += after.minimizedLits - before.minimizedLits;
    statsData.solves += after.solves - before.solves;
    statsData.keptLevels += after.keptLevels - before.keptLevels;
    return res;
}

const std::vector<Lit> &
Solver::conflictAssumptions() const
{
    assert(lastResult == SolveResult::Unsat &&
           "conflictAssumptions() is only meaningful after Unsat");
    return conflict;
}

void
Solver::setConflictBudget(uint64_t budget)
{
    conflictBudget = budget;
    budgetBase = statsData.conflicts;
}

// ---------------------------------------------------------------------------
// Activity-ordered variable heap
// ---------------------------------------------------------------------------

void
Solver::heapInsert(Var v)
{
    assert(!heapContains(v));
    heapIndex[v] = static_cast<int>(heap.size());
    heap.push_back(v);
    heapPercolateUp(heapIndex[v]);
}

void
Solver::heapUpdate(Var v)
{
    heapPercolateUp(heapIndex[v]);
}

Var
Solver::heapRemoveMax()
{
    Var v = heap[0];
    heap[0] = heap.back();
    heapIndex[heap[0]] = 0;
    heap.pop_back();
    heapIndex[v] = -1;
    if (!heap.empty())
        heapPercolateDown(0);
    return v;
}

void
Solver::heapPercolateUp(int i)
{
    Var v = heap[i];
    while (i > 0) {
        int parent = (i - 1) / 2;
        if (activity[heap[parent]] >= activity[v])
            break;
        heap[i] = heap[parent];
        heapIndex[heap[i]] = i;
        i = parent;
    }
    heap[i] = v;
    heapIndex[v] = i;
}

void
Solver::heapPercolateDown(int i)
{
    Var v = heap[i];
    int n = static_cast<int>(heap.size());
    for (;;) {
        int child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && activity[heap[child + 1]] > activity[heap[child]])
            child++;
        if (activity[heap[child]] <= activity[v])
            break;
        heap[i] = heap[child];
        heapIndex[heap[i]] = i;
        i = child;
    }
    heap[i] = v;
    heapIndex[v] = i;
}

} // namespace lts::sat
