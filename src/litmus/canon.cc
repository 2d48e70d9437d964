#include "litmus/canon.hh"

#include <algorithm>
#include <charconv>
#include <numeric>
#include <utility>

#include "common/hash.hh"

namespace lts::litmus
{

namespace
{

/** Append the decimal form of @p v: the bytes std::to_string gives. */
template <typename Int>
void
appendInt(std::string &s, Int v)
{
    char buf[24];
    char *end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    s.append(buf, end);
}

/** Append "i>j," for every pair of @p m within n atoms, row-major. */
void
appendEdges(std::string &s, const BitMatrix &m, size_t n)
{
    m.forEachPair([&](size_t i, size_t j) {
        if (i >= n || j >= n)
            return;
        appendInt(s, i);
        s += '>';
        appendInt(s, j);
        s += ',';
    });
}

/** Append staticSerialize(@p test) to @p s. */
void
appendStatic(std::string &s, const LitmusTest &test)
{
    appendInt(s, test.numThreads);
    s += '/';
    appendInt(s, test.numLocs);
    s += '/';
    for (const auto &e : test.events) {
        appendInt(s, e.tid);
        s += ':';
        appendInt(s, static_cast<int>(e.type));
        s += ':';
        appendInt(s, e.loc);
        s += ':';
        appendInt(s, static_cast<int>(e.order));
        s += ':';
        appendInt(s, static_cast<int>(e.scope));
        s += '|';
    }
    auto emit = [&](char tag, const BitMatrix &m) {
        s += tag;
        appendEdges(s, m, m.size());
        s += ';';
    };
    emit('A', test.addrDep);
    emit('D', test.dataDep);
    emit('C', test.ctrlDep);
    emit('M', test.rmw);
    if (test.hasWorkgroups()) {
        s += 'G';
        for (int t = 0; t < test.numThreads; t++) {
            appendInt(s, test.workgroupOf(t));
            s += ',';
        }
        s += ';';
    }
}

/** Append fullSerialize's outcome suffix for @p test to @p s. */
void
appendOutcome(std::string &s, const LitmusTest &test)
{
    if (!test.hasForbidden)
        return;
    s += "RF";
    appendEdges(s, test.forbidden.rf, test.size());
    s += "CO";
    appendEdges(s, test.forbidden.co, test.size());
}

/** A capacity that holds a key of @p test without regrowing. */
size_t
keyCapacity(const LitmusTest &test)
{
    return 32 + 16 * test.size();
}

/** Serialize one thread with thread-local address renaming. */
std::string
threadSignature(const LitmusTest &test, int tid)
{
    std::vector<int> ids = test.threadEvents(tid);
    // Thread-local location renaming by first use.
    std::vector<int> loc_map(test.numLocs, -1);
    int next_loc = 0;
    const std::pair<const BitMatrix *, const char *> intra[] = {
        {&test.addrDep, ";a"},
        {&test.dataDep, ";d"},
        {&test.ctrlDep, ";c"},
        {&test.rmw, ";m"},
    };
    std::string sig;
    sig.reserve(keyCapacity(test));
    for (size_t pos = 0; pos < ids.size(); pos++) {
        const Event &e = test.events[ids[pos]];
        appendInt(sig, static_cast<int>(e.type));
        sig += ':';
        if (e.isMemory()) {
            if (loc_map[e.loc] < 0)
                loc_map[e.loc] = next_loc++;
            appendInt(sig, loc_map[e.loc]);
        } else {
            sig += '-';
        }
        sig += ':';
        appendInt(sig, static_cast<int>(e.order));
        sig += ':';
        appendInt(sig, static_cast<int>(e.scope));
        // Intra-thread structure: deps and rmw as positional offsets.
        for (size_t to = 0; to < ids.size(); to++) {
            for (const auto &[m, tag] : intra) {
                if (m->test(ids[pos], ids[to])) {
                    sig += tag;
                    appendInt(sig, to);
                }
            }
        }
        sig += '|';
    }
    return sig;
}

/**
 * True iff permuteThreads(test, identity) returns @p test with every
 * field equal: events numbered densely and grouped by ascending thread,
 * locations and workgroup labels numbered in order of first use, and
 * every relation over exactly test.size() atoms, the outcome's empty
 * when there is none.
 */
bool
isPermutationFixedPoint(const LitmusTest &test)
{
    const size_t n = test.size();
    int tid = 0;
    int next_loc = 0;
    for (size_t i = 0; i < n; i++) {
        const Event &e = test.events[i];
        if (e.id != static_cast<int>(i) || e.tid < tid ||
            e.tid >= test.numThreads)
            return false;
        tid = e.tid;
        if (e.isMemory()) {
            if (e.loc < 0 || e.loc > next_loc || e.loc >= test.numLocs)
                return false;
            if (e.loc == next_loc)
                next_loc++;
        }
    }
    if (test.hasWorkgroups()) {
        if (test.threadWg.size() != static_cast<size_t>(test.numThreads))
            return false;
        int next_wg = 0;
        for (int wg : test.threadWg) {
            if (wg < 0 || wg > next_wg)
                return false;
            if (wg == next_wg)
                next_wg++;
        }
    } else if (!test.threadWg.empty()) {
        return false;
    }
    for (const BitMatrix *m : {&test.addrDep, &test.dataDep, &test.ctrlDep,
                               &test.rmw, &test.forbidden.rf,
                               &test.forbidden.co}) {
        if (m->size() != n)
            return false;
    }
    return test.hasForbidden || test.forbidden == Outcome(n);
}

void
remapMatrix(const BitMatrix &in, const std::vector<int> &old_to_new,
            BitMatrix &out)
{
    for (size_t i = 0; i < in.size(); i++) {
        for (size_t j = 0; j < in.size(); j++) {
            if (in.test(i, j))
                out.set(old_to_new[i], old_to_new[j]);
        }
    }
}

} // namespace

LitmusTest
permuteThreads(const LitmusTest &test, const std::vector<int> &thread_order)
{
    size_t n = test.size();
    LitmusTest out;
    out.name = test.name;
    out.numThreads = test.numThreads;
    out.numLocs = test.numLocs;
    out.events.resize(n);
    out.addrDep = BitMatrix(n);
    out.dataDep = BitMatrix(n);
    out.ctrlDep = BitMatrix(n);
    out.rmw = BitMatrix(n);
    out.hasForbidden = test.hasForbidden;
    out.forbidden = Outcome(n);

    // Event renumbering: threads in the given order, per-thread order kept.
    std::vector<int> old_to_new(n);
    int next = 0;
    for (int new_tid = 0; new_tid < test.numThreads; new_tid++) {
        for (int id : test.threadEvents(thread_order[new_tid]))
            old_to_new[id] = next++;
    }

    // Location renaming by first use in the new event order.
    std::vector<int> new_to_old(n);
    for (size_t i = 0; i < n; i++)
        new_to_old[old_to_new[i]] = static_cast<int>(i);
    std::vector<int> loc_map(test.numLocs, -1);
    int next_loc = 0;
    for (size_t new_id = 0; new_id < n; new_id++) {
        const Event &e = test.events[new_to_old[new_id]];
        if (e.isMemory() && loc_map[e.loc] < 0)
            loc_map[e.loc] = next_loc++;
    }

    // Thread renumbering: position in thread_order.
    std::vector<int> tid_map(test.numThreads);
    for (int new_tid = 0; new_tid < test.numThreads; new_tid++)
        tid_map[thread_order[new_tid]] = new_tid;

    // Workgroups: follow the thread permutation, relabel by first use.
    if (test.hasWorkgroups()) {
        out.threadWg.resize(test.numThreads);
        std::vector<int> wg_map;
        for (int new_tid = 0; new_tid < test.numThreads; new_tid++) {
            int old_wg = test.workgroupOf(thread_order[new_tid]);
            int label = -1;
            for (size_t k = 0; k < wg_map.size(); k++) {
                if (wg_map[k] == old_wg)
                    label = static_cast<int>(k);
            }
            if (label < 0) {
                label = static_cast<int>(wg_map.size());
                wg_map.push_back(old_wg);
            }
            out.threadWg[new_tid] = label;
        }
    }

    for (size_t i = 0; i < n; i++) {
        Event e = test.events[i];
        e.id = old_to_new[i];
        e.tid = tid_map[e.tid];
        if (e.isMemory())
            e.loc = loc_map[e.loc];
        out.events[e.id] = e;
    }
    remapMatrix(test.addrDep, old_to_new, out.addrDep);
    remapMatrix(test.dataDep, old_to_new, out.dataDep);
    remapMatrix(test.ctrlDep, old_to_new, out.ctrlDep);
    remapMatrix(test.rmw, old_to_new, out.rmw);
    if (test.hasForbidden) {
        remapMatrix(test.forbidden.rf, old_to_new, out.forbidden.rf);
        remapMatrix(test.forbidden.co, old_to_new, out.forbidden.co);
    }
    return out;
}

std::string
staticSerialize(const LitmusTest &test)
{
    std::string s;
    s.reserve(keyCapacity(test));
    appendStatic(s, test);
    return s;
}

std::string
fullSerialize(const LitmusTest &test)
{
    std::string s;
    s.reserve(keyCapacity(test));
    appendStatic(s, test);
    appendOutcome(s, test);
    return s;
}

LitmusTest
canonicalize(const LitmusTest &test, CanonMode mode)
{
    if (mode == CanonMode::Paper) {
        // Sort threads by their local signature; ties keep input order,
        // which is exactly the WWC blind spot of Figure 14. One thread
        // has one order, so it needs no signature.
        std::vector<int> order(test.numThreads);
        std::iota(order.begin(), order.end(), 0);
        if (test.numThreads > 1) {
            std::vector<std::string> sigs(test.numThreads);
            for (int t = 0; t < test.numThreads; t++)
                sigs[t] = threadSignature(test, t);
            std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
                return sigs[a] < sigs[b];
            });
        }
        // A test already in canonical form, as every synthesized one
        // is, comes back as it is, without the remapping.
        if (std::is_sorted(order.begin(), order.end()) &&
            isPermutationFixedPoint(test))
            return test;
        return permuteThreads(test, order);
    }

    // Exact: minimize the (staticSerialize, fullSerialize) pair over all
    // thread permutations. Minimizing the full key as tie-break — not
    // just the static key — makes the result a pure function of the
    // test's isomorphism class: two members differing only in how the
    // outcome lands on statically identical threads canonicalize to the
    // same bytes, so the synthesizer need not enumerate a class
    // exhaustively to emit a deterministic representative. fullSerialize
    // extends staticSerialize with an outcome suffix, so comparing full
    // keys compares (static, outcome) lexicographically.
    std::vector<int> order(test.numThreads);
    std::iota(order.begin(), order.end(), 0);
    LitmusTest best = permuteThreads(test, order);
    std::string best_static = staticSerialize(best);
    std::string best_full = fullSerialize(best);
    // Candidate keys reuse these two buffers across permutations.
    std::string s, f;
    s.reserve(keyCapacity(test));
    f.reserve(keyCapacity(test));
    while (std::next_permutation(order.begin(), order.end())) {
        LitmusTest candidate = permuteThreads(test, order);
        s.clear();
        appendStatic(s, candidate);
        if (s > best_static)
            continue;
        f = s;
        appendOutcome(f, candidate);
        if (s < best_static || f < best_full) {
            std::swap(best_static, s);
            std::swap(best_full, f);
            best = std::move(candidate);
        }
    }
    return best;
}

uint64_t
canonicalHash(const LitmusTest &test, CanonMode mode)
{
    return hashCombine(hashInit(), staticSerialize(canonicalize(test, mode)));
}

} // namespace lts::litmus
