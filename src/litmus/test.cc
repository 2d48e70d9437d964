#include "litmus/test.hh"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>

namespace lts::litmus
{

std::vector<int>
LitmusTest::threadEvents(int tid) const
{
    std::vector<int> out;
    for (const auto &e : events) {
        if (e.tid == tid)
            out.push_back(e.id);
    }
    return out;
}

BitMatrix
LitmusTest::poMatrix() const
{
    BitMatrix po(size());
    for (size_t i = 0; i < size(); i++) {
        for (size_t j = i + 1; j < size(); j++) {
            if (events[i].tid == events[j].tid)
                po.set(i, j);
        }
    }
    return po;
}

BitMatrix
LitmusTest::sameLocMatrix() const
{
    BitMatrix m(size());
    for (size_t i = 0; i < size(); i++) {
        for (size_t j = 0; j < size(); j++) {
            if (events[i].isMemory() && events[j].isMemory() &&
                events[i].loc == events[j].loc) {
                m.set(i, j);
            }
        }
    }
    return m;
}

BitMatrix
LitmusTest::sameWgMatrix() const
{
    BitMatrix m(size());
    for (size_t i = 0; i < size(); i++) {
        for (size_t j = 0; j < size(); j++) {
            if (workgroupOf(events[i].tid) == workgroupOf(events[j].tid))
                m.set(i, j);
        }
    }
    return m;
}

BitMatrix
LitmusTest::depMatrix() const
{
    BitMatrix m = addrDep;
    m |= dataDep;
    m |= ctrlDep;
    return m;
}

std::string
LitmusTest::validate() const
{
    size_t n = size();
    // Event ids dense and in order.
    for (size_t i = 0; i < n; i++) {
        if (events[i].id != static_cast<int>(i))
            return "event ids not dense";
    }
    // Threads: contiguous blocks, ids 0..numThreads-1 in order.
    int cur = -1;
    for (const auto &e : events) {
        if (e.tid < cur)
            return "thread blocks not contiguous";
        if (e.tid > cur && e.tid != cur + 1)
            return "thread ids not dense";
        cur = std::max(cur, e.tid);
    }
    if (cur + 1 != numThreads)
        return "numThreads mismatch";
    if (!threadWg.empty() &&
        threadWg.size() != static_cast<size_t>(numThreads))
        return "threadWg size mismatch";
    // Locations dense; fences have no location.
    int max_loc = -1;
    for (const auto &e : events) {
        if (e.isFence() && e.loc != -1)
            return "fence with a location";
        if (e.isMemory()) {
            if (e.loc < 0)
                return "memory event without location";
            max_loc = std::max(max_loc, e.loc);
        }
    }
    if (max_loc + 1 > numLocs)
        return "numLocs mismatch";
    // Dependencies: Read -> po-later same-thread event.
    for (const auto *dep : {&addrDep, &dataDep, &ctrlDep}) {
        for (size_t i = 0; i < n; i++) {
            for (size_t j = 0; j < n; j++) {
                if (!dep->test(i, j))
                    continue;
                if (!events[i].isRead())
                    return "dependency source is not a read";
                if (j <= i || events[i].tid != events[j].tid)
                    return "dependency target not po-later";
            }
        }
    }
    // RMW: read -> adjacent same-location write.
    for (size_t i = 0; i < n; i++) {
        for (size_t j = 0; j < n; j++) {
            if (!rmw.test(i, j))
                continue;
            if (!events[i].isRead() || !events[j].isWrite())
                return "rmw must pair a read with a write";
            if (j != i + 1 || events[i].tid != events[j].tid)
                return "rmw pair must be po-adjacent";
            if (events[i].loc != events[j].loc)
                return "rmw pair must target one location";
        }
    }
    if (hasForbidden) {
        // rf: writes to reads, same location, at most one source per read.
        for (size_t j = 0; j < n; j++) {
            int sources = 0;
            for (size_t i = 0; i < n; i++) {
                if (!forbidden.rf.test(i, j))
                    continue;
                sources++;
                if (!events[i].isWrite() || !events[j].isRead())
                    return "rf must go from a write to a read";
                if (events[i].loc != events[j].loc)
                    return "rf endpoints disagree on location";
            }
            if (sources > 1)
                return "read with multiple rf sources";
        }
        // co: strict total order per location over writes.
        for (size_t i = 0; i < n; i++) {
            for (size_t j = 0; j < n; j++) {
                if (!forbidden.co.test(i, j))
                    continue;
                if (!events[i].isWrite() || !events[j].isWrite())
                    return "co must relate writes";
                if (events[i].loc != events[j].loc)
                    return "co endpoints disagree on location";
            }
        }
        if (!forbidden.co.isAcyclic())
            return "cyclic co";
        for (size_t i = 0; i < n; i++) {
            for (size_t j = 0; j < n; j++) {
                if (i != j && events[i].isWrite() && events[j].isWrite() &&
                    events[i].loc == events[j].loc &&
                    !forbidden.co.test(i, j) && !forbidden.co.test(j, i)) {
                    return "co not total over a location";
                }
            }
        }
    }
    return "";
}

std::vector<int>
LitmusTest::writeValues(const Outcome &outcome) const
{
    std::vector<int> values(size(), -1);
    for (size_t i = 0; i < size(); i++) {
        if (!events[i].isWrite())
            continue;
        int pos = 1;
        for (size_t j = 0; j < size(); j++) {
            if (outcome.co.test(j, i))
                pos++;
        }
        values[i] = pos;
    }
    return values;
}

std::vector<int>
LitmusTest::registerValues(const Outcome &outcome) const
{
    std::vector<int> wv = writeValues(outcome);
    std::vector<int> values(size(), -1);
    for (size_t j = 0; j < size(); j++) {
        if (!events[j].isRead())
            continue;
        values[j] = 0; // initial value unless an rf edge says otherwise
        for (size_t i = 0; i < size(); i++) {
            if (outcome.rf.test(i, j))
                values[j] = wv[i];
        }
    }
    return values;
}

std::vector<int>
LitmusTest::finalValues(const Outcome &outcome) const
{
    std::vector<int> wv = writeValues(outcome);
    std::vector<int> finals(numLocs, 0);
    for (size_t i = 0; i < size(); i++) {
        if (!events[i].isWrite())
            continue;
        bool is_last = true;
        for (size_t j = 0; j < size(); j++) {
            if (outcome.co.test(i, j))
                is_last = false;
        }
        if (is_last)
            finals[events[i].loc] = wv[i];
    }
    return finals;
}

// ---------------------------------------------------------------------------
// TestBuilder
// ---------------------------------------------------------------------------

int
TestBuilder::newThread()
{
    workgroups.push_back(-1);
    return threads++;
}

int
TestBuilder::declareLoc(const std::string &loc)
{
    return locId(loc);
}

void
TestBuilder::setWorkgroup(int tid, int wg)
{
    workgroups.at(tid) = wg;
}

void
TestBuilder::setScope(int ev, Scope scope)
{
    pending.at(ev).scope = scope;
}

int
TestBuilder::locId(const std::string &loc)
{
    for (size_t i = 0; i < locNames.size(); i++) {
        if (locNames[i] == loc)
            return static_cast<int>(i);
    }
    locNames.push_back(loc);
    return static_cast<int>(locNames.size()) - 1;
}

int
TestBuilder::read(int tid, const std::string &loc, MemOrder order)
{
    pending.push_back(PendingEvent{tid, EventType::Read, locId(loc), order});
    return static_cast<int>(pending.size()) - 1;
}

int
TestBuilder::write(int tid, const std::string &loc, MemOrder order)
{
    pending.push_back(PendingEvent{tid, EventType::Write, locId(loc), order});
    return static_cast<int>(pending.size()) - 1;
}

int
TestBuilder::fence(int tid, MemOrder order)
{
    pending.push_back(PendingEvent{tid, EventType::Fence, -1, order});
    return static_cast<int>(pending.size()) - 1;
}

void
TestBuilder::addrDepend(int from, int to)
{
    addrDeps.emplace_back(from, to);
}

void
TestBuilder::dataDepend(int from, int to)
{
    dataDeps.emplace_back(from, to);
}

void
TestBuilder::ctrlDepend(int from, int to)
{
    ctrlDeps.emplace_back(from, to);
}

void
TestBuilder::pairRmw(int r, int w)
{
    rmws.emplace_back(r, w);
}

void
TestBuilder::readsFrom(int w, int r)
{
    rfEdges.emplace_back(w, r);
}

void
TestBuilder::readsInitial(int r)
{
    initialReads.push_back(r);
}

void
TestBuilder::coOrder(int earlier, int later)
{
    coEdges.emplace_back(earlier, later);
}

void
TestBuilder::markForbidden()
{
    forceForbidden = true;
}

void
TestBuilder::clear()
{
    pending.clear();
    locNames.clear();
    workgroups.clear();
    threads = 0;
    for (auto *edges :
         {&addrDeps, &dataDeps, &ctrlDeps, &rmws, &rfEdges, &coEdges})
        edges->clear();
    initialReads.clear();
    forceForbidden = false;
}

LitmusTest
TestBuilder::build(const std::string &name)
{
    size_t n = pending.size();
    // Renumber events so that each thread occupies a contiguous block,
    // preserving per-thread insertion order.
    std::vector<int> old_to_new(n);
    {
        int next = 0;
        for (int t = 0; t < threads; t++) {
            for (size_t i = 0; i < n; i++) {
                if (pending[i].tid == t)
                    old_to_new[i] = next++;
            }
        }
        if (next != static_cast<int>(n))
            throw std::logic_error("event with undeclared thread id");
    }

    LitmusTest test;
    test.name = name;
    test.numThreads = threads;
    test.numLocs = static_cast<int>(locNames.size());
    test.events.resize(n);
    for (size_t i = 0; i < n; i++) {
        Event e;
        e.id = old_to_new[i];
        e.tid = pending[i].tid;
        e.type = pending[i].type;
        e.loc = pending[i].loc;
        e.order = pending[i].order;
        e.scope = pending[i].scope;
        test.events[old_to_new[i]] = e;
    }

    // Workgroups: declared groups keep their sharing; undeclared threads
    // get fresh groups; labels renumber by first use; a trivial grouping
    // (no sharing) canonicalizes to the empty vector.
    bool any_wg = false;
    for (int wg : workgroups)
        any_wg = any_wg || wg >= 0;
    if (any_wg) {
        std::vector<int> assigned(threads, -1);
        std::map<int, int> label_map;
        int next_wg = 0;
        for (int t = 0; t < threads; t++) {
            if (workgroups[t] >= 0) {
                auto it = label_map.find(workgroups[t]);
                if (it == label_map.end())
                    it = label_map.emplace(workgroups[t], next_wg++).first;
                assigned[t] = it->second;
            } else {
                assigned[t] = next_wg++;
            }
        }
        test.threadWg = assigned;
        if (!test.hasWorkgroups())
            test.threadWg.clear();
    }

    test.addrDep = BitMatrix(n);
    test.dataDep = BitMatrix(n);
    test.ctrlDep = BitMatrix(n);
    test.rmw = BitMatrix(n);
    // .at() everywhere an edge endpoint indexes the remap: declared edges
    // come straight from parsers, and an out-of-range event id must
    // surface as a catchable error, not out-of-bounds vector access.
    for (auto [a, b] : addrDeps)
        test.addrDep.set(old_to_new.at(a), old_to_new.at(b));
    for (auto [a, b] : dataDeps)
        test.dataDep.set(old_to_new.at(a), old_to_new.at(b));
    for (auto [a, b] : ctrlDeps)
        test.ctrlDep.set(old_to_new.at(a), old_to_new.at(b));
    for (auto [a, b] : rmws)
        test.rmw.set(old_to_new.at(a), old_to_new.at(b));

    bool any_outcome = forceForbidden || !rfEdges.empty() ||
                       !coEdges.empty() || !initialReads.empty();
    test.forbidden = Outcome(n);
    if (any_outcome) {
        test.hasForbidden = true;
        for (auto [w, r] : rfEdges)
            test.forbidden.rf.set(old_to_new.at(w), old_to_new.at(r));

        // Complete co into a strict total order per location: respect the
        // declared edges, break ties by event id.
        BitMatrix declared(n);
        for (auto [a, b] : coEdges)
            declared.set(old_to_new.at(a), old_to_new.at(b));
        if (!coEdges.empty())
            declared = declared.transitiveClosure();
        std::vector<int> writes, ordered;
        std::vector<bool> taken;
        for (int loc = 0; loc < test.numLocs; loc++) {
            writes.clear();
            for (size_t i = 0; i < n; i++) {
                if (test.events[i].isWrite() &&
                    test.events[i].loc == loc) {
                    writes.push_back(static_cast<int>(i));
                }
            }
            // Topological completion: repeatedly take the smallest-id
            // write with no declared predecessor left (a stable_sort with
            // a partial order would not be a strict weak ordering).
            ordered.clear();
            taken.assign(writes.size(), false);
            while (ordered.size() < writes.size()) {
                int pick = -1;
                for (size_t i = 0; i < writes.size(); i++) {
                    if (taken[i])
                        continue;
                    bool blocked = false;
                    for (size_t j = 0; j < writes.size(); j++) {
                        if (!taken[j] && j != i &&
                            declared.test(writes[j], writes[i])) {
                            blocked = true;
                            break;
                        }
                    }
                    if (!blocked) {
                        pick = static_cast<int>(i);
                        break;
                    }
                }
                if (pick < 0)
                    throw std::logic_error("cyclic co declared in test");
                taken[pick] = true;
                ordered.push_back(writes[pick]);
            }
            for (size_t i = 0; i < ordered.size(); i++) {
                for (size_t j = i + 1; j < ordered.size(); j++)
                    test.forbidden.co.set(ordered[i], ordered[j]);
            }
        }
    }

    std::string err = test.validate();
    if (!err.empty())
        throw std::logic_error("TestBuilder produced invalid test '" + name +
                               "': " + err);
    return test;
}

} // namespace lts::litmus
