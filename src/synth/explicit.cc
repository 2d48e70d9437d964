#include "synth/explicit.hh"

#include <set>

#include "common/timer.hh"
#include "mm/convert.hh"
#include "mm/exprs.hh"
#include "rel/eval.hh"
#include "synth/executor.hh"
#include "synth/minimality.hh"

namespace lts::synth
{

using litmus::EventType;
using litmus::LitmusTest;
using litmus::MemOrder;
using litmus::Outcome;

namespace
{

/** All compositions of @p total into ordered positive parts. */
std::vector<std::vector<int>>
compositions(int total)
{
    std::vector<std::vector<int>> out;
    std::vector<int> cur;
    std::function<void(int)> rec = [&](int left) {
        if (left == 0) {
            out.push_back(cur);
            return;
        }
        for (int part = 1; part <= left; part++) {
            cur.push_back(part);
            rec(left - part);
            cur.pop_back();
        }
    };
    rec(total);
    return out;
}

/** Allowed annotations per event type for the model's vocabulary. */
std::vector<MemOrder>
allowedOrders(const mm::Model &model, EventType type)
{
    const auto &f = model.features();
    const auto &vocab = model.vocab();
    std::vector<MemOrder> out = {MemOrder::Plain};
    switch (type) {
      case EventType::Read:
        if (f.acqRelAccess)
            out.push_back(MemOrder::Acquire);
        if (f.scAccess)
            out.push_back(MemOrder::SeqCst);
        break;
      case EventType::Write:
        if (f.acqRelAccess)
            out.push_back(MemOrder::Release);
        if (f.scAccess)
            out.push_back(MemOrder::SeqCst);
        break;
      case EventType::Fence:
        if (f.acqRelAccess && vocab.contains(mm::kAcq)) {
            out.push_back(MemOrder::Acquire);
            out.push_back(MemOrder::Release);
        }
        if (f.acqRelFence)
            out.push_back(MemOrder::AcqRel);
        if (f.scFence)
            out.push_back(MemOrder::SeqCst);
        break;
    }
    return out;
}

/** A candidate program being assembled. */
struct Candidate
{
    std::vector<int> tids;
    std::vector<EventType> types;
    std::vector<int> locs;          // -1 for fences
    std::vector<MemOrder> orders;
    std::vector<litmus::Scope> scopes;
    std::vector<int> wgs;           // workgroup per thread (scoped models)
    std::vector<std::tuple<int, int, int>> deps; // (kind 0/1/2, from, to)
    std::vector<std::pair<int, int>> rmws;
};

LitmusTest
materialize(const mm::Model &model, const Candidate &c)
{
    litmus::TestBuilder b;
    int threads = c.tids.empty() ? 0 : c.tids.back() + 1;
    for (int t = 0; t < threads; t++) {
        b.newThread();
        if (!c.wgs.empty())
            b.setWorkgroup(t, c.wgs[t]);
    }
    std::vector<int> ids(c.tids.size());
    for (size_t i = 0; i < c.tids.size(); i++) {
        std::string loc = "m" + std::to_string(c.locs[i]);
        switch (c.types[i]) {
          case EventType::Read:
            ids[i] = b.read(c.tids[i], loc, c.orders[i]);
            break;
          case EventType::Write:
            ids[i] = b.write(c.tids[i], loc, c.orders[i]);
            break;
          case EventType::Fence:
            ids[i] = b.fence(c.tids[i], c.orders[i]);
            break;
        }
        if (!c.scopes.empty())
            b.setScope(ids[i], c.scopes[i]);
    }
    for (auto [kind, from, to] : c.deps) {
        if (kind == 0)
            b.addrDepend(ids[from], ids[to]);
        else if (kind == 1)
            b.dataDepend(ids[from], ids[to]);
        else
            b.ctrlDepend(ids[from], ids[to]);
    }
    for (auto [r, w] : c.rmws)
        b.pairRmw(ids[r], ids[w]);
    (void)model;
    return b.build("");
}

/** Check the model's well-formedness on the program (static side). */
bool
staticallyWellFormed(const mm::Model &model, const LitmusTest &test)
{
    // Build a trivially complete outcome (all reads initial, co in event
    // order, one sc edge when required) so the dynamic facts are
    // satisfiable, then evaluate the full well-formedness formula.
    Outcome outcome(test.size());
    std::vector<std::vector<int>> writes_per_loc(test.numLocs);
    for (const auto &e : test.events) {
        if (e.isWrite())
            writes_per_loc[e.loc].push_back(e.id);
    }
    for (const auto &ws : writes_per_loc) {
        for (size_t i = 0; i < ws.size(); i++) {
            for (size_t j = i + 1; j < ws.size(); j++)
                outcome.co.set(ws[i], ws[j]);
        }
    }
    std::vector<std::pair<int, int>> sc;
    if (model.features().scOrder) {
        std::vector<int> fences;
        for (const auto &e : test.events) {
            if (e.isFence() && e.order == MemOrder::SeqCst)
                fences.push_back(e.id);
        }
        if (fences.size() > 2)
            return false; // outside the lone-sc workaround's space
        if (fences.size() == 2)
            sc.emplace_back(fences[0], fences[1]);
    }
    rel::Instance inst = mm::toInstance(model, test, outcome, sc);
    rel::Evaluator ev(inst);
    return ev.formula(model.wellFormed(test.size()));
}

} // namespace

void
forEachProgram(const mm::Model &model, int size,
               const std::function<void(const LitmusTest &)> &fn)
{
    const auto &feats = model.features();
    std::vector<EventType> type_choices = {EventType::Read, EventType::Write};
    if (feats.fences)
        type_choices.push_back(EventType::Fence);

    for (const auto &shape : compositions(size)) {
        Candidate c;
        for (size_t t = 0; t < shape.size(); t++) {
            for (int i = 0; i < shape[t]; i++)
                c.tids.push_back(static_cast<int>(t));
        }
        c.types.assign(size, EventType::Read);
        c.locs.assign(size, -1);
        c.orders.assign(size, MemOrder::Plain);
        c.scopes.assign(size, litmus::Scope::System);

        // Recursive enumeration: types -> locations -> orders -> scopes
        // -> deps -> rmw. Locations use restricted-growth strings so each
        // location partition is generated once.
        std::function<void(int)> enumRmw;
        std::function<void(int)> enumDeps;
        std::function<void(int)> enumScopes;
        std::function<void(int)> enumOrders;
        std::function<void(int, int)> enumLocs;
        std::function<void(int)> enumTypes;

        enumTypes = [&](int i) {
            if (i == size) {
                enumLocs(0, 0);
                return;
            }
            for (EventType t : type_choices) {
                c.types[i] = t;
                enumTypes(i + 1);
            }
        };

        enumLocs = [&](int i, int used) {
            if (i == size) {
                enumOrders(0);
                return;
            }
            if (c.types[i] == EventType::Fence) {
                c.locs[i] = -1;
                enumLocs(i + 1, used);
                return;
            }
            for (int loc = 0; loc <= used && loc < size; loc++) {
                c.locs[i] = loc;
                enumLocs(i + 1, std::max(used, loc + 1));
            }
        };

        enumOrders = [&](int i) {
            if (i == size) {
                enumScopes(0);
                return;
            }
            for (MemOrder o : allowedOrders(model, c.types[i])) {
                c.orders[i] = o;
                enumOrders(i + 1);
            }
        };

        // Scope enumeration: synchronizing ops of scoped models may be
        // workgroup- or system-scoped (FenceSC stays system-scoped; the
        // well-formedness check rejects the rest).
        enumScopes = [&](int i) {
            if (!model.features().scopes || i == size) {
                if (i == size || !model.features().scopes)
                    enumDeps(0);
                return;
            }
            bool sync_op = c.types[i] == EventType::Fence ||
                           c.orders[i] != MemOrder::Plain;
            bool fence_sc = c.types[i] == EventType::Fence &&
                            c.orders[i] == MemOrder::SeqCst;
            c.scopes[i] = litmus::Scope::System;
            if (sync_op && !fence_sc) {
                enumScopes(i + 1);
                c.scopes[i] = litmus::Scope::WorkGroup;
                enumScopes(i + 1);
                c.scopes[i] = litmus::Scope::System;
            } else {
                enumScopes(i + 1);
            }
        };

        // Dependency slots: (read, po-later same-thread target).
        std::vector<std::pair<int, int>> dep_slots;
        if (feats.deps) {
            for (int i = 0; i < size; i++) {
                for (int j = i + 1; j < size; j++) {
                    if (c.tids[i] == c.tids[j])
                        dep_slots.emplace_back(i, j);
                }
            }
        }
        enumDeps = [&](int slot) {
            if (!feats.deps || slot == static_cast<int>(dep_slots.size())) {
                enumRmw(0);
                return;
            }
            auto [from, to] = dep_slots[slot];
            if (c.types[from] != EventType::Read) {
                enumDeps(slot + 1);
                return;
            }
            bool to_mem = c.types[to] != EventType::Fence;
            bool to_write = c.types[to] == EventType::Write;
            // Each subset of {addr, data, ctrl} respecting target types.
            for (int mask = 0; mask < 8; mask++) {
                if ((mask & 1) && !to_mem)
                    continue; // addr needs a memory target
                if ((mask & 2) && !to_write)
                    continue; // data needs a write target
                size_t before = c.deps.size();
                if (mask & 1)
                    c.deps.emplace_back(0, from, to);
                if (mask & 2)
                    c.deps.emplace_back(1, from, to);
                if (mask & 4)
                    c.deps.emplace_back(2, from, to);
                enumDeps(slot + 1);
                c.deps.resize(before);
            }
        };

        enumRmw = [&](int i) {
            // Eligible adjacent read->write same-thread same-loc pairs are
            // disjoint, so enumerate an include/exclude bit per pair.
            std::vector<std::pair<int, int>> pairs;
            for (int a = 0; a + 1 < size; a++) {
                if (c.tids[a] == c.tids[a + 1] &&
                    c.types[a] == EventType::Read &&
                    c.types[a + 1] == EventType::Write &&
                    c.locs[a] == c.locs[a + 1]) {
                    pairs.emplace_back(a, a + 1);
                }
            }
            (void)i;
            int combos = feats.rmw ? (1 << pairs.size()) : 1;
            for (int mask = 0; mask < combos; mask++) {
                c.rmws.clear();
                for (size_t p = 0; p < pairs.size(); p++) {
                    if (mask & (1 << p))
                        c.rmws.push_back(pairs[p]);
                }
                LitmusTest test = materialize(model, c);
                if (staticallyWellFormed(model, test))
                    fn(test);
            }
            c.rmws.clear();
        };

        if (!model.features().scopes) {
            enumTypes(0);
            continue;
        }
        // Scoped models: additionally partition the threads into
        // contiguous workgroups.
        int threads = static_cast<int>(shape.size());
        for (const auto &wg_shape : compositions(threads)) {
            c.wgs.clear();
            for (size_t g = 0; g < wg_shape.size(); g++) {
                for (int t = 0; t < wg_shape[g]; t++)
                    c.wgs.push_back(static_cast<int>(g));
            }
            enumTypes(0);
        }
    }
}

std::map<int, uint64_t>
countAllPrograms(const mm::Model &model, int min_size, int max_size,
                 litmus::CanonMode mode)
{
    std::map<int, uint64_t> out;
    for (int size = min_size; size <= max_size; size++) {
        std::set<std::string> seen;
        forEachProgram(model, size, [&](const LitmusTest &test) {
            seen.insert(litmus::staticSerialize(canonicalize(test, mode)));
        });
        out[size] = seen.size();
    }
    return out;
}

Suite
explicitSynthesizeAxiom(const mm::Model &model, const std::string &axiom_name,
                        const SynthOptions &options)
{
    Suite suite;
    suite.model = model.name();
    suite.axiom = axiom_name;
    std::set<std::string> seen;

    for (int size = options.minSize; size <= options.maxSize; size++) {
        Timer timer;
        int found = 0;
        rel::FormulaPtr criterion =
            minimalityFormula(model, axiom_name, size);

        forEachProgram(model, size, [&](const LitmusTest &test) {
            // SC-order candidates (lone-edge space only, Figure 19).
            std::vector<std::vector<std::pair<int, int>>> scs = {{}};
            if (model.features().scOrder) {
                std::vector<int> fences;
                for (const auto &e : test.events) {
                    if (e.isFence() && e.order == MemOrder::SeqCst)
                        fences.push_back(e.id);
                }
                if (fences.size() == 2) {
                    scs = {{{fences[0], fences[1]}},
                           {{fences[1], fences[0]}}};
                }
            }
            for (const auto &outcome : allOutcomes(test)) {
                bool minimal = false;
                for (const auto &sc : scs) {
                    rel::Instance inst =
                        mm::toInstance(model, test, outcome, sc);
                    rel::Evaluator ev(inst);
                    if (ev.formula(criterion)) {
                        minimal = true;
                        break;
                    }
                }
                if (!minimal)
                    continue;
                suite.rawInstances++;
                LitmusTest with_outcome = test;
                with_outcome.hasForbidden = true;
                with_outcome.forbidden = outcome;
                LitmusTest canon =
                    litmus::canonicalize(with_outcome, options.canon);
                std::string key = litmus::staticSerialize(canon);
                if (!seen.count(key)) {
                    seen.insert(key);
                    canon.name = model.name() + "/" + axiom_name + "#x" +
                                 std::to_string(suite.tests.size());
                    suite.tests.push_back(canon);
                    found++;
                }
                break; // one witness execution per program is enough
            }
        });

        suite.testsBySize[size] = found;
        suite.secondsBySize[size] = timer.seconds();
    }
    return suite;
}

} // namespace lts::synth
