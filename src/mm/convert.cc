#include "mm/convert.hh"

#include <stdexcept>

#include "mm/exprs.hh"

namespace lts::mm
{

using litmus::Event;
using litmus::EventType;
using litmus::LitmusTest;
using litmus::MemOrder;
using litmus::Outcome;

namespace
{

/** Map a memory-order annotation to its set name ("" = none). */
std::string
annotationSet(MemOrder order)
{
    switch (order) {
      case MemOrder::Plain:
        return "";
      case MemOrder::Consume:
        throw std::invalid_argument(
            "consume is not modeled (treated as deprecated per Batty et "
            "al.); use Acquire");
      case MemOrder::Acquire:
        return kAcq;
      case MemOrder::Release:
        return kRel;
      case MemOrder::AcqRel:
        return kAcqRel;
      case MemOrder::SeqCst:
        return kSc;
    }
    return "";
}

} // namespace

rel::Instance
toInstance(const Model &model, const LitmusTest &test, const Outcome &outcome,
           const std::vector<std::pair<int, int>> &sc_order)
{
    size_t n = test.size();
    const rel::Vocabulary &vocab = model.vocab();
    rel::Instance inst(vocab, n);

    auto setOf = [&](const std::string &name) -> Bitset & {
        return inst.set(vocab.find(name).id);
    };
    auto matOf = [&](const std::string &name) -> BitMatrix & {
        return inst.matrix(vocab.find(name).id);
    };

    for (const auto &e : test.events) {
        switch (e.type) {
          case EventType::Read:
            setOf(kR).set(e.id);
            break;
          case EventType::Write:
            setOf(kW).set(e.id);
            break;
          case EventType::Fence:
            if (!model.features().fences)
                throw std::invalid_argument("model " + model.name() +
                                            " has no fences");
            setOf(kF).set(e.id);
            break;
        }
        std::string annot = annotationSet(e.order);
        if (!annot.empty()) {
            if (!vocab.contains(annot))
                throw std::invalid_argument(
                    "model " + model.name() + " has no annotation set " +
                    annot + " needed by test " + test.name);
            setOf(annot).set(e.id);
        }
    }

    matOf(kPo) = test.poMatrix();
    matOf(kSloc) = test.sameLocMatrix();

    if (model.features().deps) {
        matOf(kAddr) = test.addrDep;
        matOf(kData) = test.dataDep;
        matOf(kCtrl) = test.ctrlDep;
    } else if (test.depMatrix().any()) {
        throw std::invalid_argument("model " + model.name() +
                                    " has no dependencies, test " +
                                    test.name + " uses them");
    }

    if (model.features().rmw) {
        matOf(kRmw) = test.rmw;
    } else if (test.rmw.any()) {
        throw std::invalid_argument("model " + model.name() +
                                    " has no rmw, test " + test.name +
                                    " uses it");
    }

    if (model.features().scopes) {
        matOf(kSameWg) = test.sameWgMatrix();
        for (const auto &e : test.events) {
            bool sync_op = e.isFence() || e.order != MemOrder::Plain;
            if (!sync_op)
                continue;
            switch (e.scope) {
              case litmus::Scope::System:
                setOf(kScopeSys).set(e.id);
                break;
              case litmus::Scope::WorkGroup:
                setOf(kScopeWg).set(e.id);
                break;
              default:
                throw std::invalid_argument(
                    "model " + model.name() +
                    " supports only WorkGroup and System scopes");
            }
        }
    } else {
        for (const auto &e : test.events) {
            if (e.scope != litmus::Scope::System)
                throw std::invalid_argument("model " + model.name() +
                                            " has no scopes, test " +
                                            test.name + " uses them");
        }
    }

    matOf(kRf) = outcome.rf;
    matOf(kCo) = outcome.co;

    if (model.features().scOrder) {
        BitMatrix sc(n);
        for (auto [a, b] : sc_order)
            sc.set(a, b);
        matOf(kScOrd) = sc;
    } else if (!sc_order.empty()) {
        throw std::invalid_argument("model " + model.name() +
                                    " has no sc order");
    }

    return inst;
}

LitmusTest
fromInstance(const Model &model, const rel::Instance &inst)
{
    size_t n = inst.universe();
    const rel::Vocabulary &vocab = model.vocab();

    auto setOf = [&](const std::string &name) -> const Bitset & {
        return inst.set(vocab.find(name).id);
    };
    auto matOf = [&](const std::string &name) -> const BitMatrix & {
        return inst.matrix(vocab.find(name).id);
    };

    LitmusTest test;
    test.events.resize(n);
    test.addrDep = BitMatrix(n);
    test.dataDep = BitMatrix(n);
    test.ctrlDep = BitMatrix(n);
    test.rmw = BitMatrix(n);

    // Threads: contiguous blocks; a new thread starts wherever atom i is
    // not same-thread with atom i-1.
    const BitMatrix &po = matOf(kPo);
    int tid = 0;
    for (size_t i = 0; i < n; i++) {
        if (i > 0 && !po.test(i - 1, i) && !po.test(i, i - 1))
            tid++;
        test.events[i].id = static_cast<int>(i);
        test.events[i].tid = tid;
    }
    test.numThreads = tid + 1;

    // Locations: sloc equivalence classes in first-occurrence order.
    const BitMatrix &sloc = matOf(kSloc);
    std::vector<int> loc(n, -1);
    int next_loc = 0;
    for (size_t i = 0; i < n; i++) {
        if (!sloc.test(i, i) || loc[i] >= 0)
            continue;
        for (size_t j = i; j < n; j++) {
            if (sloc.test(i, j))
                loc[j] = next_loc;
        }
        next_loc++;
    }
    test.numLocs = next_loc;

    for (size_t i = 0; i < n; i++) {
        Event &e = test.events[i];
        if (setOf(kR).test(i))
            e.type = EventType::Read;
        else if (setOf(kW).test(i))
            e.type = EventType::Write;
        else
            e.type = EventType::Fence;
        e.loc = e.isMemory() ? loc[i] : -1;
        e.order = MemOrder::Plain;
        if (vocab.contains(kAcq) && setOf(kAcq).test(i))
            e.order = MemOrder::Acquire;
        else if (vocab.contains(kRel) && setOf(kRel).test(i))
            e.order = MemOrder::Release;
        else if (vocab.contains(kAcqRel) && setOf(kAcqRel).test(i))
            e.order = MemOrder::AcqRel;
        else if (vocab.contains(kSc) && setOf(kSc).test(i))
            e.order = MemOrder::SeqCst;
    }

    if (model.features().deps) {
        test.addrDep = matOf(kAddr);
        test.dataDep = matOf(kData);
        test.ctrlDep = matOf(kCtrl);
    }
    if (model.features().rmw)
        test.rmw = matOf(kRmw);

    if (model.features().scopes) {
        // Scope annotations.
        for (size_t i = 0; i < n; i++) {
            if (setOf(kScopeWg).test(i))
                test.events[i].scope = litmus::Scope::WorkGroup;
            else
                test.events[i].scope = litmus::Scope::System;
        }
        // Workgroups: classes of swg over threads, labeled by first use.
        const BitMatrix &swg = matOf(kSameWg);
        std::vector<int> first_event(test.numThreads, -1);
        for (size_t i = 0; i < n; i++) {
            if (first_event[test.events[i].tid] < 0)
                first_event[test.events[i].tid] = static_cast<int>(i);
        }
        test.threadWg.assign(test.numThreads, -1);
        int next_wg = 0;
        for (int t = 0; t < test.numThreads; t++) {
            if (test.threadWg[t] >= 0)
                continue;
            test.threadWg[t] = next_wg;
            for (int u = t + 1; u < test.numThreads; u++) {
                if (swg.test(first_event[t], first_event[u]))
                    test.threadWg[u] = next_wg;
            }
            next_wg++;
        }
        if (!test.hasWorkgroups())
            test.threadWg.clear();
    }

    test.hasForbidden = true;
    test.forbidden = Outcome(n);
    test.forbidden.rf = matOf(kRf);
    test.forbidden.co = matOf(kCo);

    std::string err = test.validate();
    if (!err.empty())
        throw std::logic_error("fromInstance produced invalid test: " + err);
    return test;
}

} // namespace lts::mm
