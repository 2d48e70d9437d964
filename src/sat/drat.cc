#include "sat/drat.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>

namespace lts::sat
{

namespace
{

constexpr char kBinaryMagic[8] = {'L', 'D', 'R', 'A', 'T', 'B', '1', '\0'};
constexpr size_t kFlushThreshold = 1 << 16;

/**
 * Binary literal code: never zero, so 0x00 can terminate a record.
 * DIMACS number (var + 1) shifted left with the sign in the low bit.
 */
uint32_t
binCode(Lit l)
{
    return (static_cast<uint32_t>(l.var()) + 1) * 2 +
           (l.sign() ? 1U : 0U);
}

} // namespace

// --- DratWriter ------------------------------------------------------------

DratWriter::DratWriter(const std::string &path) : filePath(path)
{
    file = std::fopen(path.c_str(), "wb");
    if (!file)
        return;
    buf.reserve(kFlushThreshold + 256);
    buf.insert(buf.end(), kBinaryMagic, kBinaryMagic + 8);
}

DratWriter::~DratWriter()
{
    flush();
    if (file)
        std::fclose(file);
}

void
DratWriter::flush()
{
    if (!file)
        return;
    if (!buf.empty()) {
        if (std::fwrite(buf.data(), 1, buf.size(), file) != buf.size())
            failed = true;
        buf.clear();
    }
    if (std::fflush(file) != 0)
        failed = true;
}

void
DratWriter::put(char tag, std::span<const Lit> lits)
{
    if (!file)
        return;
    buf.push_back(tag);
    for (Lit l : lits) {
        uint32_t u = binCode(l);
        while (u >= 0x80) {
            buf.push_back(static_cast<char>((u & 0x7f) | 0x80));
            u >>= 7;
        }
        buf.push_back(static_cast<char>(u));
    }
    buf.push_back('\0');
    if (buf.size() >= kFlushThreshold) {
        if (std::fwrite(buf.data(), 1, buf.size(), file) != buf.size())
            failed = true;
        buf.clear();
    }
}

// --- parsing ---------------------------------------------------------------

namespace
{

bool
parseKind(char tag, DratStep::Kind &kind)
{
    switch (tag) {
    case 'i':
        kind = DratStep::Kind::Input;
        return true;
    case 'a':
        kind = DratStep::Kind::Derived;
        return true;
    case 'u':
        kind = DratStep::Kind::Conclusion;
        return true;
    case 'd':
        kind = DratStep::Kind::Delete;
        return true;
    default:
        return false;
    }
}

bool
parseBinary(const std::string &data, size_t pos,
            std::vector<DratStep> &steps, std::string &error)
{
    while (pos < data.size()) {
        size_t record_start = pos;
        DratStep step;
        if (!parseKind(data[pos], step.kind)) {
            error = "bad record tag at offset " +
                    std::to_string(record_start) + " in binary proof";
            return false;
        }
        pos++;
        while (true) {
            uint32_t u = 0;
            int shift = 0;
            bool more = true;
            while (more) {
                if (pos >= data.size()) {
                    error = "truncated record in binary proof (step " +
                            std::to_string(steps.size()) + ")";
                    return false;
                }
                uint8_t byte = static_cast<uint8_t>(data[pos++]);
                if (shift >= 32) {
                    error = "overlong literal encoding at offset " +
                            std::to_string(pos - 1) + " in binary proof";
                    return false;
                }
                u |= static_cast<uint32_t>(byte & 0x7f) << shift;
                shift += 7;
                more = (byte & 0x80) != 0;
            }
            if (u == 0)
                break;
            if (u < 2) {
                error = "bad literal code at offset " +
                        std::to_string(pos - 1) + " in binary proof";
                return false;
            }
            step.lits.push_back(
                Lit(static_cast<Var>(u / 2 - 1), (u & 1) != 0));
        }
        steps.push_back(std::move(step));
    }
    return true;
}

} // namespace

bool
parseDratFile(const std::string &path, std::vector<DratStep> &steps,
              std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    steps.clear();
    if (data.size() >= 8 && std::memcmp(data.data(), kBinaryMagic, 8) == 0)
        return parseBinary(data, 8, steps, error);
    error = "unrecognized proof header in " + path;
    return false;
}

// --- checking --------------------------------------------------------------

namespace
{

/**
 * The backward checker. Instances are add-steps; the forward pass links
 * each deletion to the most recent matching add, then the backward walk
 * reconstructs the database live before each step and verifies the
 * marked derivations with a self-contained unit propagator.
 */
class Checker
{
  public:
    Checker(const std::vector<DratStep> &steps) : steps(steps) {}

    DratCheckResult run(bool verify_all);

  private:
    bool isAdd(size_t i) const
    {
        return steps[i].kind != DratStep::Kind::Delete;
    }

    /** +1 true, -1 false, 0 unassigned. */
    int valOf(Lit l) const
    {
        int v = val[static_cast<size_t>(l.var())];
        return l.sign() ? -v : v;
    }

    /** Assign @p l true. Pre: unassigned. */
    void enqueue(Lit l, int reason)
    {
        val[static_cast<size_t>(l.var())] =
            static_cast<int8_t>(l.sign() ? -1 : 1);
        reasonStep[static_cast<size_t>(l.var())] = reason;
        trail.push_back(l);
    }

    /**
     * Assert @p l for the assumption phase of a RUP check. Returns
     * false when the assertion is inconsistent with the assignment so
     * far (the negated clause is contradictory — a tautology check
     * succeeds immediately); @p clash_var then names the variable.
     */
    bool assume(Lit l, Var &clash_var)
    {
        int v = valOf(l);
        if (v > 0)
            return true;
        if (v < 0) {
            clash_var = l.var();
            return false;
        }
        enqueue(l, kAssumption);
        return true;
    }

    void unwind()
    {
        for (Lit l : trail)
            val[static_cast<size_t>(l.var())] = 0;
        trail.clear();
    }

    /** Mark the antecedent cone of the conflict for core extraction. */
    void markConflict(int conflict_step, Var seed_var);
    void markVarCone(Var v);

    /**
     * Does UP from the active database plus the negation of
     * extra1 ∪ extra2 derive a conflict? Marks antecedents on success.
     */
    bool rup(const std::vector<Lit> &extra1, const std::vector<Lit> *extra2,
             Lit drop);

    const std::vector<DratStep> &steps;

    static constexpr int kAssumption = -1;

    std::vector<char> active;
    std::vector<char> marked;
    std::vector<int> deleteTarget;
    std::vector<std::vector<int>> occ; ///< literal index -> add steps
    std::vector<int> unitSteps;        ///< add steps with one literal

    std::vector<int8_t> val;
    std::vector<int> reasonStep;
    std::vector<Lit> trail;
    std::vector<char> varSeen;
    std::vector<Var> markQueue;
};

void
Checker::markVarCone(Var v)
{
    markQueue.clear();
    markQueue.push_back(v);
    while (!markQueue.empty()) {
        Var x = markQueue.back();
        markQueue.pop_back();
        if (varSeen[static_cast<size_t>(x)])
            continue;
        varSeen[static_cast<size_t>(x)] = 1;
        int r = reasonStep[static_cast<size_t>(x)];
        if (r < 0)
            continue;
        marked[static_cast<size_t>(r)] = 1;
        for (Lit l : steps[static_cast<size_t>(r)].lits)
            markQueue.push_back(l.var());
    }
}

void
Checker::markConflict(int conflict_step, Var seed_var)
{
    for (Lit l : trail)
        varSeen[static_cast<size_t>(l.var())] = 0;
    if (conflict_step >= 0) {
        marked[static_cast<size_t>(conflict_step)] = 1;
        for (Lit l : steps[static_cast<size_t>(conflict_step)].lits)
            markVarCone(l.var());
    }
    if (seed_var >= 0)
        markVarCone(seed_var);
}

bool
Checker::rup(const std::vector<Lit> &extra1, const std::vector<Lit> *extra2,
             Lit drop)
{
    trail.clear();
    Var clash = -1;
    bool conflict = false;
    int conflict_step = -1;

    // Assumption phase: assert the negation of every literal of the
    // checked clause (and of the resolvent remainder, for RAT).
    for (Lit l : extra1) {
        if (!assume(~l, clash)) {
            conflict = true;
            break;
        }
    }
    if (!conflict && extra2) {
        for (Lit l : *extra2) {
            if (l == drop)
                continue;
            if (!assume(~l, clash)) {
                conflict = true;
                break;
            }
        }
    }

    // Seed with the database's unit clauses, then propagate.
    if (!conflict) {
        for (int ui : unitSteps) {
            if (!active[static_cast<size_t>(ui)])
                continue;
            Lit l = steps[static_cast<size_t>(ui)].lits[0];
            int v = valOf(l);
            if (v > 0)
                continue;
            if (v < 0) {
                conflict = true;
                conflict_step = ui;
                clash = l.var();
                break;
            }
            enqueue(l, ui);
        }
    }
    size_t qhead = 0;
    while (!conflict && qhead < trail.size()) {
        Lit p = trail[qhead++];
        const std::vector<int> &watch = occ[static_cast<size_t>(
            (~p).index())];
        for (int ci : watch) {
            if (!active[static_cast<size_t>(ci)])
                continue;
            const std::vector<Lit> &c = steps[static_cast<size_t>(ci)].lits;
            Lit unassigned;
            bool satisfied = false;
            int n_unassigned = 0;
            for (Lit l : c) {
                int v = valOf(l);
                if (v > 0) {
                    satisfied = true;
                    break;
                }
                if (v == 0) {
                    if (++n_unassigned > 1)
                        break;
                    unassigned = l;
                }
            }
            if (satisfied || n_unassigned > 1)
                continue;
            if (n_unassigned == 0) {
                conflict = true;
                conflict_step = ci;
                clash = -1;
                break;
            }
            enqueue(unassigned, ci);
        }
    }

    if (conflict)
        markConflict(conflict_step, clash);
    unwind();
    return conflict;
}

DratCheckResult
Checker::run(bool verify_all)
{
    DratCheckResult res;
    res.steps = steps.size();

    // Forward pass: size the universe, link deletions to adds, count.
    Var max_var = -1;
    for (const DratStep &s : steps) {
        for (Lit l : s.lits)
            max_var = std::max(max_var, l.var());
    }
    active.assign(steps.size(), 0);
    marked.assign(steps.size(), 0);
    deleteTarget.assign(steps.size(), -1);
    occ.assign(2 * static_cast<size_t>(max_var + 1), {});
    val.assign(static_cast<size_t>(max_var + 1), 0);
    reasonStep.assign(static_cast<size_t>(max_var + 1), kAssumption);
    varSeen.assign(static_cast<size_t>(max_var + 1), 0);

    std::map<std::vector<int32_t>, std::vector<int>> live;
    auto keyOf = [](const std::vector<Lit> &lits) {
        std::vector<int32_t> key;
        key.reserve(lits.size());
        for (Lit l : lits)
            key.push_back(l.index());
        std::sort(key.begin(), key.end());
        key.erase(std::unique(key.begin(), key.end()), key.end());
        return key;
    };

    for (size_t i = 0; i < steps.size(); i++) {
        const DratStep &s = steps[i];
        switch (s.kind) {
        case DratStep::Kind::Input:
            res.inputs++;
            break;
        case DratStep::Kind::Derived:
            res.derived++;
            break;
        case DratStep::Kind::Conclusion:
            res.conclusions++;
            break;
        case DratStep::Kind::Delete:
            res.deletions++;
            break;
        }
        if (s.kind == DratStep::Kind::Delete) {
            std::vector<int> &stack = live[keyOf(s.lits)];
            if (stack.empty()) {
                res.error = "step " + std::to_string(i) +
                            ": deletes a clause not in the database";
                res.errorStep = i;
                return res;
            }
            deleteTarget[i] = stack.back();
            stack.pop_back();
        } else {
            active[i] = 1;
            live[keyOf(s.lits)].push_back(static_cast<int>(i));
            for (Lit l : s.lits)
                occ[static_cast<size_t>(l.index())].push_back(
                    static_cast<int>(i));
            if (s.lits.size() == 1)
                unitSteps.push_back(static_cast<int>(i));
            if (s.kind == DratStep::Kind::Conclusion)
                marked[i] = 1;
        }
    }

    if (res.conclusions == 0) {
        res.error = "proof has no conclusion ('u') step — nothing to verify";
        res.errorStep = steps.size();
        return res;
    }

    // Backward pass: undo each step, verifying marked derivations
    // against the database live just before them.
    for (size_t ri = steps.size(); ri-- > 0;) {
        const DratStep &s = steps[ri];
        if (s.kind == DratStep::Kind::Delete) {
            active[static_cast<size_t>(deleteTarget[ri])] = 1;
            continue;
        }
        active[ri] = 0;
        if (s.kind == DratStep::Kind::Input)
            continue;
        if (!marked[ri] && !verify_all)
            continue;
        res.verified++;
        if (rup(s.lits, nullptr, Lit()))
            continue;
        if (s.kind == DratStep::Kind::Conclusion) {
            res.error = "step " + std::to_string(ri) +
                        ": conclusion clause is not RUP";
            res.errorStep = ri;
            return res;
        }
        if (s.lits.empty()) {
            res.error = "step " + std::to_string(ri) +
                        ": empty clause is not RUP";
            res.errorStep = ri;
            return res;
        }
        // RAT fallback on the first literal as written: the step holds
        // if every resolvent with a ~pivot clause is itself RUP.
        Lit pivot = s.lits[0];
        Lit npivot = ~pivot;
        const std::vector<int> partners =
            occ[static_cast<size_t>(npivot.index())];
        for (int ci : partners) {
            if (!active[static_cast<size_t>(ci)])
                continue;
            if (!rup(s.lits, &steps[static_cast<size_t>(ci)].lits,
                     npivot)) {
                res.error =
                    "step " + std::to_string(ri) +
                    ": clause is not RUP, and RAT on pivot " +
                    pivot.toString() +
                    " fails against the partner clause added at step " +
                    std::to_string(ci);
                res.errorStep = ri;
                return res;
            }
            marked[static_cast<size_t>(ci)] = 1;
        }
        res.ratSteps++;
    }

    for (size_t i = 0; i < steps.size(); i++) {
        if (!marked[i] || !isAdd(i))
            continue;
        res.coreSteps++;
        if (steps[i].kind == DratStep::Kind::Input)
            res.coreInputs++;
    }
    res.ok = true;
    return res;
}

} // namespace

DratCheckResult
checkDrat(const std::vector<DratStep> &steps, bool verify_all)
{
    Checker checker(steps);
    return checker.run(verify_all);
}

DratCheckResult
checkDratFile(const std::string &path, bool verify_all)
{
    DratCheckResult res;
    std::vector<DratStep> parsed;
    std::string error;
    if (!parseDratFile(path, parsed, error)) {
        res.error = error;
        res.errorStep = 0;
        return res;
    }
    return checkDrat(parsed, verify_all);
}

} // namespace lts::sat
