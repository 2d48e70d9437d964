#include "rel/encoder.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace lts::rel
{

Encoder::Encoder(const Vocabulary &vocab, size_t n, GateBuilder &builder)
    : vocab(vocab), n(n), builder(builder)
{
    cellVars.resize(vocab.size());
    for (size_t id = 0; id < vocab.size(); id++) {
        const VarDecl &d = vocab.decl(static_cast<int>(id));
        size_t cells = d.arity == 1 ? n : n * n;
        cellVars[id].reserve(cells);
        for (size_t c = 0; c < cells; c++) {
            // The encoder owns fresh SAT variables for each cell; they are
            // created through the builder's solver to keep numbering dense.
            sat::Lit lit = builder.lower(builder.mkFreeInput());
            assert(!lit.sign());
            cellVars[id].push_back(lit.var());
        }
    }
}

sat::Var
Encoder::cellVar(int var_id, size_t i, size_t j) const
{
    assert(vocab.decl(var_id).arity == 2);
    return cellVars[var_id][i * n + j];
}

sat::Var
Encoder::cellVar(int var_id, size_t i) const
{
    assert(vocab.decl(var_id).arity == 1);
    return cellVars[var_id][i];
}

SymSet
Encoder::encodeSet(const ExprPtr &e)
{
    assert(e->arity == 1);
    auto it = setCache.find(e);
    if (it != setCache.end())
        return it->second;

    SymSet out(n, kFalse);
    switch (e->kind) {
      case ExprKind::Var:
        for (size_t i = 0; i < n; i++)
            out[i] = builder.mkInput(cellVar(e->varId, i));
        break;
      case ExprKind::Univ:
        for (size_t i = 0; i < n; i++)
            out[i] = kTrue;
        break;
      case ExprKind::None:
        break;
      case ExprKind::Const:
        for (size_t i = 0; i < n; i++)
            out[i] = e->constSet.test(i) ? kTrue : kFalse;
        break;
      case ExprKind::Union: {
        SymSet a = encodeSet(e->lhs);
        SymSet b = encodeSet(e->rhs);
        for (size_t i = 0; i < n; i++)
            out[i] = builder.mkOr(a[i], b[i]);
        break;
      }
      case ExprKind::Intersect: {
        SymSet a = encodeSet(e->lhs);
        SymSet b = encodeSet(e->rhs);
        for (size_t i = 0; i < n; i++)
            out[i] = builder.mkAnd(a[i], b[i]);
        break;
      }
      case ExprKind::Diff: {
        SymSet a = encodeSet(e->lhs);
        SymSet b = encodeSet(e->rhs);
        for (size_t i = 0; i < n; i++)
            out[i] = builder.mkAnd(a[i], gNot(b[i]));
        break;
      }
      case ExprKind::Join: {
        if (e->lhs->arity == 1) {
            // set.rel: out[j] = OR_i (s[i] & r[i][j])
            SymSet s = encodeSet(e->lhs);
            SymMatrix r = encodeMatrix(e->rhs);
            for (size_t j = 0; j < n; j++) {
                std::vector<GLit> terms;
                for (size_t i = 0; i < n; i++)
                    terms.push_back(builder.mkAnd(s[i], r.at(i, j)));
                out[j] = builder.mkOrAll(terms);
            }
        } else {
            // rel.set: out[i] = OR_j (r[i][j] & s[j])
            SymMatrix r = encodeMatrix(e->lhs);
            SymSet s = encodeSet(e->rhs);
            for (size_t i = 0; i < n; i++) {
                std::vector<GLit> terms;
                for (size_t j = 0; j < n; j++)
                    terms.push_back(builder.mkAnd(r.at(i, j), s[j]));
                out[i] = builder.mkOrAll(terms);
            }
        }
        break;
      }
      default:
        throw std::logic_error("encodeSet: unexpected node " + e->toString());
    }
    setCache.emplace(e, out);
    return out;
}

SymMatrix
Encoder::composeSym(const SymMatrix &a, const SymMatrix &b)
{
    SymMatrix out(n, kFalse);
    for (size_t i = 0; i < n; i++) {
        for (size_t j = 0; j < n; j++) {
            std::vector<GLit> terms;
            for (size_t k = 0; k < n; k++)
                terms.push_back(builder.mkAnd(a.at(i, k), b.at(k, j)));
            out.at(i, j) = builder.mkOrAll(terms);
        }
    }
    return out;
}

SymMatrix
Encoder::closure(const SymMatrix &m)
{
    // Iterative squaring: after k rounds, paths of length up to 2^k are
    // covered; ceil(log2(n)) rounds suffice in a universe of n atoms.
    SymMatrix cur = m;
    size_t reach = 1;
    while (reach < n) {
        SymMatrix sq = composeSym(cur, cur);
        for (size_t c = 0; c < cur.cells.size(); c++)
            cur.cells[c] = builder.mkOr(cur.cells[c], sq.cells[c]);
        reach *= 2;
    }
    return cur;
}

SymMatrix
Encoder::encodeMatrix(const ExprPtr &e)
{
    assert(e->arity == 2);
    auto it = matrixCache.find(e);
    if (it != matrixCache.end())
        return it->second;

    SymMatrix out(n, kFalse);
    switch (e->kind) {
      case ExprKind::Var:
        for (size_t i = 0; i < n; i++) {
            for (size_t j = 0; j < n; j++)
                out.at(i, j) = builder.mkInput(cellVar(e->varId, i, j));
        }
        break;
      case ExprKind::None:
        break;
      case ExprKind::Iden:
        for (size_t i = 0; i < n; i++)
            out.at(i, i) = kTrue;
        break;
      case ExprKind::Const:
        for (size_t i = 0; i < n; i++) {
            for (size_t j = 0; j < n; j++)
                out.at(i, j) = e->constMatrix.test(i, j) ? kTrue : kFalse;
        }
        break;
      case ExprKind::Union: {
        SymMatrix a = encodeMatrix(e->lhs);
        SymMatrix b = encodeMatrix(e->rhs);
        for (size_t c = 0; c < out.cells.size(); c++)
            out.cells[c] = builder.mkOr(a.cells[c], b.cells[c]);
        break;
      }
      case ExprKind::Intersect: {
        SymMatrix a = encodeMatrix(e->lhs);
        SymMatrix b = encodeMatrix(e->rhs);
        for (size_t c = 0; c < out.cells.size(); c++)
            out.cells[c] = builder.mkAnd(a.cells[c], b.cells[c]);
        break;
      }
      case ExprKind::Diff: {
        SymMatrix a = encodeMatrix(e->lhs);
        SymMatrix b = encodeMatrix(e->rhs);
        for (size_t c = 0; c < out.cells.size(); c++)
            out.cells[c] = builder.mkAnd(a.cells[c], gNot(b.cells[c]));
        break;
      }
      case ExprKind::Join:
        out = composeSym(encodeMatrix(e->lhs), encodeMatrix(e->rhs));
        break;
      case ExprKind::Product: {
        SymSet a = encodeSet(e->lhs);
        SymSet b = encodeSet(e->rhs);
        for (size_t i = 0; i < n; i++) {
            for (size_t j = 0; j < n; j++)
                out.at(i, j) = builder.mkAnd(a[i], b[j]);
        }
        break;
      }
      case ExprKind::Transpose: {
        SymMatrix a = encodeMatrix(e->lhs);
        for (size_t i = 0; i < n; i++) {
            for (size_t j = 0; j < n; j++)
                out.at(i, j) = a.at(j, i);
        }
        break;
      }
      case ExprKind::Closure:
        out = closure(encodeMatrix(e->lhs));
        break;
      case ExprKind::RClosure: {
        out = closure(encodeMatrix(e->lhs));
        for (size_t i = 0; i < n; i++)
            out.at(i, i) = kTrue;
        break;
      }
      case ExprKind::DomRestrict: {
        SymSet s = encodeSet(e->lhs);
        SymMatrix r = encodeMatrix(e->rhs);
        for (size_t i = 0; i < n; i++) {
            for (size_t j = 0; j < n; j++)
                out.at(i, j) = builder.mkAnd(s[i], r.at(i, j));
        }
        break;
      }
      case ExprKind::RanRestrict: {
        SymMatrix r = encodeMatrix(e->lhs);
        SymSet s = encodeSet(e->rhs);
        for (size_t i = 0; i < n; i++) {
            for (size_t j = 0; j < n; j++)
                out.at(i, j) = builder.mkAnd(r.at(i, j), s[j]);
        }
        break;
      }
      default:
        throw std::logic_error("encodeMatrix: unexpected node " +
                               e->toString());
    }
    matrixCache.emplace(e, out);
    return out;
}

GLit
Encoder::encodeFormula(const FormulaPtr &f)
{
    auto it = formulaCache.find(f);
    if (it != formulaCache.end())
        return it->second;

    auto allCells = [&](const ExprPtr &e) {
        return e->arity == 1 ? encodeSet(e) : encodeMatrix(e).cells;
    };

    GLit out = kFalse;
    switch (f->kind) {
      case FormulaKind::True:
        out = kTrue;
        break;
      case FormulaKind::False:
        out = kFalse;
        break;
      case FormulaKind::Subset: {
        auto a = allCells(f->exprLhs);
        auto b = allCells(f->exprRhs);
        std::vector<GLit> terms;
        for (size_t c = 0; c < a.size(); c++)
            terms.push_back(builder.mkImplies(a[c], b[c]));
        out = builder.mkAndAll(terms);
        break;
      }
      case FormulaKind::Equal: {
        auto a = allCells(f->exprLhs);
        auto b = allCells(f->exprRhs);
        std::vector<GLit> terms;
        for (size_t c = 0; c < a.size(); c++)
            terms.push_back(builder.mkIff(a[c], b[c]));
        out = builder.mkAndAll(terms);
        break;
      }
      case FormulaKind::Some:
        out = builder.mkOrAll(allCells(f->exprLhs));
        break;
      case FormulaKind::No:
        out = gNot(builder.mkOrAll(allCells(f->exprLhs)));
        break;
      case FormulaKind::Lone:
        out = builder.mkAtMostOne(allCells(f->exprLhs));
        break;
      case FormulaKind::One: {
        auto cells = allCells(f->exprLhs);
        out = builder.mkAnd(builder.mkOrAll(cells),
                            builder.mkAtMostOne(cells));
        break;
      }
      case FormulaKind::Acyclic: {
        SymMatrix c = closure(encodeMatrix(f->exprLhs));
        std::vector<GLit> diag;
        for (size_t i = 0; i < n; i++)
            diag.push_back(gNot(c.at(i, i)));
        out = builder.mkAndAll(diag);
        break;
      }
      case FormulaKind::Irreflexive: {
        SymMatrix m = encodeMatrix(f->exprLhs);
        std::vector<GLit> diag;
        for (size_t i = 0; i < n; i++)
            diag.push_back(gNot(m.at(i, i)));
        out = builder.mkAndAll(diag);
        break;
      }
      case FormulaKind::Total: {
        SymMatrix r = encodeMatrix(f->exprLhs);
        SymSet s = encodeSet(f->exprRhs);
        std::vector<GLit> terms;
        // Confined to s -> s.
        for (size_t i = 0; i < n; i++) {
            for (size_t j = 0; j < n; j++) {
                terms.push_back(builder.mkImplies(
                    r.at(i, j), builder.mkAnd(s[i], s[j])));
            }
        }
        // Irreflexive.
        for (size_t i = 0; i < n; i++)
            terms.push_back(gNot(r.at(i, i)));
        // Transitive: r;r in r.
        SymMatrix rr = composeSym(r, r);
        for (size_t c = 0; c < rr.cells.size(); c++)
            terms.push_back(builder.mkImplies(rr.cells[c], r.cells[c]));
        // Total over s.
        for (size_t i = 0; i < n; i++) {
            for (size_t j = i + 1; j < n; j++) {
                terms.push_back(builder.mkImplies(
                    builder.mkAnd(s[i], s[j]),
                    builder.mkOr(r.at(i, j), r.at(j, i))));
            }
        }
        out = builder.mkAndAll(terms);
        break;
      }
      case FormulaKind::And:
        out = builder.mkAnd(encodeFormula(f->lhs), encodeFormula(f->rhs));
        break;
      case FormulaKind::Or:
        out = builder.mkOr(encodeFormula(f->lhs), encodeFormula(f->rhs));
        break;
      case FormulaKind::Not:
        out = gNot(encodeFormula(f->lhs));
        break;
      case FormulaKind::Implies:
        out = builder.mkImplies(encodeFormula(f->lhs), encodeFormula(f->rhs));
        break;
      case FormulaKind::Iff:
        out = builder.mkIff(encodeFormula(f->lhs), encodeFormula(f->rhs));
        break;
    }
    formulaCache.emplace(f, out);
    return out;
}

Instance
Encoder::extract(const sat::Solver &solver) const
{
    Instance inst(vocab, n);
    for (size_t id = 0; id < vocab.size(); id++) {
        const VarDecl &d = vocab.decl(static_cast<int>(id));
        if (d.arity == 1) {
            for (size_t i = 0; i < n; i++) {
                if (solver.modelValue(cellVars[id][i]))
                    inst.set(d.id).set(i);
            }
        } else {
            for (size_t i = 0; i < n; i++) {
                for (size_t j = 0; j < n; j++) {
                    if (solver.modelValue(cellVars[id][i * n + j]))
                        inst.matrix(d.id).set(i, j);
                }
            }
        }
    }
    return inst;
}

sat::Clause
Encoder::blockingClause(const Instance &inst,
                        const std::vector<int> &var_ids) const
{
    std::vector<int> ids = var_ids;
    if (ids.empty()) {
        for (size_t id = 0; id < vocab.size(); id++)
            ids.push_back(static_cast<int>(id));
    }
    sat::Clause clause;
    for (int id : ids) {
        const VarDecl &d = vocab.decl(id);
        if (d.arity == 1) {
            for (size_t i = 0; i < n; i++) {
                clause.push_back(
                    sat::Lit(cellVars[id][i], inst.set(id).test(i)));
            }
        } else {
            for (size_t i = 0; i < n; i++) {
                for (size_t j = 0; j < n; j++) {
                    clause.push_back(sat::Lit(cellVars[id][i * n + j],
                                              inst.matrix(id).test(i, j)));
                }
            }
        }
    }
    return clause;
}

RelSolver::RelSolver(const Vocabulary &vocab, size_t universe_size)
    : builder(solver), enc(vocab, universe_size, builder)
{
}

void
RelSolver::addBaseFact(const FormulaPtr &f)
{
    builder.assertTrue(enc.encodeFormula(f));
}

bool
RelSolver::simplifyBase()
{
    return solver.simplify();
}

FactHandle
RelSolver::addFact(const FormulaPtr &f)
{
    FactHandle h = solver.newGroup();
    // Deliberately not assertTrue: the fact's literal goes into a clause
    // guarded by the layer's activation literal, so an always-false fact
    // only deadens this layer instead of poisoning the shared solver.
    sat::Lit flit = builder.lower(enc.encodeFormula(f));
    solver.addClause(h, {flit});
    liveFacts.push_back(h);
    return h;
}

void
RelSolver::retract(FactHandle h)
{
    if (witness && std::find(witness->layers().begin(),
                             witness->layers().end(),
                             h) != witness->layers().end())
        witness.reset();
    solver.release(h);
    liveFacts.erase(std::remove(liveFacts.begin(), liveFacts.end(), h),
                    liveFacts.end());
}

sat::Cnf
RelSolver::exportCnf() const
{
    sat::Cnf cnf;
    cnf.numVars = solver.numVars();
    cnf.clauses = solver.liveClauses(false);
    for (FactHandle h : liveFacts)
        cnf.clauses.push_back({solver.groupLit(h)});
    return cnf;
}

FactHandle
RelSolver::newLayer()
{
    FactHandle h = solver.newGroup();
    liveFacts.push_back(h);
    return h;
}

FactHandle
RelSolver::addSymmetryBreaking(const SymmetrySpec &spec, SymmetryStats *stats)
{
    FactHandle h = solver.newGroup();
    int before = solver.numClauses();
    size_t n = enc.universe();
    const Vocabulary &vocab = enc.vocabulary();

    auto cellGate = [&](int var_id, size_t i, size_t j) {
        const VarDecl &d = vocab.decl(var_id);
        sat::Var v = d.arity == 1 ? enc.cellVar(var_id, i)
                                  : enc.cellVar(var_id, i, j);
        return builder.mkInput(v);
    };
    auto guardGate = [&](const std::vector<CellCond> &conds) {
        std::vector<GLit> lits;
        for (const CellCond &c : conds) {
            GLit g = cellGate(c.varId, c.i, c.j);
            lits.push_back(c.value ? g : gNot(g));
        }
        return builder.mkAndAll(lits);
    };

    for (const ConditionalPerm &gen : spec.generators) {
        assert(gen.perm.size() == n);
        // The lex vector under the identity (xs) and under the generator
        // (ys): cell (i, j) compares against cell (perm(i), perm(j)).
        std::vector<GLit> xs, ys;
        for (int id : spec.lexVarIds) {
            const VarDecl &d = vocab.decl(id);
            if (d.arity == 1) {
                for (size_t i = 0; i < n; i++) {
                    xs.push_back(cellGate(id, i, 0));
                    ys.push_back(cellGate(id, gen.perm[i], 0));
                }
            } else {
                for (size_t i = 0; i < n; i++) {
                    for (size_t j = 0; j < n; j++) {
                        xs.push_back(cellGate(id, i, j));
                        ys.push_back(cellGate(id, gen.perm[i], gen.perm[j]));
                    }
                }
            }
        }
        // x <=lex y with false < true, built from the tail:
        // leq_k = (!x_k & y_k) | ((x_k <-> y_k) & leq_{k+1}).
        GLit leq = kTrue;
        for (size_t k = xs.size(); k-- > 0;) {
            GLit lt = builder.mkAnd(gNot(xs[k]), ys[k]);
            GLit eq = builder.mkIff(xs[k], ys[k]);
            leq = builder.mkOr(lt, builder.mkAnd(eq, leq));
        }
        GLit pred = builder.mkImplies(guardGate(gen.conditions), leq);
        solver.addClause(h, {builder.lower(pred)});
    }

    for (const auto &pattern : spec.forbidden) {
        // not (c_1 & ... & c_k): one clause of negated cell literals —
        // no Tseitin needed since every conjunct is a raw cell.
        sat::Clause clause;
        for (const CellCond &c : pattern) {
            const VarDecl &d = vocab.decl(c.varId);
            sat::Var v = d.arity == 1 ? enc.cellVar(c.varId, c.i)
                                      : enc.cellVar(c.varId, c.i, c.j);
            clause.push_back(sat::Lit(v, c.value));
        }
        solver.addClause(h, std::move(clause));
    }

    if (stats) {
        stats->clauses += static_cast<uint64_t>(solver.numClauses() - before);
        stats->generators += spec.generators.size();
        stats->forbidden += spec.forbidden.size();
    }
    liveFacts.push_back(h);
    return h;
}

sat::SolveResult
RelSolver::solve()
{
    return solveUnder(liveFacts);
}

sat::SolveResult
RelSolver::solveUnder(const std::vector<FactHandle> &handles)
{
    std::vector<sat::Lit> assumptions;
    assumptions.reserve(handles.size());
    for (FactHandle h : handles) {
        assert(!solver.isReleased(h));
        assumptions.push_back(solver.groupLit(h));
    }
    sat::SolveResult res = solver.solve(assumptions);
    if (res == sat::SolveResult::Sat)
        lastInstance = enc.extract(solver);
    return res;
}

void
RelSolver::blockModel(const std::vector<int> &var_ids, FactHandle under)
{
    // Block from the stored instance, not the raw solver model: after
    // pinAndMinimize the two can disagree, and the documented
    // contract is "exclude the last *instance*".
    blockInstance(lastInstance, var_ids, under);
}

void
RelSolver::blockInstance(const Instance &inst, const std::vector<int> &var_ids,
                         FactHandle under)
{
    sat::Clause clause = enc.blockingClause(inst, var_ids);
    if (under == kNoFact)
        solver.addClause(std::move(clause));
    else
        solver.addClause(under, std::move(clause));
}

namespace
{

/** Assumptions pinning the @p fixed relations to their values in @p src. */
void
pushPins(const Encoder &enc, const Instance &src,
         const std::vector<char> &fixed, std::vector<sat::Lit> &assume)
{
    const Vocabulary &vocab = enc.vocabulary();
    size_t n = enc.universe();
    // Lit's sign flag means "negated", so pinning cell c to value b is
    // Lit(c, !b).
    for (size_t id = 0; id < vocab.size(); id++) {
        if (!fixed[id])
            continue;
        const VarDecl &d = vocab.decl(static_cast<int>(id));
        if (d.arity == 1) {
            for (size_t i = 0; i < n; i++) {
                assume.push_back(
                    sat::Lit(enc.cellVar(d.id, i), !src.set(d.id).test(i)));
            }
        } else {
            for (size_t i = 0; i < n; i++) {
                for (size_t j = 0; j < n; j++) {
                    assume.push_back(sat::Lit(enc.cellVar(d.id, i, j),
                                              !src.matrix(d.id).test(i, j)));
                }
            }
        }
    }
}

} // namespace

WitnessSolver::WitnessSolver(const Encoder &enc,
                             std::unique_ptr<sat::Solver> solver,
                             std::vector<FactHandle> layers,
                             uint64_t revision)
    : enc(enc), solver(std::move(solver)), copiedLayers(std::move(layers)),
      copiedRevision(revision)
{
}

sat::SolveResult
WitnessSolver::solve(const std::vector<sat::Lit> &assume, WitnessWork &work)
{
    // A solve that starts at or past the budget stops at its first
    // conflict.
    uint64_t budget = 0;
    if (work.budget) {
        uint64_t used = work.stats.conflicts;
        budget = used < work.budget ? work.budget - used : 1;
    }
    solver->setConflictBudget(budget);
    sat::SolverStats before = solver->stats();
    sat::SolveResult res = solver->solve(assume);
    sat::addSearch(work.stats, before, solver->stats());
    return res;
}

bool
WitnessSolver::lexWalk(std::vector<sat::Lit> &assume,
                       const std::vector<char> &fixed, WitnessWork &work)
{
    const Vocabulary &vocab = enc.vocabulary();
    size_t n = enc.universe();
    // Greedy lex walk over the free cells. A cell already false in the
    // best-so-far instance can be pinned false without solving — the
    // instance itself witnesses feasibility. A true cell costs one
    // assumption solve: Sat means false works (and the new model becomes
    // best-so-far), Unsat means the cell is forced true. Witness
    // relations are sparse, so only a handful of solves happen per call.
    // A budget-cut solve proves neither, so it ends the walk unfinished.
    auto tryCell = [&](sat::Var v, bool val) {
        assume.push_back(sat::Lit(v, true));
        if (!val)
            return true;
        sat::SolveResult res = solve(assume, work);
        if (res == sat::SolveResult::Sat)
            lastInstance = enc.extract(*solver);
        else if (res == sat::SolveResult::Unsat)
            assume.back() = sat::Lit(v, false);
        return res != sat::SolveResult::BudgetExhausted;
    };
    for (size_t id = 0; id < vocab.size(); id++) {
        if (fixed[id])
            continue;
        const VarDecl &d = vocab.decl(static_cast<int>(id));
        if (d.arity == 1) {
            for (size_t i = 0; i < n; i++) {
                if (!tryCell(enc.cellVar(d.id, i),
                             lastInstance.set(d.id).test(i)))
                    return false;
            }
        } else {
            for (size_t i = 0; i < n; i++) {
                for (size_t j = 0; j < n; j++) {
                    if (!tryCell(enc.cellVar(d.id, i, j),
                                 lastInstance.matrix(d.id).test(i, j)))
                        return false;
                }
            }
        }
    }
    return true;
}

bool
WitnessSolver::pinAndMinimize(const Instance &pin,
                              const std::vector<int> &pinned_var_ids,
                              WitnessWork &work)
{
    std::vector<char> fixed(enc.vocabulary().size(), 0);
    for (int id : pinned_var_ids)
        fixed[static_cast<size_t>(id)] = 1;

    std::vector<sat::Lit> assume;
    pushPins(enc, pin, fixed, assume);
    if (solve(assume, work) != sat::SolveResult::Sat)
        return false;
    lastInstance = enc.extract(*solver);
    return lexWalk(assume, fixed, work);
}

std::shared_ptr<WitnessSolver>
RelSolver::witnessFor(const std::vector<FactHandle> &layers)
{
    uint64_t revision = solver.revision(layers);
    if (!witness || witness->layers() != layers ||
        witness->revision() != revision) {
        witness = std::make_shared<WitnessSolver>(
            enc, solver.restrictedCopy(layers), layers, revision);
    }
    return witness;
}

bool
RelSolver::pinAndMinimize(const Instance &pin,
                          const std::vector<int> &pinned_var_ids,
                          const std::vector<FactHandle> &layers)
{
    std::shared_ptr<WitnessSolver> probe = witnessFor(layers);
    WitnessWork work;
    work.budget = solver.remainingConflictBudget();
    bool ok = probe->pinAndMinimize(pin, pinned_var_ids, work);
    solver.chargeSearch(work.stats);
    if (ok)
        lastInstance = probe->instance();
    return ok;
}

} // namespace lts::rel
