/**
 * @file
 * Microbenchmarks for the CDCL SAT substrate (google-benchmark): unit
 * propagation throughput, pigeonhole refutation, random 3-SAT near the
 * phase transition, and incremental model enumeration — the operations
 * the synthesizer stresses.
 *
 * After the google-benchmark suites, main() runs the simplification
 * ablation and writes BENCH_micro_sat.json: the same scenario solved
 * with simplification on and off, with the solver counters that explain
 * the delta.
 */

#include <benchmark/benchmark.h>

#include <random>

#include "bench/bench_util.hh"
#include "common/timer.hh"
#include "sat/solver.hh"

namespace
{

using namespace lts::sat;

void
addPigeonhole(Solver &s, int holes)
{
    int pigeons = holes + 1;
    std::vector<std::vector<Var>> at(pigeons, std::vector<Var>(holes));
    for (int p = 0; p < pigeons; p++) {
        for (int h = 0; h < holes; h++)
            at[p][h] = s.newVar();
    }
    for (int p = 0; p < pigeons; p++) {
        Clause c;
        for (int h = 0; h < holes; h++)
            c.push_back(Lit::pos(at[p][h]));
        s.addClause(c);
    }
    for (int h = 0; h < holes; h++) {
        for (int p1 = 0; p1 < pigeons; p1++) {
            for (int p2 = p1 + 1; p2 < pigeons; p2++)
                s.addClause({Lit::neg(at[p1][h]), Lit::neg(at[p2][h])});
        }
    }
}

void
BM_PropagationChain(benchmark::State &state)
{
    for (auto _ : state) {
        Solver s;
        int n = static_cast<int>(state.range(0));
        std::vector<Var> v;
        for (int i = 0; i < n; i++)
            v.push_back(s.newVar());
        for (int i = 0; i + 1 < n; i++)
            s.addClause({Lit::neg(v[i]), Lit::pos(v[i + 1])});
        s.addClause({Lit::pos(v[0])});
        bool sat = s.solve() == SolveResult::Sat;
        benchmark::DoNotOptimize(sat);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PropagationChain)->Arg(1000)->Arg(10000);

void
BM_PigeonholeUnsat(benchmark::State &state)
{
    for (auto _ : state) {
        Solver s;
        addPigeonhole(s, static_cast<int>(state.range(0)));
        bool sat = s.solve() == SolveResult::Sat;
        benchmark::DoNotOptimize(sat);
    }
}
BENCHMARK(BM_PigeonholeUnsat)->Arg(6)->Arg(7)->Arg(8);

void
BM_Random3Sat(benchmark::State &state)
{
    // 4.2 clauses per variable: near the satisfiability threshold.
    int num_vars = static_cast<int>(state.range(0));
    int num_clauses = static_cast<int>(num_vars * 4.2);
    for (auto _ : state) {
        std::mt19937 rng(42);
        Solver s;
        for (int i = 0; i < num_vars; i++)
            s.newVar();
        for (int c = 0; c < num_clauses; c++) {
            Clause clause;
            for (int l = 0; l < 3; l++) {
                clause.push_back(
                    Lit(static_cast<Var>(rng() % num_vars), rng() & 1));
            }
            if (!s.addClause(clause))
                break;
        }
        bool sat = s.solve() == SolveResult::Sat;
        benchmark::DoNotOptimize(sat);
    }
}
BENCHMARK(BM_Random3Sat)->Arg(50)->Arg(100)->Arg(150);

void
BM_ModelEnumeration(benchmark::State &state)
{
    // Enumerate all models over k free variables via blocking clauses —
    // the synthesizer's inner loop shape.
    int k = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Solver s;
        std::vector<Var> vars;
        for (int i = 0; i < k; i++)
            vars.push_back(s.newVar());
        int models = 0;
        while (s.solve() == SolveResult::Sat) {
            models++;
            Clause blocking;
            for (Var v : vars)
                blocking.push_back(Lit(v, s.modelValue(v)));
            if (!s.addClause(blocking))
                break;
        }
        benchmark::DoNotOptimize(models);
    }
}
BENCHMARK(BM_ModelEnumeration)->Arg(8)->Arg(10)->Arg(12);

void
BM_IncrementalAssumptions(benchmark::State &state)
{
    Solver s;
    addPigeonhole(s, 5);
    std::vector<Var> selectors;
    for (int i = 0; i < 8; i++)
        selectors.push_back(s.newVar());
    int i = 0;
    for (auto _ : state) {
        std::vector<Lit> assumptions = {
            Lit(selectors[i % selectors.size()], (i / 8) & 1)};
        bool sat = s.solve(assumptions) == SolveResult::Sat;
        benchmark::DoNotOptimize(sat);
        i++;
    }
}
BENCHMARK(BM_IncrementalAssumptions);

/**
 * Tseitin-heavy enumeration workload for the simplification ablation: a
 * sequential at-most-k counter over frozen inputs (the shape the
 * relational encoder's mkAtMostOne lowering produces), every satisfying
 * input assignment enumerated via blocking clauses. The auxiliary chain
 * is pure Tseitin plumbing — exactly what bounded variable elimination
 * removes when the inputs are frozen.
 */
lts::bench::MicroRun
runCounterEnumeration(const char *name, bool simplify)
{
    using lts::bench::MicroRun;
    Solver s;
    const int k = 12, at_most = 3;
    std::vector<Var> inputs;
    for (int i = 0; i < k; i++) {
        Var v = s.newVar();
        s.setFrozen(v);
        inputs.push_back(v);
    }
    // count[i][c] := at least c+1 of inputs[0..i] are true, c in [0, at_most].
    std::vector<Var> prev;
    for (int i = 0; i < k; i++) {
        std::vector<Var> cur;
        for (int c = 0; c <= at_most; c++) {
            Var v = s.newVar();
            cur.push_back(v);
            Lit x = Lit::pos(inputs[i]);
            Lit out = Lit::pos(v);
            if (c == 0) {
                // v <-> x | prev[0]
                if (prev.empty()) {
                    s.addClause({~out, x});
                    s.addClause({out, ~x});
                } else {
                    Lit p = Lit::pos(prev[0]);
                    s.addClause({~out, x, p});
                    s.addClause({out, ~x});
                    s.addClause({out, ~p});
                }
            } else if (prev.empty()) {
                s.addClause({~out}); // c+1 > 1 trues among 1 input
            } else {
                // v <-> prev[c] | (x & prev[c-1])
                Lit pc = Lit::pos(prev[c]);
                Lit pm = Lit::pos(prev[c - 1]);
                s.addClause({~out, pc, x});
                s.addClause({~out, pc, pm});
                s.addClause({out, ~pc});
                s.addClause({out, ~x, ~pm});
            }
        }
        prev = cur;
    }
    // Forbid at_most+1 trues; also assert at least one true so the
    // enumeration is not the full 2^k cube.
    s.addClause({Lit::neg(prev[at_most])});
    s.addClause({Lit::pos(prev[0])});

    MicroRun run;
    run.scenario = name;
    lts::Timer wall;
    if (simplify)
        s.simplify();
    run.problemClauses = static_cast<uint64_t>(s.numClauses());
    int models = 0;
    while (s.solve() == SolveResult::Sat) {
        models++;
        Clause blocking;
        for (Var v : inputs)
            blocking.push_back(Lit(v, s.modelValue(v)));
        if (!s.addClause(blocking))
            break;
    }
    run.wallSeconds = wall.seconds();
    run.conflicts = s.stats().conflicts;
    run.propagations = s.stats().propagations;
    run.eliminatedVars = s.stats().eliminatedVars;
    run.subsumedClauses = s.stats().subsumedClauses;
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    std::vector<lts::bench::MicroRun> runs = {
        runCounterEnumeration("simplify-on", true),
        runCounterEnumeration("simplify-off", false),
    };
    for (const auto &r : runs) {
        std::printf("%-14s wall %.3fs conflicts %llu propagations %llu "
                    "elim %llu subsumed %llu\n",
                    r.scenario.c_str(), r.wallSeconds,
                    static_cast<unsigned long long>(r.conflicts),
                    static_cast<unsigned long long>(r.propagations),
                    static_cast<unsigned long long>(r.eliminatedVars),
                    static_cast<unsigned long long>(r.subsumedClauses));
    }
    lts::bench::writeMicroSatJson("BENCH_micro_sat.json", runs);
    return 0;
}
