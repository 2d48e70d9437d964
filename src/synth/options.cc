#include "synth/options.hh"

namespace lts::synth
{

const std::vector<FlagSpec> &
synthFlagSpecs()
{
    // Defaults match SynthOptions except --jobs: binaries default to all
    // hardware threads, while the library default (1) stays serial so
    // callers that never touch jobs are deterministic by construction.
    static const std::vector<FlagSpec> specs = {
        {"min-size", "2", "smallest test size (instructions)"},
        {"max-size", "4", "largest test size"},
        {"canon", "paper", "canonicalizer: paper|exact|off (Section 5.1)"},
        {"block-static", "true",
         "block only the static part of each model; false blocks full "
         "instances (ablation)"},
        {"conflict-budget", "0",
         "SAT conflict cap per (axiom, size) query family (0 = off)"},
        {"max-tests-per-size", "0",
         "stop each size after this many tests (0 = off)"},
        {"sbp", "true",
         "in-solver symmetry breaking: lex-leader predicates plus orbit "
         "blocking; suites are byte-identical on or off, only rawInstances "
         "and wall time change"},
        {"jobs", "0",
         "parallel synthesis jobs (0 = all hardware threads); output is "
         "byte-identical for any value"},
        {"simplify", "true",
         "preprocess each solver's permanent encoding (subsumption, "
         "self-subsuming resolution, bounded variable elimination); suites "
         "are byte-identical on or off"},
        {"proof", "",
         "write a DRAT proof trace per size into this directory; each "
         "exhausted shard records its final Unsat as a checkable "
         "conclusion (see lts-drat-check)"},
        {"dump-dimacs", "",
         "dump each exhausted shard's final post-simplify CNF into this "
         "directory as DIMACS"},
    };
    return specs;
}

void
declareSynthFlags(Flags &flags)
{
    flags.declareAll(synthFlagSpecs());
}

SynthOptions
synthOptionsFromFlags(const Flags &flags)
{
    SynthOptions opt;
    opt.minSize = flags.getInt("min-size");
    opt.maxSize = flags.getInt("max-size");
    opt.canon = litmus::parseCanonMode(flags.get("canon"));
    opt.blockStaticOnly = flags.getBool("block-static");
    opt.conflictBudget = flags.getUint64("conflict-budget");
    opt.maxTestsPerSize = flags.getInt("max-tests-per-size");
    opt.symmetryBreaking = flags.getBool("sbp");
    opt.jobs = flags.getInt("jobs");
    opt.simplify = flags.getBool("simplify");
    opt.proofDir = flags.get("proof");
    opt.dumpDimacsDir = flags.get("dump-dimacs");
    return opt;
}

} // namespace lts::synth
