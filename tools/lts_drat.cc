/**
 * @file
 * lts-drat-check — independent DRAT proof checker.
 *
 * Verifies the self-contained proof traces the synthesizer writes under
 * `ltsgen synth --proof=DIR` (see sat/drat.hh for the format and trust
 * model). The checker shares no state with the solver: it replays the
 * trace with its own unit propagation, verifying each conclusion
 * backward and extracting the unsat core as a side effect.
 *
 *   lts-drat-check proofs/tso.n4.drat          # check one trace
 *   lts-drat-check --verify-all proofs/tso.n*.drat  # check every derivation
 *
 * Exit code 0 when every file checks, 1 when any fails (the diagnostic
 * names the offending step), 2 on usage errors.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sat/drat.hh"

using namespace lts;

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: lts-drat-check [--verify-all] [--quiet] FILE...\n"
        "\n"
        "  --verify-all  check every derived clause, not only the\n"
        "                conclusions' antecedent cone\n"
        "  --quiet       print nothing for proofs that check\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool verify_all = false;
    bool quiet = false;
    std::vector<std::string> files;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--verify-all") == 0) {
            verify_all = true;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            usage();
            return 0;
        } else if (argv[i][0] == '-' && argv[i][1] != '\0') {
            std::fprintf(stderr, "lts-drat-check: unknown flag %s\n",
                         argv[i]);
            usage();
            return 2;
        } else {
            files.push_back(argv[i]);
        }
    }
    if (files.empty()) {
        usage();
        return 2;
    }

    int bad = 0;
    for (const std::string &path : files) {
        sat::DratCheckResult res = sat::checkDratFile(path, verify_all);
        if (!res.ok) {
            std::fprintf(stderr, "%s: FAILED: %s\n", path.c_str(),
                         res.error.c_str());
            bad++;
            continue;
        }
        if (!quiet) {
            std::printf("%s: ok\n", path.c_str());
            std::printf(
                "  steps %zu (inputs %zu, derived %zu, deletions %zu, "
                "conclusions %zu)\n",
                res.steps, res.inputs, res.derived, res.deletions,
                res.conclusions);
            std::printf("  verified %zu derivations (%zu via RAT)\n",
                        res.verified, res.ratSteps);
            std::printf("  core: %zu steps, %zu of %zu inputs\n",
                        res.coreSteps, res.coreInputs, res.inputs);
        }
    }
    return bad == 0 ? 0 : 1;
}
