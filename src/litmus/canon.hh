/**
 * @file
 * Litmus test canonicalizer (Section 5.1 of the paper).
 *
 * Naive enumeration produces many symmetric copies of each test — thread
 * order and address naming are arbitrary (Figure 9). The canonicalizer
 * maps every test to a single representative so that a suite keeps one
 * copy per symmetry class.
 *
 * Two modes are provided:
 *
 *  - Paper: the algorithm the paper describes — hash each thread with
 *    thread-local address renaming, sort threads by hash, then reassign
 *    addresses in sorted-sequential order. This reproduces the paper's
 *    acknowledged blind spot (Figure 14): the two WWC variants whose
 *    first two threads have identical load/store patterns hash equal,
 *    tie-break on input order, and thus fail to merge.
 *
 *  - Exact: brute-force minimization over all thread permutations (with
 *    deterministic address renaming per permutation), picking the
 *    lexicographically least serialization. This is the "enhanced
 *    canonicalizer" the paper leaves as future work; it merges WWC.
 *
 *  - Off: the identity, for the no-symmetry-reduction ablation.
 */

#ifndef LTS_LITMUS_CANON_HH
#define LTS_LITMUS_CANON_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "litmus/test.hh"

namespace lts::litmus
{

/** Which canonicalization algorithm to use. */
enum class CanonMode
{
    Paper,
    Exact,
    Off,
};

/** "paper" / "exact" / "off": the --canon flag's vocabulary. */
const char *canonModeName(CanonMode mode);

/**
 * The mode canonModeName(mode) names. Throws std::runtime_error on any
 * other text, so a flag or wire value never falls back to a default.
 */
CanonMode parseCanonMode(std::string_view name);

/**
 * Return the canonical representative of @p test's symmetry class:
 * threads reordered, addresses renamed, events renumbered, and all
 * relations (including any forbidden outcome) remapped accordingly.
 * CanonMode::Off returns @p test unchanged.
 */
LitmusTest canonicalize(const LitmusTest &test, CanonMode mode);

/**
 * Deterministic serialization of the *static* part of a test (events,
 * program order, locations, memory orders, scopes, dependencies, rmw).
 * Equal strings iff structurally identical tests.
 */
std::string staticSerialize(const LitmusTest &test);

/**
 * Serialization of static part plus the forbidden outcome; used when a
 * suite distinguishes same-program tests with different outcomes.
 */
std::string fullSerialize(const LitmusTest &test);

/** Stable hash of the canonical static serialization. */
uint64_t canonicalHash(const LitmusTest &test, CanonMode mode);

/**
 * Apply an explicit thread permutation: new thread t is old thread
 * @p thread_order[t]. Addresses are renamed in order of first use and
 * events renumbered; all relations are remapped.
 */
LitmusTest permuteThreads(const LitmusTest &test,
                          const std::vector<int> &thread_order);

} // namespace lts::litmus

#endif // LTS_LITMUS_CANON_HH
