/**
 * @file
 * herd7-compatible `.litmus` export and ingest.
 *
 * The interchange format (format.hh) is ours; the `.litmus` format is the
 * field's. diy/litmus7/herd7 consume files shaped like
 *
 *     X86 SB
 *     { x=0; y=0; }
 *      P0          | P1          ;
 *      MOV [x],$1  | MOV [y],$1  ;
 *      MOV EAX,[y] | MOV EBX,[x] ;
 *     exists (0:EAX=0 /\ 1:EBX=0)
 *
 * and this module writes and reads them so synthesized suites can be
 * checked by herd7 against the published axiomatic models, run on real
 * hardware by litmus7, and — in the other direction — published suites
 * can be ingested for minimality/coverage audits (synth/minimality.hh).
 *
 * Two dialects are emitted:
 *
 *  - X86: x86 mnemonics (MOV/MFENCE/XCHG), used for TSO tests whose
 *    events an x86 program can express (plain accesses, SC fences,
 *    plain RMW pairs, no deps or scopes);
 *  - C: the C11-atomics litmus dialect herd7 accepts for any model
 *    (atomic_*_explicit + atomic_thread_fence), used everywhere else.
 *    Dependencies are expressed with the standard syntactic idioms
 *    (data: `v + (r0 ^ r0)`, address: `x + (r0 ^ r0)`, control:
 *    `if (r0 >= 0)`).
 *
 * Write values encode coherence: each write stores its 1-based position
 * in the forbidden outcome's per-location co order (declaration order
 * when the test has no forbidden outcome), so the final-state condition
 * derived from registerValues/finalValues pins the outcome, and ingest
 * can reconstruct rf (register value -> sourcing write) and co
 * (ascending stored values) exactly. Relations the surface syntax cannot
 * carry (scopes, workgroups, split RMW orders, deps on RMW halves)
 * travel as `LTS-*=` metadata lines, which herd7 tooling ignores.
 *
 * Tests without a forbidden outcome are emitted without a condition
 * line and ingest back as outcome-free — "no outcome" round-trips as
 * such rather than materializing an empty Outcome.
 */

#ifndef LTS_LITMUS_HERD_HH
#define LTS_LITMUS_HERD_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "litmus/test.hh"

namespace lts::litmus
{

/** Instruction dialect of an emitted `.litmus` file. */
enum class HerdDialect
{
    X86, ///< x86 mnemonics (arch header "X86")
    C,   ///< C11-atomics litmus dialect (arch header "C")
};

/** Export knobs. */
struct HerdOptions
{
    /**
     * Model the suite was synthesized for ("tso", "power", ...). Picks
     * each test's dialect (herdDialectFor): tso tests prefer X86 when
     * expressible; everything else uses C.
     */
    std::string modelName;
};

/**
 * The dialect @p test would be exported in for @p model_name: X86 iff
 * the model is tso and every event is expressible in x86 mnemonics,
 * else C.
 */
HerdDialect herdDialectFor(const LitmusTest &test,
                           const std::string &model_name);

/** Serialize @p test as one herd7 `.litmus` file. */
std::string writeHerd(const LitmusTest &test, const HerdOptions &options = {});

/**
 * Parse one `.litmus` file (X86 or C dialect) into the IR. Accepts both
 * files produced by writeHerd (lossless, including LTS-* metadata) and
 * external hand-written files, with the usual observability caveats:
 * reads the condition does not mention are taken to read the initial
 * value, and coherence among writes the condition does not pin is
 * completed in ascending stored-value order. Throws std::runtime_error
 * with a line-numbered diagnostic on malformed or unsupported input.
 */
LitmusTest parseHerd(const std::string &text);

/** Stream overload of parseHerd. */
LitmusTest parseHerd(std::istream &in);

/**
 * Filename-safe version of a test name ("tso/union#3" ->
 * "tso_union_3"), used by ltsgen --emit-litmus / --emit-cxx.
 */
std::string sanitizeTestName(const std::string &name);

/** Location name used in emitted programs: x, y, z, w, a, b, c, d, v8... */
std::string herdLocName(int loc);

/**
 * The stored-value assignment every emitted program uses: each write's
 * 1-based co position under the forbidden outcome (declaration order
 * when the test has none). Indexed by event id; -1 for non-writes. The
 * herd exporter and the C++11 harness (litmus/cxx.hh) share this so
 * their outcome tuples are directly comparable.
 */
std::vector<int> herdWriteValues(const LitmusTest &test);

} // namespace lts::litmus

#endif // LTS_LITMUS_HERD_HH
