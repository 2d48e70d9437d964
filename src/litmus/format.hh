/**
 * @file
 * Textual litmus-test interchange format.
 *
 * A diy/herd-inspired format so synthesized suites can be fed into
 * external testing infrastructure (Section 2.1) and read back:
 *
 *     LTS <name>
 *     thread 0: St [x] ; St.rel [y]
 *     thread 1: Ld.acq r0 = [y] ; Ld r1 = [x]
 *     deps: data 0 -> 1
 *     rmw: 2 3
 *     forbidden: rf 1 -> 2 ; init 3 ; co 0 < 4
 *     end
 *
 * Events are numbered test-wide in program order (thread 0 first). The
 * "forbidden" clause lists the rf edges, explicit initial reads, and co
 * constraints of the outcome; co is completed per location in listed
 * order.
 */

#ifndef LTS_LITMUS_FORMAT_HH
#define LTS_LITMUS_FORMAT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "litmus/test.hh"

namespace lts::litmus
{

class TextCursor;

/** Serialize @p test (with its forbidden outcome, if any). */
std::string writeLitmus(const LitmusTest &test);

/** Append a whole suite to @p out, tests separated by blank lines. */
void appendLitmusSuite(std::string &out,
                       const std::vector<LitmusTest> &tests);

/** Write a whole suite, tests separated by blank lines. */
void writeLitmusSuite(std::ostream &out,
                      const std::vector<LitmusTest> &tests);

/**
 * Parse one test from the format above. Throws std::runtime_error with
 * a line diagnostic on malformed input.
 */
LitmusTest parseLitmus(const std::string &text);

/**
 * Parse a suite (zero or more tests) from text in memory, in one pass
 * over views into it. Stops after @p max_tests tests, leaving @p in
 * just past the last one's 'end' line, so a text can carry several
 * suites back to back. Diagnostics number lines from @p in's position.
 */
std::vector<LitmusTest> parseLitmusSuite(TextCursor &in,
                                         size_t max_tests = SIZE_MAX);

/**
 * The same parse from a stream. Reads no further than the parse does:
 * after @p max_tests tests @p in is positioned just past the last one's
 * 'end' line.
 */
std::vector<LitmusTest>
parseLitmusSuite(std::istream &in, size_t max_tests = SIZE_MAX);

} // namespace lts::litmus

#endif // LTS_LITMUS_FORMAT_HH
