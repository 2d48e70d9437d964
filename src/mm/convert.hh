/**
 * @file
 * Conversions between the litmus-test IR and relational instances.
 *
 * The synthesizer works in instance space (relations over atoms); suites,
 * printers, and the canonicalizer work on LitmusTest. These converters
 * are the bridge: toInstance embeds a test (and optionally an outcome)
 * into a model's vocabulary, and fromInstance reads a synthesized
 * instance back out as a test plus its witness (forbidden) outcome.
 */

#ifndef LTS_MM_CONVERT_HH
#define LTS_MM_CONVERT_HH

#include "litmus/test.hh"
#include "mm/model.hh"
#include "rel/instance.hh"

namespace lts::mm
{

/**
 * Embed @p test with execution @p outcome into @p model's vocabulary.
 * Throws if the test uses a feature the model lacks (e.g. dependencies in
 * TSO, or an annotation with no corresponding set).
 *
 * When the model carries an explicit sc order (SCC), @p sc_order gives
 * the coherence of SC fences (pairs of event ids); it may be empty.
 */
rel::Instance toInstance(const Model &model, const litmus::LitmusTest &test,
                         const litmus::Outcome &outcome,
                         const std::vector<std::pair<int, int>> &sc_order = {});

/**
 * Read a well-formed instance back as a litmus test; the instance's
 * rf/co become the test's forbidden outcome.
 */
litmus::LitmusTest fromInstance(const Model &model,
                                const rel::Instance &inst);

} // namespace lts::mm

#endif // LTS_MM_CONVERT_HH
