/**
 * @file
 * The traced replay: the incremental engine's cold query and a
 * restarted daemon's first query, re-driven from the benchmark's own
 * code with a span around every call into mm, synth, rel, sat, litmus,
 * store and the wire layer.
 *
 * The replay issues the same calls, in the same order, on the same
 * public APIs as synth::Service::query and the incremental engine of
 * synth/synthesizer.cc under default options, so it must reproduce
 * their suite digest, store keys and solver counters exactly. The
 * caller compares them against the engine's own run; a mismatch means
 * the per-layer numbers would describe a different program.
 */

#ifndef LTSBENCH_REPLAY_HH
#define LTSBENCH_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hh"

namespace ltsbench
{

struct ReplayReport
{
    Trace trace;
    double wallSeconds = 0;

    /**
     * Longest size job, seconds: base criterion, encoding, simplify,
     * symmetry breaking, every axiom's sweep and teardown. The
     * incremental engine runs one pool job per size, so this bounds the
     * cold query's wall time under any number of jobs.
     */
    double criticalJobSeconds = 0;

    /** Suite digests: replayed synthesis, restart from the engine's
     *  store, and the restart result after the wire round trip. */
    std::string coldDigest;
    std::string restartDigest;
    std::string wireDigest;

    /** SAT models enumerated (the engine's "instances" counter). */
    uint64_t instances = 0;

    /** Per-solver conflict totals, summed; must equal the enumeration
     *  plus witness conflicts the spans attributed. */
    uint64_t solverConflicts = 0;

    /** Rendered key bytes per size: base formula plus every axiom's
     *  violation formula, once each. */
    std::vector<uint64_t> keyBytesBySize;

    /** Shard keys the replay derived, manifest order; and the keys the
     *  engine's manifest lists. */
    std::vector<std::string> replayShardKeys;
    std::vector<std::string> engineShardKeys;
};

/**
 * Replay one full-scope query for @p model_name, sizes 2..@p max_size:
 * the cold synthesis persisted into @p scratch_store_dir (a fresh
 * directory), then a restart served from @p engine_store_dir, which
 * the engine's own cold query populated, then the result's wire round
 * trip. Throws std::runtime_error when a step cannot complete.
 */
ReplayReport replaySession(const std::string &model_name, int max_size,
                           const std::string &engine_store_dir,
                           const std::string &scratch_store_dir);

/**
 * Rendered key bytes per size for sizes 2..@p max_size (base plus all
 * violation formulas), without synthesizing anything.
 */
std::vector<uint64_t> keyBytesBySize(const std::string &model_name,
                                     int max_size);

} // namespace ltsbench

#endif // LTSBENCH_REPLAY_HH
