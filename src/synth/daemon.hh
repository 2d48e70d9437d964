/**
 * @file
 * ltsd — the synthesis daemon — as a library.
 *
 * runDaemon() serves SuiteRequests over a unix-domain socket using the
 * frame protocol of store/wire.hh: per request the server streams zero
 * or more Progress frames and ends with exactly one Result (a
 * serialized SuiteResult) or Error frame. The daemon owns a Service in
 * daemon mode (resident results, beside the registry models every
 * Service keeps resident), so repeat queries hit
 * memory or the store and model-edit queries re-synthesize only the
 * changed shards. Each size job frees its solver when it ends, so a
 * request's memory is released once it is answered.
 *
 * Everything is callable in-process (the integration tests run the
 * server on a std::thread and the client on the test thread);
 * tools/ltsd.cc is a thin main() around runDaemon.
 */

#ifndef LTS_SYNTH_DAEMON_HH
#define LTS_SYNTH_DAEMON_HH

#include <atomic>
#include <string>

#include "synth/service.hh"

namespace lts::synth
{

struct DaemonConfig
{
    std::string socketPath; ///< unix-domain socket to listen on
    std::string storeDir;   ///< suite store directory ("" = memory only)
    bool verbose = false; ///< log one line per request to stderr
};

/**
 * Serve until a Shutdown frame arrives or @p stop (polled a few times a
 * second) becomes true. Binds the socket (removing a leftover socket
 * file first), handles one connection at a time — synthesis holds the
 * solver, so requests are serialized anyway. Returns 0 on clean
 * shutdown, 1 on setup failure (diagnostic on stderr).
 */
int runDaemon(const DaemonConfig &config,
              const std::atomic<bool> *stop = nullptr);

/**
 * Send one SuiteRequest to the daemon at @p socket_path, forwarding
 * Progress frames to @p on_progress, and return the parsed result.
 * Throws std::runtime_error on connection failure, protocol violations,
 * or a server-side Error frame.
 */
SuiteResult queryDaemon(const std::string &socket_path,
                        const SuiteRequest &request,
                        const QueryProgressFn &on_progress = nullptr);

/** True iff a daemon answers a Ping on @p socket_path. */
bool pingDaemon(const std::string &socket_path);

/** Ask the daemon to exit; true when it acknowledged. */
bool shutdownDaemon(const std::string &socket_path);

} // namespace lts::synth

#endif // LTS_SYNTH_DAEMON_HH
