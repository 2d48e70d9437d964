/**
 * @file
 * ltsd — the long-running synthesis daemon.
 *
 * Listens on a unix-domain socket, keeps assembled results resident
 * (daemon mode; registry models stay resident in every Service), and
 * answers repeat SuiteRequests from memory or the content-addressed
 * suite store (synth/service.hh). Clients are
 * `ltsgen query --socket=...` or anything speaking the frame protocol
 * of store/wire.hh.
 *
 *   ltsd --socket=/tmp/ltsd.sock --store=~/.lts-store   # serve
 *   ltsd --socket=/tmp/ltsd.sock --ping                 # liveness probe
 *   ltsd --socket=/tmp/ltsd.sock --shutdown             # stop a daemon
 */

#include <atomic>
#include <csignal>
#include <cstdio>

#include "common/flags.hh"
#include "synth/daemon.hh"

using namespace lts;

namespace
{

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags;
    flags.declare("socket", "ltsd.sock", "unix-domain socket path");
    flags.declare("store", ".lts-store",
                  "suite store directory ('' = in-memory only)");
    flags.declare("verbose", "false", "log one line per request");
    flags.declare("ping", "false",
                  "probe a running daemon and exit (0 = alive)");
    flags.declare("shutdown", "false",
                  "ask a running daemon to exit cleanly");
    if (!flags.parse(argc, argv))
        return 1;

    const std::string socket_path = flags.get("socket");
    if (flags.getBool("ping")) {
        bool alive = synth::pingDaemon(socket_path);
        std::printf("%s\n", alive ? "alive" : "no daemon");
        return alive ? 0 : 1;
    }
    if (flags.getBool("shutdown")) {
        bool ok = synth::shutdownDaemon(socket_path);
        std::printf("%s\n", ok ? "stopped" : "no daemon");
        return ok ? 0 : 1;
    }

    synth::DaemonConfig config;
    config.socketPath = socket_path;
    config.storeDir = flags.get("store");
    config.verbose = flags.getBool("verbose");

    // SIGINT/SIGTERM request a clean shutdown: the accept loop polls
    // g_stop between connections and removes the socket file on exit.
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    return runDaemon(config, &g_stop);
}
