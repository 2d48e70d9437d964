#include "synth/daemon.hh"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "store/wire.hh"

namespace lts::synth
{

namespace
{

using store::Frame;
using store::FrameType;

/** Bind-or-connect address setup; unix sockets cap path lengths. */
bool
fillAddress(const std::string &path, sockaddr_un &addr)
{
    if (path.empty() || path.size() >= sizeof addr.sun_path)
        return false;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

int
connectUnix(const std::string &path)
{
    sockaddr_un addr;
    if (!fillAddress(path, addr))
        throw std::runtime_error("ltsd: bad socket path: " + path);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        throw std::runtime_error(std::string("ltsd: socket: ") +
                                 std::strerror(errno));
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        int err = errno;
        ::close(fd);
        throw std::runtime_error("ltsd: cannot connect to " + path + ": " +
                                 std::strerror(err));
    }
    return fd;
}

/**
 * Handle one client connection; returns true when the daemon should
 * keep serving, false after an acknowledged Shutdown.
 */
bool
serveConnection(int fd, Service &service, const DaemonConfig &config)
{
    Frame frame;
    while (store::readFrame(fd, frame)) {
        switch (frame.type) {
        case FrameType::Request: {
            try {
                SuiteRequest request = parseSuiteRequest(frame.payload);
                if (config.verbose) {
                    std::fprintf(stderr, "ltsd: query model=%s bound=%d\n",
                                 request.model.c_str(), request.maxSize);
                }
                SuiteResult result = service.query(
                    request, [fd](const std::string &line) {
                        store::writeFrame(fd, FrameType::Progress, line);
                    });
                if (config.verbose) {
                    std::fprintf(stderr,
                                 "ltsd: %s cache=%s %.3fs\n",
                                 result.suiteDigest.c_str(),
                                 toString(result.cache).c_str(),
                                 result.seconds);
                }
                if (!store::writeFrame(fd, FrameType::Result,
                                       serializeSuiteResult(result))) {
                    return true; // client went away; next connection
                }
            } catch (const std::exception &e) {
                store::writeFrame(fd, FrameType::Error, e.what());
            }
            break;
        }
        case FrameType::Ping:
            store::writeFrame(fd, FrameType::Result, "");
            break;
        case FrameType::Shutdown:
            store::writeFrame(fd, FrameType::Result, "");
            return false;
        default:
            store::writeFrame(fd, FrameType::Error,
                              "unexpected frame type");
            break;
        }
    }
    return true;
}

/** Send an empty @p type frame; true iff the daemon answers Result. */
bool
controlDaemon(const std::string &socket_path, FrameType type)
{
    try {
        int fd = connectUnix(socket_path);
        bool ok = store::writeFrame(fd, type, "");
        Frame frame;
        ok = ok && store::readFrame(fd, frame) &&
             frame.type == FrameType::Result;
        ::close(fd);
        return ok;
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace

int
runDaemon(const DaemonConfig &config, const std::atomic<bool> *stop)
{
    sockaddr_un addr;
    if (!fillAddress(config.socketPath, addr)) {
        std::fprintf(stderr, "ltsd: bad socket path: %s\n",
                     config.socketPath.c_str());
        return 1;
    }
    // A dead daemon leaves its socket file behind; bind would fail on
    // it forever. Taking the path over is the standard single-daemon
    // convention (callers who want exclusion ping first).
    ::unlink(config.socketPath.c_str());

    int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) {
        std::fprintf(stderr, "ltsd: socket: %s\n", std::strerror(errno));
        return 1;
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd, 8) != 0) {
        std::fprintf(stderr, "ltsd: cannot listen on %s: %s\n",
                     config.socketPath.c_str(), std::strerror(errno));
        ::close(listen_fd);
        return 1;
    }
    // A client that disconnects mid-result must not kill the daemon
    // with SIGPIPE; writeFrame then sees EPIPE and moves on.
    ::signal(SIGPIPE, SIG_IGN);

    ServiceConfig service_config;
    service_config.storeDir = config.storeDir;
    service_config.residentEncodings = true;
    Service service(service_config);

    if (config.verbose) {
        std::fprintf(stderr, "ltsd: listening on %s (store: %s)\n",
                     config.socketPath.c_str(),
                     config.storeDir.empty() ? "<memory>"
                                             : config.storeDir.c_str());
    }

    bool serving = true;
    while (serving && (!stop || !stop->load())) {
        pollfd pfd{listen_fd, POLLIN, 0};
        int ready = ::poll(&pfd, 1, 200);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            std::fprintf(stderr, "ltsd: poll: %s\n", std::strerror(errno));
            break;
        }
        if (ready == 0)
            continue;
        int client = ::accept(listen_fd, nullptr, nullptr);
        if (client < 0) {
            if (errno == EINTR)
                continue;
            std::fprintf(stderr, "ltsd: accept: %s\n",
                         std::strerror(errno));
            break;
        }
        serving = serveConnection(client, service, config);
        ::close(client);
    }
    ::close(listen_fd);
    ::unlink(config.socketPath.c_str());
    if (config.verbose)
        std::fprintf(stderr, "ltsd: shut down\n");
    return 0;
}

SuiteResult
queryDaemon(const std::string &socket_path, const SuiteRequest &request,
            const QueryProgressFn &on_progress)
{
    int fd = connectUnix(socket_path);
    if (!store::writeFrame(fd, FrameType::Request,
                           serializeSuiteRequest(request))) {
        ::close(fd);
        throw std::runtime_error("ltsd: cannot send request");
    }
    Frame frame;
    while (store::readFrame(fd, frame)) {
        switch (frame.type) {
        case FrameType::Progress:
            if (on_progress)
                on_progress(frame.payload);
            break;
        case FrameType::Result: {
            SuiteResult result = parseSuiteResult(frame.payload);
            ::close(fd);
            return result;
        }
        case FrameType::Error: {
            std::string what = frame.payload;
            ::close(fd);
            throw std::runtime_error("ltsd: server error: " + what);
        }
        default:
            ::close(fd);
            throw std::runtime_error("ltsd: unexpected frame from server");
        }
    }
    ::close(fd);
    throw std::runtime_error("ltsd: connection closed before result");
}

bool
pingDaemon(const std::string &socket_path)
{
    return controlDaemon(socket_path, FrameType::Ping);
}

bool
shutdownDaemon(const std::string &socket_path)
{
    return controlDaemon(socket_path, FrameType::Shutdown);
}

} // namespace lts::synth
