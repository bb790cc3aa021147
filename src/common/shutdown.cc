/**
 * @file
 * Cooperative shutdown flag implementation.
 */

#include "common/shutdown.hh"

#include <csignal>

namespace ditile {

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

extern "C" void
shutdownHandler(int signum)
{
    g_shutdown = 1;
    // Re-raise with default disposition on the next delivery: a
    // second Ctrl-C must be able to kill a tool stuck mid-flush.
    std::signal(signum, SIG_DFL);
}

} // namespace

void
installShutdownHandler()
{
#if defined(__unix__) || defined(__APPLE__)
    // sigaction without SA_RESTART: blocking reads (the stdin
    // protocol loop) return EINTR instead of resuming, so the loop
    // observes the flag promptly.
    struct sigaction action = {};
    action.sa_handler = shutdownHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
#else
    std::signal(SIGINT, shutdownHandler);
    std::signal(SIGTERM, shutdownHandler);
#endif
}

bool
shutdownRequested()
{
    return g_shutdown != 0;
}

void
requestShutdown()
{
    g_shutdown = 1;
}

void
resetShutdownForTest()
{
    g_shutdown = 0;
}

} // namespace ditile
