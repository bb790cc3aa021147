/**
 * @file
 * Logging sink implementations.
 */

#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_set>

namespace ditile {

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

namespace {
std::mutex g_warn_once_mutex;
std::unordered_set<std::string> g_warn_once_seen;
bool g_warn_once_full_notified = false;
} // namespace

bool
warnOnceImpl(const std::string &site_key, const std::string &msg)
{
    bool notify_full = false;
    {
        std::lock_guard<std::mutex> lock(g_warn_once_mutex);
        if (g_warn_once_seen.count(site_key))
            return false;
        if (g_warn_once_seen.size() >= kWarnOnceCap) {
            // Bounded memory: past the cap, remember nothing new and
            // announce the saturation exactly once.
            if (g_warn_once_full_notified)
                return false;
            g_warn_once_full_notified = true;
            notify_full = true;
        } else {
            g_warn_once_seen.insert(site_key);
        }
    }
    if (notify_full) {
        std::fprintf(stderr,
                     "warn: warnOnce table full (%zu sites); further "
                     "novel warnings suppressed\n",
                     kWarnOnceCap);
        return false;
    }
    std::fprintf(stderr, "warn: %s (repeats suppressed)\n", msg.c_str());
    return true;
}

std::size_t
warnOnceTableSize()
{
    std::lock_guard<std::mutex> lock(g_warn_once_mutex);
    return g_warn_once_seen.size();
}

void
warnOnceResetForTest()
{
    std::lock_guard<std::mutex> lock(g_warn_once_mutex);
    g_warn_once_seen.clear();
    g_warn_once_full_notified = false;
}

} // namespace detail
} // namespace ditile
