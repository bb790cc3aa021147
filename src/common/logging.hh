/**
 * @file
 * Minimal logging and error-termination helpers.
 *
 * Follows the gem5 split: panic() for internal invariant violations
 * (simulator bugs -> abort) and fatal() for user/config errors
 * (clean exit(1)). A third, recoverable tier sits between them:
 * DITILE_THROW raises an InputError for malformed user input
 * (files, CLI specs, serialized plans) so library code stays testable
 * and callers can degrade gracefully; tool main()s catch it at the
 * top and turn it into a fatal() exit. warn() reports status without
 * stopping, and warnOnce() deduplicates repeated warnings so
 * degraded-mode runs do not flood stderr.
 */

#ifndef DITILE_COMMON_LOGGING_HH
#define DITILE_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace ditile {

/**
 * Recoverable error for malformed or unusable *input* (edge lists,
 * JSON documents, fault specs, CLI values). Derives std::runtime_error
 * so existing catch sites keep working; library code raises it via
 * DITILE_THROW instead of exiting, and the CLI front ends catch it in
 * main() and exit(1) with the message.
 */
class InputError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace detail {
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);

/** Max distinct warnOnce sites remembered. Beyond the cap, novel
 *  warnings are suppressed behind one meta-warning so the dedup table
 *  stays bounded over arbitrarily long sweeps. */
inline constexpr std::size_t kWarnOnceCap = 256;

/** Returns true when the message was actually printed. */
bool warnOnceImpl(const std::string &site_key, const std::string &msg);
std::size_t warnOnceTableSize();
void warnOnceResetForTest();

template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}
} // namespace detail

/** Abort with a message: something that must never happen happened. */
#define DITILE_PANIC(...) \
    ::ditile::detail::panicImpl(__FILE__, __LINE__, \
        ::ditile::detail::format(__VA_ARGS__))

/** Exit(1) with a message: the configuration or input is unusable. */
#define DITILE_FATAL(...) \
    ::ditile::detail::fatalImpl(::ditile::detail::format(__VA_ARGS__))

/** Throw InputError: the input is malformed but the caller may recover. */
#define DITILE_THROW(...) \
    throw ::ditile::InputError(::ditile::detail::format(__VA_ARGS__))

/** Assert a simulator invariant; compiled in all build types. */
#define DITILE_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            ::ditile::detail::panicImpl(__FILE__, __LINE__, \
                ::ditile::detail::format("assertion failed: " #cond " ", \
                                         ##__VA_ARGS__)); \
        } \
    } while (0)

/** Warning message (always printed). */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::format(std::forward<Args>(args)...));
}

/**
 * Warning printed at most once per *format site* per process. The
 * first argument is the dedup key and must be the stable site prefix
 * ("fault injection active"); later arguments may embed per-point
 * values (dataset names, coordinates) without growing the dedup table,
 * which previously expanded unboundedly across long sweeps. The table
 * itself is capped at detail::kWarnOnceCap distinct sites. Thread-safe;
 * returns true when the message was printed.
 */
template <typename Site, typename... Args>
bool
warnOnce(const Site &site, Args &&...args)
{
    return detail::warnOnceImpl(
        detail::format(site),
        detail::format(site, std::forward<Args>(args)...));
}

} // namespace ditile

#endif // DITILE_COMMON_LOGGING_HH
