/**
 * @file
 * Cooperative shutdown flag for long-running tools.
 *
 * ditile_serve runs until told to stop, and a heavy ditile_sweep can
 * run for minutes; both used to die on Ctrl-C/SIGTERM with their
 * buffered CSV/metrics output dropped on the floor. The fix is the
 * classic async-signal-safe pattern: the handler only sets a
 * sig_atomic_t flag, and the tool's loops poll shutdownRequested() at
 * their natural checkpoints (between protocol lines, between sweep
 * grid points), then flush whatever partial output exists before
 * exiting.
 *
 * installShutdownHandler() registers SIGINT and SIGTERM without
 * SA_RESTART so a blocking stdin read returns EINTR instead of
 * swallowing the signal. A second signal while shutdown is already
 * pending falls through to the default disposition, so a hung flush
 * can still be killed interactively.
 */

#ifndef DITILE_COMMON_SHUTDOWN_HH
#define DITILE_COMMON_SHUTDOWN_HH

namespace ditile {

/** Install SIGINT/SIGTERM handlers that set the shutdown flag. */
void installShutdownHandler();

/** True once SIGINT/SIGTERM arrived (or requestShutdown was called). */
bool shutdownRequested();

/** Programmatic trigger, for tests and internal stop paths. */
void requestShutdown();

/** Clear the flag (tests only). */
void resetShutdownForTest();

} // namespace ditile

#endif // DITILE_COMMON_SHUTDOWN_HH
