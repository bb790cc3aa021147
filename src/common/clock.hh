/**
 * @file
 * Virtual clock for the serving tier.
 *
 * The streaming service measures request latency and sustained QPS
 * against a clock, but its determinism bar — byte-identical summaries
 * at any --threads width — forbids reading wall time on the hot path.
 * Mirroring the tracer's virtual-cycle discipline, VirtualClock is a
 * manually advanced microsecond counter: the serve replay loop
 * advances it from *modeled* quantities (arrival schedules, modeled
 * service durations), so every timestamp is a pure function of the
 * inputs and the summary is reproducible. No host time reaches a
 * serve latency or the summary.
 *
 * Time is integer microseconds since the clock's epoch, so downstream
 * percentile math never touches floating point.
 */

#ifndef DITILE_COMMON_CLOCK_HH
#define DITILE_COMMON_CLOCK_HH

#include <cstdint>

namespace ditile {

/**
 * Deterministic, manually advanced clock. Not thread-safe: advance it
 * only from serial program points (the serve loop's admission and
 * merge steps), never from inside a parallel region.
 */
class VirtualClock
{
  public:
    /** Microseconds since this clock's epoch. */
    std::uint64_t nowMicros() const { return now_; }

    /** Move the clock forward to at least `t` microseconds. */
    void
    advanceTo(std::uint64_t t)
    {
        if (t > now_)
            now_ = t;
    }

    /** Advance by a delta; returns the new now. */
    std::uint64_t
    advance(std::uint64_t delta_us)
    {
        now_ += delta_us;
        return now_;
    }

  private:
    std::uint64_t now_ = 0;
};

} // namespace ditile

#endif // DITILE_COMMON_CLOCK_HH
