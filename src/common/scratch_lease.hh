/**
 * @file
 * Re-entrancy-safe thread-local scratch arenas.
 *
 * A plain `thread_local T` arena is unsafe on pool threads: a caller
 * blocked in parallelFor helps by running other pool tasks
 * (ThreadPool::tryRunOneTask), and such a task can be another
 * invocation of the very function that holds the arena — which would
 * then clobber it mid-use. A ScratchLease instead takes an arena from a
 * per-thread stack: a nested (re-entrant) lease on the same thread gets
 * its own arena, and a released arena is handed to the next lease, so
 * storage is still reused across calls.
 */

#ifndef DITILE_COMMON_SCRATCH_LEASE_HH
#define DITILE_COMMON_SCRATCH_LEASE_HH

#include <cstddef>
#include <memory>
#include <vector>

namespace ditile {

/**
 * Exclusive use of one thread-local `T` for the lease's lifetime.
 * Leases on a thread nest strictly (scoped objects), so the stack is a
 * depth counter over arenas that live until the thread exits.
 */
template <typename T>
class ScratchLease
{
  public:
    ScratchLease()
    {
        Stack &stack = threadStack();
        if (stack.depth == stack.arenas.size())
            stack.arenas.push_back(std::make_unique<T>());
        arena_ = stack.arenas[stack.depth++].get();
    }

    ~ScratchLease() { --threadStack().depth; }

    ScratchLease(const ScratchLease &) = delete;
    ScratchLease &operator=(const ScratchLease &) = delete;

    T &operator*() const { return *arena_; }
    T *operator->() const { return arena_; }

  private:
    struct Stack
    {
        std::vector<std::unique_ptr<T>> arenas;
        std::size_t depth = 0; ///< Arenas currently leased.
    };

    static Stack &
    threadStack()
    {
        thread_local Stack stack;
        return stack;
    }

    T *arena_;
};

} // namespace ditile

#endif // DITILE_COMMON_SCRATCH_LEASE_HH
