/**
 * @file
 * The one content-addressed cache policy, shared by sim::PlanCache,
 * workload::DigestCache and tiling::CommModelCache.
 *
 * A ContentCache maps a content key (a hash of every input the value
 * depends on) to a value built once from those inputs:
 *
 * - Lookup: obtain() looks the key up under the lock and counts one
 *   hit or one miss. peek() and contains() count nothing.
 * - Build: a miss builds outside the lock through the caller's
 *   callable, so misses on different keys proceed in parallel.
 * - Publish: the first finished builder wins; a racer that finishes
 *   later drops its own value and returns the published one.
 * - Coverage (optional): obtain()'s `covers` predicate says whether a
 *   value serves this lookup. A published value that does not is
 *   still counted and announced as a hit, then rebuilt outside the
 *   lock and republished under the same key, unless a racer has
 *   meanwhile published one that covers. Coverage must be monotone
 *   (a value covering a lookup covers every smaller one), so a
 *   republish never drops what an earlier lookup needed.
 * - Observability: a named cache also emits, per lookup, the Tracer
 *   cache instant "<label> hit" or "<label> miss" carrying the key,
 *   and bumps the metric "cache.<name>.hits" or "cache.<name>.misses";
 *   each eviction bumps "cache.<name>.evictions". Events fire outside
 *   the lock and, on a miss, before the build, so nested lookups made
 *   by the build follow in lookup order. A silent cache emits nothing.
 * - LRU (optional): setCapacity() bounds the entry count (0, the
 *   default, is unbounded), enforced only by evictToCapacity(), never
 *   by obtain(), so a value pinned by an in-flight caller is never
 *   dropped mid-use. Recency advances only on touch(), never on a
 *   lookup, so eviction order is a pure function of the serial touch
 *   sequence, not of which worker finished building first. Entries
 *   never touched evict first; ties break on ascending key.
 */

#ifndef DITILE_COMMON_CONTENT_CACHE_HH
#define DITILE_COMMON_CONTENT_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/trace.hh"

namespace ditile {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ContentCache
{
  public:
    /** A silent cache: counters only. */
    ContentCache() = default;

    /** A named cache: lookups and evictions also reach the Tracer
     *  ("plan-cache" / "plan" -> "plan-cache hit", "cache.plan.hits"). */
    ContentCache(const std::string &trace_label,
                 const std::string &metric_name)
        : hitEvent_(trace_label + " hit"),
          missEvent_(trace_label + " miss"),
          hitMetric_("cache." + metric_name + ".hits"),
          missMetric_("cache." + metric_name + ".misses"),
          evictMetric_("cache." + metric_name + ".evictions")
    {
        static_assert(std::is_integral_v<Key>,
                      "trace instants carry an integer content key");
    }

    ContentCache(const ContentCache &) = delete;
    ContentCache &operator=(const ContentCache &) = delete;

    /** The value under `key`, from `build()` on a miss. */
    template <typename Build>
    Value
    obtain(const Key &key, Build &&build)
    {
        return obtain(key, std::forward<Build>(build),
                      [](const Value &) { return true; });
    }

    /** The value under `key` that `covers(value)`, from `build()` on a
     *  miss or when the published value does not cover. */
    template <typename Build, typename Covers>
    Value
    obtain(const Key &key, Build &&build, Covers &&covers)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        const auto found = entries_.find(key);
        const bool hit = found != entries_.end();
        ++(hit ? hits_ : misses_);
        std::optional<Value> value;
        if (hit)
            value = found->second;
        lock.unlock();
        announce(key, hit ? hitEvent_ : missEvent_,
                 hit ? hitMetric_ : missMetric_);
        if (value && covers(*value))
            return *value;
        Value built = build();
        lock.lock();
        auto [it, inserted] = entries_.try_emplace(key, std::move(built));
        // try_emplace leaves `built` untouched when the key is taken;
        // `covers` runs under the lock so check and replace are one.
        if (!inserted && !covers(it->second))
            it->second = std::move(built);
        return it->second;
    }

    /** The published value under `key`, if any; counts no lookup. */
    std::optional<Value>
    peek(const Key &key) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it == entries_.end())
            return std::nullopt;
        return it->second;
    }

    bool
    contains(const Key &key) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.find(key) != entries_.end();
    }

    void
    setCapacity(std::size_t capacity)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        capacity_ = capacity;
    }

    /** Mark `key` most recently used (it need not be published yet). */
    void
    touch(const Key &key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        recency_[key] = ++touchSeq_;
    }

    /** Evict until size() <= capacity; returns the evicted keys. Call
     *  from serial points only. */
    std::vector<Key>
    evictToCapacity()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<Key> evicted;
        if (capacity_ == 0)
            return evicted;
        while (entries_.size() > capacity_) {
            // Untouched entries carry recency 0; hash-map order never
            // leaks into the choice.
            const Key *victim = nullptr;
            std::uint64_t victim_recency = 0;
            for (const auto &entry : entries_) {
                const auto it = recency_.find(entry.first);
                const std::uint64_t r =
                    it == recency_.end() ? 0 : it->second;
                if (!victim || r < victim_recency ||
                    (r == victim_recency && entry.first < *victim)) {
                    victim = &entry.first;
                    victim_recency = r;
                }
            }
            evicted.push_back(*victim);
            recency_.erase(evicted.back());
            entries_.erase(evicted.back());
            ++evictions_;
            if (!evictMetric_.empty())
                Tracer::global().addMetric(evictMetric_, 1);
        }
        return evicted;
    }

    std::uint64_t
    hits() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hits_;
    }

    std::uint64_t
    misses() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return misses_;
    }

    std::uint64_t
    evictions() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return evictions_;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

    /** Drop every entry, the recency order and all counters. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.clear();
        recency_.clear();
        touchSeq_ = 0;
        hits_ = 0;
        misses_ = 0;
        evictions_ = 0;
    }

  private:
    void
    announce(const Key &key, const std::string &event,
             const std::string &metric) const
    {
        if constexpr (std::is_integral_v<Key>) {
            if (event.empty())
                return;
            Tracer &tracer = Tracer::global();
            tracer.cacheInstant(event.c_str(),
                                static_cast<std::uint64_t>(key));
            tracer.addMetric(metric, 1);
        }
    }

    const std::string hitEvent_, missEvent_;
    const std::string hitMetric_, missMetric_, evictMetric_;

    mutable std::mutex mutex_;
    std::unordered_map<Key, Value, Hash> entries_;
    std::unordered_map<Key, std::uint64_t, Hash> recency_;
    std::uint64_t touchSeq_ = 0;
    std::size_t capacity_ = 0; ///< 0 = unbounded.
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace ditile

#endif // DITILE_COMMON_CONTENT_CACHE_HH
