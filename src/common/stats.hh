/**
 * @file
 * Lightweight named statistics registry used by all simulator components.
 *
 * A StatSet is an ordered map from stat name to a scalar accumulator.
 * Components own a StatSet and expose it; harnesses merge StatSets from
 * subcomponents to build report tables. Ordering is insertion order so
 * reports are stable.
 */

#ifndef DITILE_COMMON_STATS_HH
#define DITILE_COMMON_STATS_HH

#include <string>
#include <unordered_map>
#include <vector>

namespace ditile {

/**
 * Ordered collection of named double-valued statistics.
 */
class StatSet
{
  public:
    /** Add delta to the named stat, creating it at zero if absent. */
    void add(const std::string &name, double delta);

    /** Set the named stat to an absolute value. */
    void set(const std::string &name, double value);

    /** Read a stat; returns 0 for absent names. */
    double get(const std::string &name) const;

    /** True if the stat has ever been touched. */
    bool has(const std::string &name) const;

    /** Merge another StatSet by summing matching names. */
    void merge(const StatSet &other);

    /** Reset all stats to zero (names are kept). */
    void clear();

    /** Names in insertion order. */
    const std::vector<std::string> &names() const { return order_; }

    /** Number of distinct stats. */
    std::size_t size() const { return order_.size(); }

  private:
    std::unordered_map<std::string, double> values_;
    std::vector<std::string> order_;
};

} // namespace ditile

#endif // DITILE_COMMON_STATS_HH
