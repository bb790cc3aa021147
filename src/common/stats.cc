/**
 * @file
 * StatSet implementation.
 */

#include "common/stats.hh"

namespace ditile {

void
StatSet::add(const std::string &name, double delta)
{
    auto [it, inserted] = values_.try_emplace(name, 0.0);
    if (inserted)
        order_.push_back(name);
    it->second += delta;
}

void
StatSet::set(const std::string &name, double value)
{
    auto [it, inserted] = values_.try_emplace(name, 0.0);
    if (inserted)
        order_.push_back(name);
    it->second = value;
}

double
StatSet::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

bool
StatSet::has(const std::string &name) const
{
    return values_.find(name) != values_.end();
}

void
StatSet::merge(const StatSet &other)
{
    for (const auto &name : other.order_)
        add(name, other.get(name));
}

void
StatSet::clear()
{
    for (auto &kv : values_)
        kv.second = 0.0;
}

} // namespace ditile
