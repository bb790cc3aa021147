/**
 * @file
 * CliFlags implementation.
 */

#include "common/cli.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"

namespace ditile {

CliFlags
CliFlags::parse(int argc, char **argv)
{
    CliFlags flags;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            flags.positional_.push_back(arg);
            continue;
        }
        const std::string body = arg.substr(2);
        const auto eq = body.find('=');
        if (eq == std::string::npos) {
            flags.values_.insert_or_assign(body, std::string("1"));
        } else {
            flags.values_.insert_or_assign(body.substr(0, eq),
                                           body.substr(eq + 1));
        }
    }
    return flags;
}

void
CliFlags::requireKnown(
    std::initializer_list<std::span<const std::string_view>> known) const
{
    for (const auto &[name, value] : values_) {
        const bool declared = std::any_of(
            known.begin(), known.end(), [&](const auto &list) {
                return std::find(list.begin(), list.end(), name) !=
                    list.end();
            });
        if (!declared)
            DITILE_FATAL("unknown flag '--", name, "'");
    }
}

bool
CliFlags::has(const std::string &name) const
{
    return values_.find(name) != values_.end();
}

std::string
CliFlags::getString(const std::string &name,
                    const std::string &fallback) const
{
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

double
CliFlags::getDouble(const std::string &name, double fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    const std::string &value = it->second;
    char *endp = nullptr;
    const double v = std::strtod(value.c_str(), &endp);
    if (value.empty() || endp != value.c_str() + value.size())
        DITILE_THROW("--", name, " expects a number, got '", value,
                     "'");
    return v;
}

long long
CliFlags::getInt(const std::string &name, long long fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    const std::string &value = it->second;
    char *endp = nullptr;
    const long long v = std::strtoll(value.c_str(), &endp, 10);
    if (value.empty() || endp != value.c_str() + value.size())
        DITILE_THROW("--", name, " expects an integer, got '", value,
                     "'");
    return v;
}

bool
CliFlags::getBool(const std::string &name, bool fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    return it->second != "0" && it->second != "false";
}

} // namespace ditile
