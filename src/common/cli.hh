/**
 * @file
 * Tiny command-line flag parser shared by benches and examples.
 *
 * Supports flags of the form --name=value and bare --name (boolean true).
 * parse() accepts any flag, so google-benchmark flags can pass through
 * untouched; a tool that owns its whole command line declares its flags
 * with requireKnown(), so a misspelt one is an error, not a default.
 */

#ifndef DITILE_COMMON_CLI_HH
#define DITILE_COMMON_CLI_HH

#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ditile {

/**
 * Parsed command-line flags.
 */
class CliFlags
{
  public:
    /** Parse argv; every "--k=v" or "--k" becomes an entry. */
    static CliFlags parse(int argc, char **argv);

    bool has(const std::string &name) const;
    std::string getString(const std::string &name,
                          const std::string &fallback) const;
    double getDouble(const std::string &name, double fallback) const;
    long long getInt(const std::string &name, long long fallback) const;
    bool getBool(const std::string &name, bool fallback) const;

    /**
     * Exit 1 with "unknown flag '--NAME'" for the first flag (in name
     * order) that none of the `known` lists declares.
     */
    void requireKnown(
        std::initializer_list<std::span<const std::string_view>> known)
        const;

    /** argv entries that were not --flags (e.g. positional args). */
    const std::vector<std::string> &positional() const { return positional_; }

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

} // namespace ditile

#endif // DITILE_COMMON_CLI_HH
