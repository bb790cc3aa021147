/**
 * @file
 * Minimal JSON emission and parsing.
 *
 * Emission: the simulator exports run records for downstream analysis
 * scripts (JsonObject). Parsing: serialized ExecutionPlans come back
 * in through JsonValue, a small recursive-descent reader that keeps
 * number tokens verbatim so doubles emitted with %.17g round-trip
 * bit-exactly.
 */

#ifndef DITILE_COMMON_JSON_HH
#define DITILE_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hh"

namespace ditile {

/**
 * Ordered JSON object builder (insertion order preserved).
 */
class JsonObject
{
  public:
    JsonObject &add(const std::string &key, const std::string &value);
    JsonObject &add(const std::string &key, const char *value);
    JsonObject &add(const std::string &key, double value);
    JsonObject &add(const std::string &key, long long value);
    JsonObject &add(const std::string &key, bool value);
    JsonObject &addRaw(const std::string &key, const std::string &json);

    /** Nest every stat of a StatSet under `key`. */
    JsonObject &addStats(const std::string &key, const StatSet &stats);

    /** Render with 2-space indentation. */
    std::string toString(int indent = 0) const;

    /**
     * Render on a single line with no whitespace: the form used for
     * line-oriented record streams (the serve WAL) where one record
     * per line is the framing. Raw nested values are emitted
     * verbatim, so keep them compact too.
     */
    std::string toCompactString() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Escape a string for JSON embedding (quotes included). */
std::string jsonQuote(const std::string &s);

/** Append jsonQuote(s) to `out` without a temporary. */
void appendJsonQuoted(std::string &out, std::string_view s);

/**
 * Canonical JSON number: integral values below 1e15 print as
 * integers, others with %.17g (strtod reads them back bit-exactly).
 * Throws InputError on NaN/Inf, which JSON cannot represent.
 */
std::string jsonNumber(double value);

/**
 * Parsed JSON document node.
 *
 * Numbers keep their source token and convert on demand, so integer
 * and floating-point callers both read exact values. Object member
 * order is preserved. parse() throws std::runtime_error with a byte
 * offset on malformed input.
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /** Parse a complete document (trailing garbage is an error). */
    static JsonValue parse(std::string_view text);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    /** Scalar accessors; wrong-kind access throws. */
    bool asBool() const;
    double asDouble() const;
    long long asInt() const;
    std::uint64_t asUint() const;
    const std::string &asString() const;

    /** Array accessors. */
    const std::vector<JsonValue> &items() const;
    std::size_t size() const { return items().size(); }

    /** Object accessors. */
    const std::vector<std::pair<std::string, JsonValue>> &members() const;

    /** Member lookup; nullptr when absent (object kind required). */
    const JsonValue *find(const std::string &key) const;

    /** Member lookup; throws when the key is absent. */
    const JsonValue &at(const std::string &key) const;

    bool has(const std::string &key) const { return find(key); }

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::string scalar_; ///< Number token or string payload.
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;

    class Parser;
};

} // namespace ditile

#endif // DITILE_COMMON_JSON_HH
