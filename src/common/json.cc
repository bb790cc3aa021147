/**
 * @file
 * JSON emission and parsing implementation.
 */

#include "common/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/logging.hh"

namespace ditile {

void
appendJsonQuoted(std::string &out, std::string_view s)
{
    out += '"';
    std::size_t run = 0; // Start of the pending run of plain bytes.
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: {
            constexpr char kHex[] = "0123456789abcdef";
            const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                   kHex[c & 0xf]};
            out.append(escape, sizeof(escape));
          }
        }
    }
    out.append(s.data() + run, s.size() - run);
    out += '"';
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    appendJsonQuoted(out, s);
    return out;
}

std::string
jsonNumber(double value)
{
    // JSON has no NaN/Inf tokens; emitting "null" here used to
    // silently corrupt downstream consumers expecting a number.
    // Producers must guard their divisions (and all in-tree ones do);
    // a non-finite value reaching the writer is malformed input.
    if (!std::isfinite(value))
        DITILE_THROW("cannot serialize non-finite value as JSON");
    char buf[64];
    // Round-trippable doubles without trailing noise for integers.
    if (value == static_cast<double>(static_cast<long long>(value)) &&
        std::fabs(value) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(value));
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", value);
    }
    return buf;
}

JsonObject &
JsonObject::add(const std::string &key, const std::string &value)
{
    fields_.emplace_back(key, jsonQuote(value));
    return *this;
}

JsonObject &
JsonObject::add(const std::string &key, const char *value)
{
    return add(key, std::string(value));
}

JsonObject &
JsonObject::add(const std::string &key, double value)
{
    fields_.emplace_back(key, jsonNumber(value));
    return *this;
}

JsonObject &
JsonObject::add(const std::string &key, long long value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", value);
    fields_.emplace_back(key, buf);
    return *this;
}

JsonObject &
JsonObject::add(const std::string &key, bool value)
{
    fields_.emplace_back(key, value ? "true" : "false");
    return *this;
}

JsonObject &
JsonObject::addRaw(const std::string &key, const std::string &json)
{
    fields_.emplace_back(key, json);
    return *this;
}

JsonObject &
JsonObject::addStats(const std::string &key, const StatSet &stats)
{
    JsonObject nested;
    for (const auto &name : stats.names())
        nested.add(name, stats.get(name));
    return addRaw(key, nested.toString());
}

std::string
JsonObject::toString(int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
    const std::string close_pad(static_cast<std::size_t>(indent), ' ');
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        out << (i ? ",\n" : "\n") << pad
            << jsonQuote(fields_[i].first) << ": ";
        // Re-indent nested objects line by line.
        const std::string &value = fields_[i].second;
        for (char c : value) {
            out << c;
            if (c == '\n')
                out << std::string(2, ' ');
        }
    }
    out << "\n" << close_pad << "}";
    return out.str();
}

std::string
JsonObject::toCompactString() const
{
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        out << (i ? "," : "") << jsonQuote(fields_[i].first) << ":"
            << fields_[i].second;
    }
    out << "}";
    return out.str();
}

// ---------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------

/** Recursive-descent reader over the document text. */
class JsonValue::Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue
    document()
    {
        JsonValue v = value();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        DITILE_THROW("JSON parse error at byte ", pos_, ": ", what);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *word)
    {
        std::size_t n = 0;
        while (word[n]) {
            if (pos_ + n >= text_.size() || text_[pos_ + n] != word[n])
                return false;
            ++n;
        }
        pos_ += n;
        return true;
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            // Copy the run up to the next quote or escape in one step.
            std::size_t stop = pos_;
            while (stop < text_.size() && text_[stop] != '"' &&
                   text_[stop] != '\\')
                ++stop;
            out.append(text_.data() + pos_, stop - pos_);
            pos_ = stop;
            if (pos_ >= text_.size())
                fail("unterminated string");
            if (text_[pos_++] == '"')
                return out;
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                // The emitter only writes \u00xx control codes; decode
                // the BMP generally as UTF-8 anyway.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default: fail("unknown escape");
            }
        }
    }

    JsonValue
    value()
    {
        const char c = peek();
        JsonValue v;
        if (c == '{') {
            v.kind_ = Kind::Object;
            ++pos_;
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            // One allocation for a small record (a WAL line has four
            // members) instead of three growth steps.
            v.members_.reserve(4);
            while (true) {
                std::string key = string();
                expect(':');
                v.members_.emplace_back(std::move(key), value());
                const char n = peek();
                ++pos_;
                if (n == '}')
                    return v;
                if (n != ',')
                    fail("expected ',' or '}' in object");
            }
        }
        if (c == '[') {
            v.kind_ = Kind::Array;
            ++pos_;
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            while (true) {
                v.items_.push_back(value());
                const char n = peek();
                ++pos_;
                if (n == ']')
                    return v;
                if (n != ',')
                    fail("expected ',' or ']' in array");
            }
        }
        if (c == '"') {
            v.kind_ = Kind::String;
            v.scalar_ = string();
            return v;
        }
        if (c == 't') {
            if (!consumeLiteral("true"))
                fail("bad literal");
            v.kind_ = Kind::Bool;
            v.bool_ = true;
            return v;
        }
        if (c == 'f') {
            if (!consumeLiteral("false"))
                fail("bad literal");
            v.kind_ = Kind::Bool;
            v.bool_ = false;
            return v;
        }
        if (c == 'n') {
            if (!consumeLiteral("null"))
                fail("bad literal");
            v.kind_ = Kind::Null;
            return v;
        }
        if (c == '-' || (c >= '0' && c <= '9')) {
            const std::size_t start = pos_;
            if (text_[pos_] == '-')
                ++pos_;
            auto digits = [&] {
                const std::size_t before = pos_;
                while (pos_ < text_.size() && text_[pos_] >= '0' &&
                       text_[pos_] <= '9') {
                    ++pos_;
                }
                return pos_ > before;
            };
            if (!digits())
                fail("bad number");
            if (pos_ < text_.size() && text_[pos_] == '.') {
                ++pos_;
                if (!digits())
                    fail("bad fraction");
            }
            if (pos_ < text_.size() &&
                (text_[pos_] == 'e' || text_[pos_] == 'E')) {
                ++pos_;
                if (pos_ < text_.size() &&
                    (text_[pos_] == '+' || text_[pos_] == '-')) {
                    ++pos_;
                }
                if (!digits())
                    fail("bad exponent");
            }
            v.kind_ = Kind::Number;
            v.scalar_.assign(text_.data() + start, pos_ - start);
            return v;
        }
        fail("unexpected character");
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

JsonValue
JsonValue::parse(std::string_view text)
{
    return Parser(text).document();
}

namespace {

[[noreturn]] void
kindError(const char *want)
{
    DITILE_THROW("JSON value is not ", want);
}

} // namespace

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        kindError("a bool");
    return bool_;
}

double
JsonValue::asDouble() const
{
    if (kind_ != Kind::Number)
        kindError("a number");
    return std::strtod(scalar_.c_str(), nullptr);
}

long long
JsonValue::asInt() const
{
    if (kind_ != Kind::Number)
        kindError("a number");
    // Integral tokens convert exactly; scientific/fractional tokens
    // fall back to the double path.
    if (scalar_.find_first_of(".eE") == std::string::npos)
        return std::strtoll(scalar_.c_str(), nullptr, 10);
    return static_cast<long long>(asDouble());
}

std::uint64_t
JsonValue::asUint() const
{
    if (kind_ != Kind::Number)
        kindError("a number");
    if (scalar_.find_first_of(".eE") == std::string::npos &&
        !scalar_.empty() && scalar_[0] != '-') {
        return std::strtoull(scalar_.c_str(), nullptr, 10);
    }
    return static_cast<std::uint64_t>(asDouble());
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        kindError("a string");
    return scalar_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (kind_ != Kind::Array)
        kindError("an array");
    return items_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (kind_ != Kind::Object)
        kindError("an object");
    return members_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[k, v] : members())
        if (k == key)
            return &v;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (const JsonValue *v = find(key))
        return *v;
    DITILE_THROW("JSON object missing key '", key, "'");
}

} // namespace ditile
