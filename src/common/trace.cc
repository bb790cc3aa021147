/**
 * @file
 * Tracer implementation: deterministic Chrome trace_event export,
 * rollups, and the integer metrics registry.
 */

#include "common/trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <tuple>

#include "common/json.hh"
#include "common/logging.hh"

namespace ditile {

namespace {

thread_local std::uint64_t t_track_base = 0;

/** Sort key pinning the exported event order regardless of how the
 *  recording interleaved across tracks: longer spans first at equal
 *  timestamps so parents precede their children. */
bool
eventBefore(const TraceEvent &a, const TraceEvent &b)
{
    return std::make_tuple(a.track, a.ts, ~a.dur, a.ord, a.name, a.cat,
                           a.phase) <
        std::make_tuple(b.track, b.ts, ~b.dur, b.ord, b.name, b.cat,
                        b.phase);
}

void
appendEventJson(std::string &out, const TraceEvent &e)
{
    out += "{\"ph\":\"";
    out += e.phase;
    out += "\",\"cat\":";
    out += jsonQuote(e.cat);
    out += ",\"name\":";
    out += jsonQuote(e.name);
    out += ",\"pid\":0,\"tid\":";
    out += std::to_string(e.track);
    out += ",\"ts\":";
    out += std::to_string(e.ts);
    if (e.phase == 'X') {
        out += ",\"dur\":";
        out += std::to_string(e.dur);
    }
    if (e.phase == 'i')
        out += ",\"s\":\"t\"";
    if (!e.args.empty() || e.phase == 'C') {
        out += ",\"args\":{";
        bool first = true;
        for (const auto &[key, value] : e.args) {
            if (!first)
                out += ",";
            first = false;
            out += jsonQuote(key);
            out += ":";
            out += value;
        }
        out += "}";
    }
    out += "}";
}

} // namespace

TraceEvent &
TraceEvent::addArg(const std::string &key, long long value)
{
    args.emplace_back(key, std::to_string(value));
    return *this;
}

TraceEvent &
TraceEvent::addArg(const std::string &key, const std::string &value)
{
    args.emplace_back(key, jsonQuote(value));
    return *this;
}

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::enable(bool trace_events, bool metrics)
{
    state_.store((trace_events ? kTraceBit : 0u) |
                     (metrics ? kMetricsBit : 0u),
                 std::memory_order_relaxed);
}

void
Tracer::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    state_.store(0, std::memory_order_relaxed);
    events_.clear();
    trackNames_.clear();
    stepCursor_.clear();
    metrics_.clear();
}

void
Tracer::record(TraceEvent event)
{
    if (!traceEnabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

void
Tracer::instant(const std::string &cat, const std::string &name,
                std::uint64_t track, TraceEvent event)
{
    event.phase = 'i';
    stepSpan(cat, name, track, std::move(event));
}

void
Tracer::stepSpan(const std::string &cat, const std::string &name,
                 std::uint64_t track, TraceEvent event)
{
    if (!traceEnabled())
        return;
    event.cat = cat;
    event.name = name;
    event.track = track;
    event.ts = nextStep(track);
    event.dur = event.phase == 'i' ? 0 : 1;
    event.ord = event.ts;
    record(std::move(event));
}

void
Tracer::cacheInstant(const char *name, std::uint64_t key)
{
    if (!traceEnabled())
        return;
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(key));
    TraceEvent event;
    event.addArg("key", std::string(hex));
    instant("cache", name, trackBase() + kCacheTrack, std::move(event));
}

std::uint64_t
Tracer::nextStep(std::uint64_t track)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stepCursor_[track]++;
}

void
Tracer::nameTrack(std::uint64_t track, const std::string &name)
{
    if (!traceEnabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    trackNames_[track] = name;
}

void
Tracer::addMetric(const std::string &path, long long delta)
{
    if (!metricsEnabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_[path] += delta;
}

std::vector<std::pair<std::string, long long>>
Tracer::metrics() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {metrics_.begin(), metrics_.end()};
}

void
Tracer::setTrackBase(std::uint64_t base)
{
    t_track_base = base;
}

std::uint64_t
Tracer::trackBase()
{
    return t_track_base;
}

std::string
Tracer::toChromeJson() const
{
    std::vector<TraceEvent> events;
    std::map<std::uint64_t, std::string> names;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        events = events_;
        names = trackNames_;
    }
    std::stable_sort(events.begin(), events.end(), eventBefore);

    std::string out = "{\n\"otherData\": {\"clock\": \"virtual-cycles\","
                      " \"generator\": \"ditile-dgnn\"},\n"
                      "\"displayTimeUnit\": \"ns\",\n"
                      "\"traceEvents\": [\n";
    bool first = true;
    // Thread-name metadata first, in ascending track order.
    for (const auto &[track, name] : names) {
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,"
               "\"tid\":";
        out += std::to_string(track);
        out += ",\"args\":{\"name\":";
        out += jsonQuote(name);
        out += "}}";
    }
    for (const auto &e : events) {
        if (!first)
            out += ",\n";
        first = false;
        appendEventJson(out, e);
    }
    out += "\n]\n}\n";
    return out;
}

void
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        DITILE_THROW("cannot write trace file '", path, "'");
    out << toChromeJson();
}

std::vector<TraceRollupRow>
Tracer::rollup() const
{
    std::vector<TraceEvent> events;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        events = events_;
    }
    return rollupEvents(events);
}

std::vector<TraceEvent>
Tracer::parseChromeJson(const std::string &json)
{
    const JsonValue doc = JsonValue::parse(json);
    std::vector<TraceEvent> events;
    for (const JsonValue &item : doc.at("traceEvents").items()) {
        const std::string ph = item.at("ph").asString();
        if (ph == "M" || ph.empty())
            continue;
        TraceEvent e;
        e.phase = ph[0];
        if (const JsonValue *cat = item.find("cat"))
            e.cat = cat->asString();
        e.name = item.at("name").asString();
        e.track = item.at("tid").asUint();
        e.ts = item.at("ts").asUint();
        if (const JsonValue *dur = item.find("dur"))
            e.dur = dur->asUint();
        events.push_back(std::move(e));
    }
    return events;
}

std::vector<TraceRollupRow>
Tracer::rollupEvents(const std::vector<TraceEvent> &events)
{
    std::map<std::pair<std::string, std::string>, TraceRollupRow> rows;
    for (const TraceEvent &e : events) {
        auto &row = rows[{e.cat, e.name}];
        if (row.count == 0) {
            row.cat = e.cat;
            row.name = e.name;
            row.firstTs = e.ts;
            row.lastEnd = e.ts + e.dur;
        }
        ++row.count;
        if (e.phase == 'X')
            row.totalDur += e.dur;
        row.firstTs = std::min(row.firstTs, e.ts);
        row.lastEnd = std::max(row.lastEnd, e.ts + e.dur);
    }
    std::vector<TraceRollupRow> out;
    out.reserve(rows.size());
    for (auto &[key, row] : rows)
        out.push_back(std::move(row));
    return out;
}

} // namespace ditile
