#include "obs/tracer.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "util/csv.hh"
#include "util/logging.hh"

namespace dronedse::obs {

namespace {

/** Tracer ids; 0 never names a tracer. */
std::atomic<std::uint64_t> nextTracerId{1};

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    return std::string(buf);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

void
writeFile(const std::string &path, const std::string &doc,
          const char *who)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal(std::string(who) + ": cannot open '" + path + "'");
    const std::size_t written =
        std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    if (written != doc.size())
        fatal(std::string(who) + ": short write to '" + path + "'");
}

} // namespace

Tracer::Tracer()
    : id_(nextTracerId.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now())
{
}

void
Tracer::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

Tracer::ThreadBuffer &
Tracer::localBuffer()
{
    // One registration per (tracer, thread); the shared_ptr keeps
    // the buffer readable after the thread exits (pool teardown).
    // The cache is keyed on the tracer's id, not its address: a
    // tracer built where a dead one lived must not inherit its buffer.
    thread_local std::shared_ptr<ThreadBuffer> buffer;
    thread_local std::uint64_t owner = 0;
    if (!buffer || owner != id_) {
        buffer = std::make_shared<ThreadBuffer>();
        owner = id_;
        util::MutexLock lock(buffersMutex_);
        buffer->thread = static_cast<std::uint32_t>(buffers_.size());
        buffers_.push_back(buffer);
    }
    return *buffer;
}

void
Tracer::append(SpanRecord record)
{
    ThreadBuffer &buffer = localBuffer();
    record.thread = buffer.thread;
    util::MutexLock lock(buffer.mutex);
    buffer.spans.push_back(std::move(record));
}

void
Tracer::recordSpan(const char *name, const char *category,
                   std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end)
{
    if (!enabled())
        return;
    SpanRecord record;
    record.name = name;
    record.category = category;
    record.track = kWallTrack;
    record.phase = 'X';
    record.startUs =
        std::chrono::duration<double, std::micro>(start - epoch_)
            .count();
    record.durUs =
        std::chrono::duration<double, std::micro>(end - start)
            .count();
    append(std::move(record));
}

void
Tracer::recordInstant(const char *name, const char *category)
{
    if (!enabled())
        return;
    SpanRecord record;
    record.name = name;
    record.category = category;
    record.track = kWallTrack;
    record.phase = 'i';
    record.startUs = nowUs();
    append(std::move(record));
}

void
Tracer::recordManual(const char *name, const char *category,
                     std::uint32_t track, double start_us,
                     double dur_us)
{
    if (!enabled())
        return;
    SpanRecord record;
    record.name = name;
    record.category = category;
    record.track = track;
    record.phase = 'X';
    record.startUs = start_us;
    record.durUs = dur_us;
    append(std::move(record));
}

std::vector<SpanRecord>
Tracer::snapshot() const
{
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        util::MutexLock lock(buffersMutex_);
        buffers = buffers_;
    }
    std::vector<SpanRecord> out;
    for (const auto &buffer : buffers) {
        util::MutexLock lock(buffer->mutex);
        out.insert(out.end(), buffer->spans.begin(),
                   buffer->spans.end());
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const SpanRecord &a, const SpanRecord &b) {
                         if (a.startUs != b.startUs)
                             return a.startUs < b.startUs;
                         return a.thread < b.thread;
                     });
    return out;
}

void
Tracer::clear()
{
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        util::MutexLock lock(buffersMutex_);
        buffers = buffers_;
    }
    for (const auto &buffer : buffers) {
        util::MutexLock lock(buffer->mutex);
        buffer->spans.clear();
    }
}

std::string
Tracer::toChromeJson() const
{
    const std::vector<SpanRecord> spans = snapshot();
    std::string out = "{\"traceEvents\": [";
    bool first = true;
    for (const SpanRecord &span : spans) {
        if (!first)
            out += ", ";
        first = false;
        out += "{\"name\": " + quoted(span.name);
        out += ", \"cat\": " + quoted(span.category);
        out += ", \"ph\": \"";
        out += span.phase;
        out += "\", \"ts\": " + num(span.startUs);
        if (span.phase == 'X')
            out += ", \"dur\": " + num(span.durUs);
        else
            out += ", \"s\": \"t\"";
        out += ", \"pid\": " + std::to_string(span.track);
        out += ", \"tid\": " + std::to_string(span.thread);
        out += "}";
    }
    out += "], \"displayTimeUnit\": \"ms\"}";
    return out;
}

std::string
Tracer::toCsv() const
{
    CsvWriter csv({"name", "category", "track", "thread", "phase",
                   "start_us", "dur_us"});
    for (const SpanRecord &span : snapshot()) {
        csv.addRow({span.name, span.category,
                    std::to_string(span.track),
                    std::to_string(span.thread),
                    std::string(1, span.phase), num(span.startUs),
                    num(span.durUs)});
    }
    return csv.str();
}

void
Tracer::writeChromeJson(const std::string &path) const
{
    writeFile(path, toChromeJson() + "\n",
              "Tracer::writeChromeJson");
}

void
Tracer::writeCsv(const std::string &path) const
{
    writeFile(path, toCsv(), "Tracer::writeCsv");
}

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

} // namespace dronedse::obs
