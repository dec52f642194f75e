#include "bench.hh"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid,
                     values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1)
        return upper;
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return 0.5 * (lower + upper);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
midMean(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t cut = values.size() / 4;
    return mean(std::vector<double>(values.begin() + cut,
                                    values.end() - cut));
}

dronedse::serve::ServiceOptions
serviceOptions()
{
    dronedse::serve::ServiceOptions options;
    options.engine.threads = kEngineThreads;
    options.admission.interactive = {1e9, 1e9};
    options.admission.batch = {1e9, 1e9};
    options.admission.queueCapacity = 8192;
    return options;
}

double
serviceTime()
{
    static const Clock::time_point epoch = Clock::now();
    return secondsSince(epoch);
}

ClientPool::ClientPool(dronedse::serve::Service &service, int clients)
    : service_(service),
      mailbox_(static_cast<std::size_t>(clients))
{
}

std::string
ClientPool::roundTrip(int client, const std::string &frame)
{
    const auto self = static_cast<std::uint64_t>(client);
    dronedse::serve::IngestOutcome outcome =
        service_.ingest(frame, self, serviceTime());
    if (!outcome.queued)
        return outcome.reply;
    Mailbox &mine = mailbox_[self];
    for (;;) {
        if (mine.full.load(std::memory_order_acquire))
            break;
        auto done = service_.processOne(serviceTime());
        if (!done) {
            // The queue is empty, so another client dequeued this
            // frame and is executing it.
            while (!mine.full.load(std::memory_order_acquire))
                std::this_thread::yield();
            break;
        }
        if (done->first == self)
            return std::move(done->second);
        Mailbox &theirs = mailbox_[done->first];
        theirs.reply = std::move(done->second);
        theirs.full.store(true, std::memory_order_release);
    }
    std::string reply = std::move(mine.reply);
    mine.full.store(false, std::memory_order_relaxed);
    return reply;
}

SpanLog::SpanLog() : epoch_(Clock::now()) {}

SpanLog::Scope::Scope(SpanLog &log, std::uint64_t request,
                      const char *name)
    : log_(log), index_(static_cast<int>(log.spans_.size()))
{
    Span span;
    span.request = request;
    span.parent = log.open_.empty() ? -1 : log.open_.back();
    span.name = name;
    log.spans_.push_back(span);
    log.open_.push_back(index_);
    // Read the clock last so the bookkeeping above is outside.
    log.spans_[static_cast<std::size_t>(index_)].startUs =
        std::chrono::duration<double, std::micro>(Clock::now() -
                                                  log.epoch_)
            .count();
}

SpanLog::Scope::~Scope()
{
    log_.spans_[static_cast<std::size_t>(index_)].endUs =
        std::chrono::duration<double, std::micro>(Clock::now() -
                                                  log_.epoch_)
            .count();
    log_.open_.pop_back();
}

std::map<std::string, double>
SpanLog::selfTimeUs(std::size_t from) const
{
    std::vector<double> self(spans_.size() - from);
    for (std::size_t i = from; i < spans_.size(); ++i)
        self[i - from] += spans_[i].endUs - spans_[i].startUs;
    for (std::size_t i = from; i < spans_.size(); ++i) {
        const int parent = spans_[i].parent;
        if (parent >= static_cast<int>(from))
            self[static_cast<std::size_t>(parent) - from] -=
                spans_[i].endUs - spans_[i].startUs;
    }
    std::map<std::string, double> out;
    for (std::size_t i = from; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i - from];
    return out;
}

std::string
SpanLog::chromeJson() const
{
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", "
                      "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                      "\"pid\": 1, \"tid\": 1, \"args\": {\"request\": "
                      "%llu}}",
                      i == 0 ? "" : ",", s.name, s.startUs,
                      s.endUs - s.startUs,
                      static_cast<unsigned long long>(s.request));
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

void
Tally::record(bool good, const std::string &what)
{
    ++attempted;
    if (good)
        ++ok;
    else if (failures.size() < 16)
        failures.push_back(what);
}

std::uint64_t
mixSeed(std::uint64_t seed, const char *salt)
{
    std::uint64_t h = 1469598103934665603ULL ^ seed;
    for (const char *p = salt; *p; ++p) {
        h ^= static_cast<unsigned char>(*p);
        h *= 1099511628211ULL;
    }
    return h;
}

void
corrupt(std::string &reply)
{
    if (reply.size() >= 2)
        reply[reply.size() - 2] ^= 0x01;
}

} // namespace perfbench
