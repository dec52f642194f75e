#include "obs/metrics.hh"

#include <algorithm>
#include <cstdio>

#include "util/json.hh"
#include "util/logging.hh"

namespace dronedse::obs {

namespace {

// Snapshot spellings are pinned by the util/json canonical writer:
// %.17g doubles (round-trip exact) and the shared string escape.
std::string
num(double v)
{
    return jsonNumber(v);
}

std::string
quoted(const std::string &s)
{
    return jsonQuote(s);
}

void
atomicAddDouble(std::atomic<double> &target, double delta)
{
    double expected = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(expected, expected + delta,
                                         std::memory_order_relaxed)) {
    }
}

} // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1)
{
    if (!std::is_sorted(bounds_.begin(), bounds_.end()))
        fatal("Histogram: bucket bounds must be ascending");
}

void
Histogram::record(double sample)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), sample);
    const std::size_t bucket =
        static_cast<std::size_t>(it - bounds_.begin());
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAddDouble(sum_, sample);
}

std::vector<std::uint64_t>
Histogram::counts() const
{
    std::vector<std::uint64_t> out;
    out.reserve(buckets_.size());
    for (const auto &bucket : buckets_)
        out.push_back(bucket.load(std::memory_order_relaxed));
    return out;
}

double
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    util::MutexLock lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    util::MutexLock lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> bounds)
{
    util::MutexLock lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>(std::move(bounds));
    return *slot;
}

std::string
MetricsRegistry::toJson() const
{
    util::MutexLock lock(mutex_);
    std::string out = "{\"counters\": {";
    bool first = true;
    for (const auto &[name, counter] : counters_) {
        if (!first)
            out += ", ";
        first = false;
        out += quoted(name) + ": " + std::to_string(counter->value());
    }
    out += "}, \"gauges\": {";
    first = true;
    for (const auto &[name, gauge] : gauges_) {
        if (!first)
            out += ", ";
        first = false;
        out += quoted(name) + ": " + num(gauge->value());
    }
    out += "}, \"histograms\": {";
    first = true;
    for (const auto &[name, histogram] : histograms_) {
        if (!first)
            out += ", ";
        first = false;
        out += quoted(name) + ": {\"bounds\": [";
        const auto &bounds = histogram->bounds();
        for (std::size_t i = 0; i < bounds.size(); ++i)
            out += (i ? ", " : "") + num(bounds[i]);
        out += "], \"counts\": [";
        const auto counts = histogram->counts();
        for (std::size_t i = 0; i < counts.size(); ++i)
            out += (i ? ", " : "") + std::to_string(counts[i]);
        out += "], \"count\": " + std::to_string(histogram->count());
        out += ", \"sum\": " + num(histogram->sum()) + "}";
    }
    out += "}}";
    return out;
}

void
MetricsRegistry::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("MetricsRegistry::writeJson: cannot open '" + path +
              "'");
    const std::string doc = toJson() + "\n";
    const std::size_t written =
        std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    if (written != doc.size())
        fatal("MetricsRegistry::writeJson: short write to '" + path +
              "'");
}

MetricsRegistry &
metrics()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace dronedse::obs
