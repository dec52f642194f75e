/**
 * @file
 * perfbench: the repository benchmark.
 *
 * Runs one workload in this process against in-process
 * `serve::Service` instances (no sockets) and the public fleet API,
 * checks every reply against an oracle computed outside the timed
 * window, and prints the end-to-end metrics (`--trace 0`) or the
 * per-layer metrics of a separate traced replay (`--trace 1`).  The
 * last line of standard output is the JSON result.
 *
 * Usage: perfbench --workload interactive|grid --seed N
 *                  --seconds S --trace 0|1 [--out-dir DIR]
 *                  [--git-sha SHA] [--corrupt-oracle]
 *
 * perfbench/README.md documents the workloads and the metrics.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "codesign/roofline.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

struct Metric
{
    const char *name;
    const char *unit;
    /** Phase whose blocks produce it ("" for run-level metrics). */
    const char *phase;
};

// The end-to-end metrics, in BENCHMARK.json order.
const Metric kEndToEnd[] = {
    {"setup_s", "s", ""},
    {"peak_rss_mb", "MB", ""},
    {"ok_frac", "ratio", ""},
    {"design_p50_us", "us", "design"},
    {"design_qps", "1/s", "design"},
    {"pareto_p50_ms", "ms", "grid"},
    {"sweep_p50_ms", "ms", "grid"},
    {"grid_points_per_s", "1/s", "grid"},
    {"risk_p50_ms", "ms", "studies"},
    {"codesign_p50_ms", "ms", "studies"},
    {"fleet_missions_per_s", "1/s", "studies"},
};

// The per-layer metrics, in BENCHMARK.json order.  A metric that
// more than one phase records comes from the workload's main phase
// when it has one, else from the phase named here.
const Metric kPerLayer[] = {
    {"serve.parse_us", "us", "design"},
    {"serve.validate_us", "us", "design"},
    {"serve.serialize_us", "us", "design"},
    {"serve.unattributed_us", "us", "design"},
    {"serve.handle_mean_us", "us", "design"},
    {"engine.solve_us", "us", "design"},
    {"engine.solve_hit_us", "us", "design"},
    {"engine.solve_miss_us", "us", "design"},
    {"engine.cache_hit_ratio", "ratio", "design"},
    {"serve.serialize_ns_per_point", "ns", "grid"},
    {"serve.reply_bytes_per_point", "B", "grid"},
    {"dse.expand_ns_per_point", "ns", "grid"},
    {"dse.kernel_ns_per_point", "ns", "grid"},
    {"engine.run_ns_per_point", "ns", "grid"},
    {"engine.frontier_ns_per_point", "ns", "grid"},
    {"engine.run_unexplained_ns_per_point", "ns", "grid"},
    {"engine.run_overlap", "ratio", "grid"},
    {"explore.query_s", "s", "studies"},
    {"explore.driver_s", "s", "studies"},
    {"explore.evaluations", "count", "studies"},
    {"explore.exhaustive_s", "s", "studies"},
    {"explore.frontier_recall", "ratio", "studies"},
    {"explore.scatter_ms", "ms", "studies"},
    {"explore.risk_ms", "ms", "studies"},
    {"codesign.calibrate_s", "s", ""},
    {"codesign.search_ms", "ms", "studies"},
    {"fleet.missions_per_s_1t", "1/s", "studies"},
    {"fleet.missions_per_s_2t", "1/s", "studies"},
    {"obs.trace_overhead_pct", "%", "design"},
};

struct Workload
{
    const char *name;
    /** The phase that gets most of the run. */
    const char *main;
};

const Workload kWorkloads[] = {
    {"interactive", "design"},
    {"grid", "grid"},
};

/** Share of the timed window the main phase gets; the other two
 *  split the rest. */
constexpr double kMainShare = 0.5;
/** Every phase runs at least this many timed blocks (one whole
 *  cycle of the studies phase's six steps). */
constexpr int kMinBlocks = 6;
// A run reports the interquartile mean of a timed metric's block
// values.  Not their median: the host alternates between a fast mode
// and one ~1.5x slower, so a phase's block values are bimodal and
// their median jumps between the modes, where a mean moves with the
// modes' shares.  Not their plain mean either: one block caught by a
// host stall (a 7.5k-point sweep at 167 ms among blocks of 89-113 ms)
// moved the mean of five blocks by 10%.  (Across runs, the median is
// taken.)
/** Service constructions behind setup_s; all but the first also
 *  time a fresh roofline calibration (codesign.calibrate_s). */
constexpr int kSetupRepeats = 5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string outDir = ".";
    std::string gitSha = "unknown";
    bool corruptOracle = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "interactive|grid --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--git-sha SHA] "
                 "[--corrupt-oracle]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--corrupt-oracle") {
            opts.corruptOracle = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload")
            opts.workload = value;
        else if (arg == "--seed")
            opts.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::atof(value.c_str());
        else if (arg == "--trace")
            opts.trace = std::atoi(value.c_str());
        else if (arg == "--out-dir")
            opts.outDir = value;
        else if (arg == "--git-sha")
            opts.gitSha = value;
        else
            usage("unknown argument " + arg);
    }
    if (!(opts.seconds > 0.0))
        usage("--seconds must be positive");
    if (opts.trace != 0 && opts.trace != 1)
        usage("--trace must be 0 or 1");
    return opts;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
environmentJson(const Options &opts, const Workload &workload)
{
    const dronedse::serve::ServiceOptions service = serviceOptions();
    std::string out = "{";
    out += "\"nproc\": " +
           std::to_string(std::thread::hardware_concurrency());
    out += ", \"compiler\": " + quote(PERFBENCH_COMPILER);
    out += ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE);
    out += ", \"git_sha\": " + quote(opts.gitSha);
    out += ", \"workload\": " + quote(workload.name);
    out += ", \"main_phase\": " + quote(workload.main);
    out += ", \"main_share\": " + num(kMainShare);
    out += ", \"seed\": " + std::to_string(opts.seed);
    out += ", \"seconds\": " + num(opts.seconds);
    out += ", \"trace\": " + std::to_string(opts.trace);
    out += ", \"client_threads\": " + std::to_string(kClients);
    out += ", \"engine_threads\": " +
           std::to_string(service.engine.threads);
    out += ", \"admission\": {\"interactive_rate\": " +
           num(service.admission.interactive.ratePerSecond) +
           ", \"interactive_burst\": " +
           num(service.admission.interactive.burst) +
           ", \"batch_rate\": " +
           num(service.admission.batch.ratePerSecond) +
           ", \"batch_burst\": " + num(service.admission.batch.burst) +
           ", \"queue_capacity\": " +
           std::to_string(service.admission.queueCapacity) + "}";
    return out + "}";
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point start = Clock::now();
    const Options opts = parseArgs(argc, argv);
    const Workload *workload = nullptr;
    for (const Workload &w : kWorkloads) {
        if (opts.workload == w.name)
            workload = &w;
    }
    if (!workload)
        usage("unknown workload '" + opts.workload + "'");

    // Set-up first, before any workload thread or oracle: the first
    // Service construction pays the static roofline calibration;
    // each repeat pays a fresh calibration plus a Service.
    std::vector<double> setup_s;
    {
        dronedse::serve::Service service(serviceOptions());
        setup_s.push_back(secondsSince(start));
    }
    std::vector<double> calibrate_s;
    for (int i = 1; i < kSetupRepeats; ++i) {
        const Clock::time_point t0 = Clock::now();
        { const dronedse::codesign::RooflineModel model; }
        calibrate_s.push_back(secondsSince(t0));
        dronedse::serve::Service service(serviceOptions());
        setup_s.push_back(secondsSince(t0));
    }

    std::vector<std::unique_ptr<Phase>> phases;
    const std::pair<const char *, decltype(&makeDesignPhase)> kinds[] = {
        {"design", makeDesignPhase},
        {"grid", makeGridPhase},
        {"studies", makeStudiesPhase}};
    for (const auto &[name, make] : kinds) {
        PhaseConfig config;
        config.seed = opts.seed;
        config.main = std::strcmp(name, workload->main) == 0;
        config.corruptOracle = opts.corruptOracle;
        phases.push_back(make(config));
    }
    const std::string env = environmentJson(opts, *workload);
    std::printf("perfbench env %s\n", env.c_str());

    SpanLog log;
    if (opts.trace == 0) {
        std::vector<double> spent(phases.size(), 0.0);
        std::vector<int> blocks(phases.size(), 0);
        std::vector<double> share(phases.size());
        for (std::size_t i = 0; i < phases.size(); ++i)
            share[i] = std::strcmp(phases[i]->name(), workload->main) == 0
                           ? kMainShare
                           : (1.0 - kMainShare) / 2.0;
        double elapsed = 0.0;
        for (;;) {
            // The phase furthest behind its share goes next; past
            // the window, only phases short of kMinBlocks run.
            std::size_t pick = phases.size();
            for (std::size_t i = 0; i < phases.size(); ++i) {
                if (elapsed >= opts.seconds && blocks[i] >= kMinBlocks)
                    continue;
                if (pick == phases.size() ||
                    spent[i] / share[i] < spent[pick] / share[pick])
                    pick = i;
            }
            if (pick == phases.size())
                break;
            const double t = phases[pick]->runBlock();
            spent[pick] += t;
            elapsed += t;
            ++blocks[pick];
        }
        for (std::size_t i = 0; i < phases.size(); ++i)
            std::printf("phase %-8s %4d blocks, %7.2f s timed\n",
                        phases[i]->name(), blocks[i], spent[i]);
    } else {
        for (const std::unique_ptr<Phase> &phase : phases) {
            const bool main =
                std::strcmp(phase->name(), workload->main) == 0;
            const int n = std::strcmp(phase->name(), "design") == 0
                              ? (main ? 8 : 2)
                              : (main ? 2 : 1);
            for (int b = 0; b < n; ++b)
                phase->runTracedBlock(log);
        }
    }

    // Roll up: correctness over every phase, then the metrics.
    std::uint64_t attempted = 0, ok = 0;
    std::vector<std::string> failures;
    for (const std::unique_ptr<Phase> &phase : phases) {
        attempted += phase->tally().attempted;
        ok += phase->tally().ok;
        for (const std::string &f : phase->tally().failures)
            failures.push_back(std::string(phase->name()) + ": " + f);
    }

    const auto find = [&](const char *name) -> const Phase * {
        for (const std::unique_ptr<Phase> &p : phases) {
            if (std::strcmp(p->name(), name) == 0)
                return p.get();
        }
        return nullptr;
    };
    std::string metrics, table, blocks;
    const auto emit = [&](const Metric &m, double value,
                          const char *source, std::size_t n,
                          const std::vector<double> *samples) {
        if (!std::isfinite(value)) {
            failures.push_back(std::string("non-finite metric ") +
                               m.name);
            value = 0.0;
        }
        if (!metrics.empty())
            metrics += ", ";
        metrics += quote(m.name) + ": {\"value\": " + num(value) +
                   ", \"unit\": " + quote(m.unit) + "}";
        if (!blocks.empty())
            blocks += ", ";
        blocks += quote(m.name) + ": [";
        if (samples) {
            for (std::size_t i = 0; i < samples->size(); ++i)
                blocks += (i ? ", " : "") + num((*samples)[i]);
        }
        blocks += "]";
        char line[192];
        std::snprintf(line, sizeof line, "  %-38s %14.6g %-6s %-8s %zu\n",
                      m.name, value, m.unit, source, n);
        table += line;
    };
    if (opts.trace == 0) {
        for (const Metric &m : kEndToEnd) {
            if (std::strcmp(m.name, "setup_s") == 0) {
                emit(m, median(setup_s), "run", setup_s.size(), &setup_s);
            } else if (std::strcmp(m.name, "peak_rss_mb") == 0) {
                emit(m, peakRssMb(), "run", 1, nullptr);
            } else if (std::strcmp(m.name, "ok_frac") == 0) {
                emit(m,
                     attempted == 0 ? 0.0
                                    : static_cast<double>(ok) /
                                          static_cast<double>(attempted),
                     "run", attempted, nullptr);
            } else {
                const std::vector<double> &v =
                    find(m.phase)->samples().at(m.name);
                emit(m, midMean(v), m.phase, v.size(), &v);
            }
        }
    } else {
        const Phase *main_phase = find(workload->main);
        for (const Metric &m : kPerLayer) {
            if (std::strcmp(m.name, "codesign.calibrate_s") == 0) {
                emit(m, median(calibrate_s), "run", calibrate_s.size(),
                     &calibrate_s);
                continue;
            }
            const Phase *source = find(m.phase);
            if (main_phase->layerSamples().count(m.name))
                source = main_phase;
            const std::vector<double> &v =
                source->layerSamples().at(m.name);
            emit(m, median(v), source->name(), v.size(), &v);
        }
    }

    const bool correct = failures.empty() && attempted > 0 &&
                         ok == attempted;
    std::printf("\n%s, seed %llu, trace %d: %llu attempted, %llu "
                "failed\n  %-38s %14s %-6s %-8s %s\n%s",
                workload->name,
                static_cast<unsigned long long>(opts.seed), opts.trace,
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(attempted - ok),
                "metric", "value", "unit", "source", "samples",
                table.c_str());
    for (const std::string &f : failures)
        std::printf("FAILED: %s\n", f.c_str());

    const std::string stem = opts.outDir + "/" + workload->name +
                             "-seed" + std::to_string(opts.seed) +
                             "-trace" + std::to_string(opts.trace);
    const std::string result =
        "{\"correct\": " + std::string(correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(attempted - ok) +
        ", \"metrics\": {" + metrics + "}}";
    writeFile(stem + ".json", "{\"environment\": " + env +
                                  ", \"result\": " + result +
                                  ", \"blocks\": {" + blocks + "}}\n");
    writeFile(stem + ".txt", table);
    if (opts.trace == 1)
        writeFile(stem + ".trace.json", log.chromeJson());
    std::printf("%s\n", result.c_str());
    return 0;
}
