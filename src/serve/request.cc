#include "serve/request.hh"

#include <charconv>
#include <cmath>
#include <concepts>
#include <optional>
#include <ranges>
#include <span>
#include <type_traits>

#include "util/json.hh"

namespace dronedse::serve {

namespace {

/** Largest integer the double-typed JSON number carries exactly. */
constexpr double kMaxExactInt = 9007199254740992.0; // 2^53

template <class T>
constexpr bool kIsQuantity = false;
template <class U>
constexpr bool kIsQuantity<Quantity<U>> = true;
template <class T>
constexpr bool kIsVector = false;
template <class T>
constexpr bool kIsVector<std::vector<T>> = true;
template <class T>
constexpr bool kIsArray = false;
template <class T, std::size_t N>
constexpr bool kIsArray<std::array<T, N>> = true;
template <class T>
constexpr bool kIsOptional = false;
template <class T>
constexpr bool kIsOptional<std::optional<T>> = true;

/** `T` or `const T`: one field list serves the reader and the writer. */
template <class S, class T>
concept Wire = std::same_as<std::remove_const_t<S>, T>;

// --- field lists -------------------------------------------------
//
// One per wire struct, keys in canonical (serialization) order.
// `v(key, member)` is an optional member; `v.required(key, member)`
// must be present and, for an enum, must not be the empty string.

template <class V, Wire<ComputeBoardRecord> S>
void
fields(V &v, S &t)
{
    v("name", t.name);
    v("class", t.boardClass);
    v("weight_g", t.weightG);
    v("power_w", t.powerW);
}

template <class V, Wire<DesignInputs> S>
void
fields(V &v, S &t)
{
    v("wheelbase_mm", t.wheelbaseMm);
    v("cells", t.cells);
    v("capacity_mah", t.capacityMah);
    v("twr", t.twr);
    v("prop_diameter_in", t.propDiameterIn);
    v("esc_class", t.escClass);
    v("board", t.compute);
    v("sensor_weight_g", t.sensorWeightG);
    v("sensor_power_w", t.sensorPowerW);
    v("payload_g", t.payloadG);
    v("activity", t.activity);
}

template <class V, Wire<SweepAirframe> S>
void
fields(V &v, S &t)
{
    v("wheelbase_mm", t.wheelbaseMm);
    v("prop_diameter_in", t.propDiameterIn);
}

template <class V, Wire<SweepSpec> S>
void
fields(V &v, S &t)
{
    v("airframes", t.airframes);
    v("boards", t.boards);
    v("activities", t.activities);
    v("cells", t.cells);
    v("capacity_lo_mah", t.capacityLoMah);
    v("capacity_hi_mah", t.capacityHiMah);
    v("capacity_step_mah", t.capacityStepMah);
    v("twr", t.twr);
    v("esc_class", t.escClass);
    v("sensor_weight_g", t.sensorWeightG);
    v("sensor_power_w", t.sensorPowerW);
    v("payload_g", t.payloadG);
}

template <class V, Wire<codesign::MissionSpec> S>
void
fields(V &v, S &t)
{
    v("name", t.name);
    v("target_rate_hz", t.targetRateHz);
    v("per_frame_ops", t.perFrameOps);
    v("wheelbases_mm", t.wheelbasesMm);
    v("cells", t.cells);
    v("capacity_lo_mah", t.capacityLoMah);
    v("capacity_hi_mah", t.capacityHiMah);
    v("capacity_step_mah", t.capacityStepMah);
    v("activity", t.activity);
    v("payload_g", t.payloadG);
}

/**
 * A tagged union on `axis`: enumerated kinds carry their value list,
 * continuous kinds the `lo + i*step` ladder.
 */
template <class V, Wire<explore::AxisSpec> S>
void
fields(V &v, S &t)
{
    v.required("axis", t.kind);
    const auto values = [&v](auto &list) { v.required("values", list); };
    switch (t.kind) {
    case explore::AxisKind::Cells: values(t.cells); break;
    case explore::AxisKind::Activity: values(t.activities); break;
    case explore::AxisKind::Board: v.required("boards", t.boards); break;
    default:
        v("lo", t.lo);
        v("step", t.step);
        v("count", t.count);
        break;
    }
}

template <class V, Wire<explore::ExploreSpace> S>
void
fields(V &v, S &t)
{
    v("base", t.base);
    v.required("axes", t.axes);
}

template <class V, Wire<explore::ExploreOptions> S>
void
fields(V &v, S &t)
{
    v("sampler", t.sampler);
    v("seed", t.seed);
    v("initial_samples", t.initialSamples);
    v("round_evaluations", t.roundEvaluations);
    v("max_evaluations", t.maxEvaluations);
    v("max_rounds", t.maxRounds);
    v("neighbor_radius", t.neighborRadius);
    v("bisect_boundary", t.bisectBoundary);
}

/** Flattened into the request object. */
template <class V, Wire<explore::ExploreQuery> S>
void
fields(V &v, S &t)
{
    v.required("space", t.space);
    v("options", t.options);
}

template <class V, Wire<explore::UncertaintyOptions> S>
void
fields(V &v, S &t)
{
    v("seed", t.seed);
    v("samples", t.samples);
    v("scatter_replicates", t.scatterReplicates);
}

template <class V, Wire<explore::GateSpec> S>
void
fields(V &v, S &t)
{
    v("metric", t.metric);
    v("op", t.op);
    v("threshold", t.threshold);
    v("min_probability", t.minProbability);
}

/** Flattened into the request object. */
template <class V, Wire<explore::RiskQuery> S>
void
fields(V &v, S &t)
{
    v.required("point", t.point);
    v("options", t.options);
    v("gates", t.gates);
    v("quantiles", t.quantiles);
}

/**
 * The head, then the kind's payload.  The id leads, so every later
 * read error can echo it; the reader has filled `kind` by the time
 * the switch looks at it.
 */
template <class V, Wire<Request> S>
void
fields(V &v, S &t)
{
    v.required("id", t.id);
    v.required("kind", t.kind);
    v("class", t.cls);
    switch (t.kind) {
    case QueryKind::Design: v.required("point", t.point); break;
    case QueryKind::Sweep:
    case QueryKind::Pareto: v.required("spec", t.spec); break;
    case QueryKind::Codesign: v.required("mission", t.mission); break;
    case QueryKind::Explore: fields(v, t.explore); break;
    case QueryKind::Risk: fields(v, t.risk); break;
    }
}

// --- visitors ----------------------------------------------------

/**
 * The entries of one container in a frame's entry list: the first is
 * at `begin`, each next one at the previous one's `end`.
 */
struct Entries
{
    std::size_t begin = 0;
    std::size_t end = 0;
};

/**
 * Reads one object of a validated frame through a field list, each
 * value in place.  The first violation lands in `err` as
 * InvalidRequest and every later member is skipped.
 */
class Reader
{
  public:
    /** `entries` lists the frame's entries, as `skipDocument` does. */
    Reader(std::string_view frame, const std::vector<JsonEntry> &entries,
           Entries members, ErrorReply &err)
        : frame_(frame), entries_(entries), members_(members), err_(err)
    {
    }

    bool ok() const { return ok_; }

    template <class T>
    void operator()(const char *key, T &member)
    {
        field(key, member, false);
    }

    template <class T>
    void required(const char *key, T &member)
    {
        field(key, member, true);
    }

  private:
    template <class T>
    void field(const char *key, T &member, bool required)
    {
        if (!ok_)
            return;
        // Of two duplicate keys the first wins.
        const std::string_view name = key;
        std::size_t i = members_.begin;
        while (i < members_.end && !entries_[i].is(name))
            i = entries_[i].end;
        if (i == members_.end) {
            if (required)
                fail(std::string(key) + " is required");
            return;
        }
        if constexpr (std::is_enum_v<T>) {
            // An empty spelling leaves an optional enum at its default.
            if (!required && frame_.substr(entries_[i].value, 2) == "\"\"")
                return;
        }
        read(i, key, false, member);
    }

    /** How many entries `items` holds. */
    std::size_t count(Entries items) const
    {
        std::size_t n = 0;
        for (std::size_t i = items.begin; i < items.end; i = entries_[i].end)
            ++n;
        return n;
    }

    bool fail(std::string message)
    {
        err_.code = ErrorCode::InvalidRequest;
        err_.message = std::move(message);
        ok_ = false;
        return false;
    }

    /**
     * The value of entry `at` into `out`; `entry` marks an item of
     * `key`.
     */
    template <class T>
    bool read(std::size_t at, const char *key, bool entry, T &out)
    {
        const auto mustBe = [&](const std::string &what) {
            return fail(std::string(key) + (entry ? " entry" : "") +
                        " must be " + what);
        };
        const std::size_t pos = entries_[at].value;
        const Entries items{at + 1, entries_[at].end};
        const char c = frame_[pos];
        if constexpr (std::is_same_v<T, bool>) {
            if (c != 't' && c != 'f')
                return mustBe("a boolean");
            out = c == 't';
        } else if constexpr (std::is_same_v<T, std::string>) {
            if (c != '"')
                return mustBe("a string");
            JsonScanner(frame_, pos).readString(out);
        } else if constexpr (std::is_enum_v<T>) {
            if (c != '"')
                return mustBe("a string");
            std::string name;
            JsonScanner(frame_, pos).readString(name);
            if (!parseEnum(name, out))
                return fail("unknown " + std::string(key) + " '" + name +
                            "'");
        } else if constexpr (std::is_arithmetic_v<T> || kIsQuantity<T>) {
            if (c != '-' && (c < '0' || c > '9'))
                return mustBe("a number");
            double v = 0.0;
            JsonScanner(frame_, pos).readNumber(v);
            if constexpr (std::is_same_v<T, int>) {
                // Within +-1e9, so the cast is defined.
                if (std::floor(v) != v || v < -1e9 || v > 1e9)
                    return mustBe("an integer");
                out = static_cast<int>(v);
            } else if constexpr (std::is_unsigned_v<T>) {
                if (std::floor(v) != v || v < 0.0 || v > kMaxExactInt)
                    return mustBe("a non-negative integer <= 2^53");
                out = static_cast<T>(v);
            } else {
                out = T(v);
            }
        } else if constexpr (kIsArray<T>) {
            if (c != '[' || count(items) != out.size())
                return mustBe("an array of " + std::to_string(out.size()) +
                              " entries");
            std::size_t i = items.begin;
            for (auto &element : out) {
                if (!read(i, key, true, element))
                    return false;
                i = entries_[i].end;
            }
        } else if constexpr (kIsVector<T>) {
            if (c != '[')
                return mustBe("an array");
            out.clear();
            out.reserve(count(items));
            for (std::size_t i = items.begin; i < items.end;
                 i = entries_[i].end) {
                typename T::value_type element{};
                if (!read(i, key, true, element))
                    return false;
                out.push_back(std::move(element));
            }
        } else {
            if (c != '{')
                return mustBe("an object");
            Reader nested(frame_, entries_, items, err_);
            fields(nested, out);
            ok_ = nested.ok();
        }
        return ok_;
    }

    std::string_view frame_;
    const std::vector<JsonEntry> &entries_;
    const Entries members_;
    ErrorReply &err_;
    bool ok_ = true;
};

/** Sweep `results` entries pre-written by `appendSweepRows`. */
struct RowChunks
{
    std::span<const std::string> chunks;
};

/**
 * Appends one JSON object's members to `out`, in the order the field
 * list visits them; nested structs and lists go into the same string.
 */
class Writer
{
  public:
    explicit Writer(std::string &out) : out_(out) {}

    template <class T>
    void operator()(const char *key, const T &value)
    {
        out_ += first_ ? "\"" : ", \"";
        first_ = false;
        out_ += key;
        out_ += "\": ";
        write(value);
    }

    template <class T>
    void required(const char *key, const T &value)
    {
        (*this)(key, value);
    }

    /** A list's entries, comma-separated, without the brackets. */
    template <std::ranges::range R>
    void items(const R &range)
    {
        bool first = true;
        for (const auto &item : range) {
            if (!first)
                out_ += ", ";
            first = false;
            write(item);
        }
    }

  private:
    template <class T>
    void write(const T &value)
    {
        if constexpr (std::is_same_v<T, bool>) {
            out_ += value ? "true" : "false";
        } else if constexpr (std::is_enum_v<T>) {
            out_ += '"';
            out_ += enumName(value);
            out_ += '"';
        } else if constexpr (std::is_integral_v<T>) {
            char buf[24];
            out_.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
        } else if constexpr (std::is_floating_point_v<T>) {
            appendJsonNumber(out_, value);
        } else if constexpr (kIsQuantity<T>) {
            appendJsonNumber(out_, value.value());
        } else if constexpr (std::is_same_v<T, std::string>) {
            appendJsonQuoted(out_, value);
        } else if constexpr (std::is_same_v<T, RowChunks>) {
            // The reply's last member: reserve its bytes and the
            // closing "]}" at once, so the reply is allocated once.
            std::size_t bytes = out_.size() + 3;
            for (const std::string &chunk : value.chunks)
                bytes += chunk.size();
            if (!value.chunks.empty())
                bytes += 2 * (value.chunks.size() - 1);
            out_.reserve(bytes);
            out_ += '[';
            bool first = true;
            for (const std::string &chunk : value.chunks) {
                if (!first)
                    out_ += ", ";
                first = false;
                out_ += chunk;
            }
            out_ += ']';
        } else if constexpr (kIsOptional<T>) {
            if (value)
                write(*value);
            else
                out_ += "null";
        } else if constexpr (std::ranges::range<T>) {
            out_ += '[';
            items(value);
            out_ += ']';
        } else {
            out_ += '{';
            Writer nested(out_);
            fields(nested, value);
            out_ += '}';
        }
    }

    std::string &out_;
    bool first_ = true;
};

/** `{` + the members `body` writes + `}`, reserved for `bytes`. */
template <class Body>
std::string
writeObject(Body &&body, std::size_t bytes = 0)
{
    std::string out;
    out.reserve(bytes);
    out += '{';
    Writer w(out);
    body(w);
    out += '}';
    return out;
}

/** Every reply opens with the request id and the ok flag. */
template <class Body>
std::string
writeReply(std::uint64_t id, bool ok, Body &&body, std::size_t bytes = 0)
{
    return writeObject(
        [&](Writer &w) {
            w("id", id);
            w("ok", ok);
            body(w);
        },
        bytes);
}

/*
 * Bytes of one `results` row and its ", " separator: feasible rows
 * of 17-digit numbers run to 366, and the longest infeasible reason
 * makes a 74-byte one.  A reply reserves from the rows it writes; a
 * short guess costs one regrowth, never a byte of output.
 */
constexpr std::size_t kFeasibleRowBytes = 368;
constexpr std::size_t kInfeasibleRowBytes = 74;
constexpr std::size_t kReplyHeadBytes = 128;

std::size_t
rowBytes(std::size_t feasible, std::size_t infeasible)
{
    return feasible * kFeasibleRowBytes +
           infeasible * kInfeasibleRowBytes;
}

/** A sweep reply's members up to its `results` list. */
void
writeSweepHead(Writer &w, std::size_t grid_points,
               std::size_t feasible_count,
               const std::vector<std::size_t> &frontier)
{
    w("kind", QueryKind::Sweep);
    w("grid_points", grid_points);
    w("feasible_count", feasible_count);
    w("frontier", frontier);
}

// --- writer-only field lists -------------------------------------

void
fields(Writer &w, const DesignResult &t)
{
    w("feasible", t.feasible);
    if (!t.feasible) {
        w("reason", t.infeasibleReason);
        return;
    }
    w("total_weight_g", t.totalWeightG);
    w("basic_weight_g", t.basicWeightG);
    w("battery_weight_g", t.batteryWeightG);
    w("motor_kv", t.motor.kv);
    w("max_power_w", t.maxPowerW);
    w("avg_power_w", t.avgPowerW);
    w("usable_energy_wh", t.usableEnergyWh);
    w("flight_time_min", t.flightTimeMin);
    w("compute_power_fraction", t.computePowerFraction);
}

void
fields(Writer &w, const codesign::CodesignChoice &t)
{
    w("feasible", t.feasible);
    if (!t.feasible)
        return;
    const codesign::ComputeConfig &cfg = t.config;
    w("board", cfg.boardName);
    w("platform", platformSpec(cfg.platform).name);
    w("split", cfg.split);
    w("rate_hz", cfg.rateHz);
    w("sustained_fps", cfg.sustainedFps);
    w("compute_power_w", cfg.computePowerW);
    w("compute_weight_g", cfg.computeWeightG);
    w("wheelbase_mm", t.design.inputs.wheelbaseMm);
    w("cells", t.design.inputs.cells);
    w("capacity_mah", t.design.inputs.capacityMah);
    w("result", t.design);
}

/** The gate as requested, then its verdict, in one object. */
void
fields(Writer &w, const explore::GateOutcome &t)
{
    fields(w, t.spec);
    w("probability", t.probability);
    w("pass", t.pass);
}

void
fields(Writer &w, const ErrorReply &t)
{
    w("code", t.code);
    w("message", t.message);
}

/** An explore frontier or incumbent entry: inputs beside result. */
struct Evaluated
{
    const DesignResult &result;
};

void
fields(Writer &w, const Evaluated &t)
{
    w("point", t.result.inputs);
    w("result", t.result);
}

/** One requested quantile, read off the feasible-sample ECDFs. */
struct QuantileRow
{
    double q;
    const explore::UncertaintyResult &unc;
};

void
fields(Writer &w, const QuantileRow &t)
{
    w("q", t.q);
    w("flight_time_min", t.unc.flightTimeMin.quantile(t.q));
    w("total_weight_g", t.unc.totalWeightG.quantile(t.q));
}

} // namespace

const char *
queryKindName(QueryKind kind)
{
    return enumName(kind);
}

bool
parseRequest(const std::string &frame, Request &out, ErrorReply &err)
{
    // `out` is read into as it stands, not reset: the caller owns
    // the one construction per frame (see request.hh).
    // One pass checks the whole frame, so a grammar error anywhere
    // wins over any field error, and lists every entry to read.
    std::vector<JsonEntry> entries;
    entries.reserve(32);
    JsonScanner scan(frame);
    if (!scan.skipDocument(&entries)) {
        err.code = ErrorCode::ParseError;
        err.message = scan.error();
        return false;
    }
    if (frame[frame.find_first_not_of(" \t\n\r")] != '{') {
        err.code = ErrorCode::ParseError;
        err.message = "request frame must be a JSON object";
        return false;
    }
    Reader reader(frame, entries, Entries{0, entries.size()}, err);
    fields(reader, out);
    return reader.ok();
}

std::string
serializeRequest(const Request &request)
{
    return writeObject([&](Writer &w) { fields(w, request); });
}

std::string
serializeErrorReply(std::uint64_t id, const ErrorReply &err)
{
    return writeReply(id, false, [&](Writer &w) { w("error", err); });
}

std::string
serializeDesignReply(std::uint64_t id, const DesignResult &result)
{
    return writeReply(
        id, true,
        [&](Writer &w) {
            w("kind", QueryKind::Design);
            w("result", result);
        },
        kReplyHeadBytes + kFeasibleRowBytes);
}

void
appendSweepRows(std::string &out, std::span<const DesignResult> rows)
{
    std::size_t feasible = 0;
    for (const DesignResult &row : rows)
        feasible += row.feasible ? 1 : 0;
    out.reserve(out.size() + rowBytes(feasible, rows.size() - feasible));
    Writer(out).items(rows);
}

std::string
serializeSweepReply(std::uint64_t id,
                    const std::vector<DesignResult> &points,
                    std::size_t feasible_count,
                    const std::vector<std::size_t> &frontier)
{
    const std::size_t bytes =
        kReplyHeadBytes + 8 * frontier.size() +
        rowBytes(feasible_count, points.size() - feasible_count);
    return writeReply(
        id, true,
        [&](Writer &w) {
            writeSweepHead(w, points.size(), feasible_count, frontier);
            w("results", points);
        },
        bytes);
}

std::string
serializeSweepReply(std::uint64_t id, std::size_t grid_points,
                    std::size_t feasible_count,
                    const std::vector<std::size_t> &frontier,
                    std::span<const std::string> row_chunks)
{
    return writeReply(id, true, [&](Writer &w) {
        writeSweepHead(w, grid_points, feasible_count, frontier);
        w("results", RowChunks{row_chunks});
    });
}

std::string
serializeParetoReply(std::uint64_t id,
                     const std::vector<DesignResult> &points,
                     const std::vector<std::size_t> &frontier)
{
    const std::size_t bytes = kReplyHeadBytes + 8 * frontier.size() +
                              rowBytes(frontier.size(), 0);
    return writeReply(
        id, true,
        [&](Writer &w) {
            w("kind", QueryKind::Pareto);
            w("grid_points", points.size());
            w("frontier", frontier);
            w("results", frontier | std::views::transform(
                                        [&](std::size_t i)
                                            -> const DesignResult & {
                                            return points[i];
                                        }));
        },
        bytes);
}

std::string
serializeCodesignReply(std::uint64_t id,
                       const codesign::CodesignOutcome &outcome)
{
    return writeReply(id, true, [&](Writer &w) {
        w("kind", QueryKind::Codesign);
        w("config_count", outcome.configCount);
        w("grid_points", outcome.gridPoints);
        w("recommended", outcome.recommended);
        w("per_platform", outcome.perPlatform);
        w("per_split", outcome.perSplit);
        w("best_sustained_fps", outcome.bestSustainedFps);
    });
}

std::string
serializeExploreReply(std::uint64_t id,
                      const explore::ExploreResult &result)
{
    std::optional<Evaluated> incumbent;
    if (result.incumbent < result.points.size())
        incumbent.emplace(Evaluated{result.points[result.incumbent]});
    return writeReply(id, true, [&](Writer &w) {
        w("kind", QueryKind::Explore);
        w("space_points", result.spacePoints);
        w("evaluations", result.evaluations());
        w("rounds", result.rounds.size());
        w("converged", result.converged);
        w("frontier", result.frontier |
                          std::views::transform([&](std::size_t i) {
                              return Evaluated{result.points[i]};
                          }));
        w("incumbent", incumbent);
    });
}

std::string
serializeRiskReply(std::uint64_t id,
                   const explore::RiskOutcome &outcome,
                   const std::vector<double> &quantiles)
{
    const explore::UncertaintyResult &unc = outcome.uncertainty;
    // With nothing feasible there is no distribution to read, so the
    // list is empty regardless of what was requested.
    const std::span<const double> read =
        unc.flightTimeMin.empty() ? std::span<const double>()
                                  : std::span<const double>(quantiles);
    return writeReply(id, true, [&](Writer &w) {
        w("kind", QueryKind::Risk);
        w("nominal", unc.nominal);
        w("samples", unc.samples);
        w("feasible_samples", unc.feasibleSamples);
        w("feasible_fraction", unc.feasibleFraction());
        w("gates", outcome.report.gates);
        w("all_pass", outcome.report.allPass);
        w("quantiles", read | std::views::transform([&](double q) {
                           return QuantileRow{q, unc};
                       }));
    });
}

} // namespace dronedse::serve
