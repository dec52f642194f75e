#include "serve/request.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "explore/space.hh"
#include "serve/service.hh"
#include "util/json.hh"
#include "util/rng.hh"

using namespace dronedse;
using namespace dronedse::serve;

namespace {

Request
designRequest(std::uint64_t id)
{
    Request request;
    request.id = id;
    request.kind = QueryKind::Design;
    request.point.wheelbaseMm = Quantity<Millimeters>(330.0);
    request.point.cells = 4;
    request.point.capacityMah = Quantity<MilliampHours>(2200.0);
    return request;
}

Request
sweepRequest(std::uint64_t id)
{
    Request request;
    request.id = id;
    request.kind = QueryKind::Sweep;
    request.cls = QueryClass::Batch;
    request.spec.boards = {ComputeBoardRecord{
        "Basic 3W chip", BoardClass::Basic, 20.0, 3.0}};
    request.spec.cells = {3, 4};
    request.spec.capacityLoMah = Quantity<MilliampHours>(2000.0);
    request.spec.capacityHiMah = Quantity<MilliampHours>(4000.0);
    request.spec.capacityStepMah = Quantity<MilliampHours>(500.0);
    return request;
}

Request
exploreRequest(std::uint64_t id)
{
    Request request;
    request.id = id;
    request.kind = QueryKind::Explore;
    request.explore.space.axes = {
        explore::capacityAxis(Quantity<MilliampHours>(1000.0),
                              Quantity<MilliampHours>(500.0), 5),
        explore::cellsAxis({3, 4}),
        explore::twrAxis(2.0, 0.5, 3),
    };
    request.explore.options.maxEvaluations = 20;
    request.explore.options.initialSamples = 8;
    return request;
}

Request
riskRequest(std::uint64_t id)
{
    Request request;
    request.id = id;
    request.kind = QueryKind::Risk;
    request.risk.point.capacityMah =
        Quantity<MilliampHours>(2200.0);
    request.risk.options.samples = 64;
    request.risk.gates = {explore::GateSpec{
        explore::GateMetric::FlightTimeMin, explore::GateOp::AtLeast,
        10.0, 0.9}};
    request.risk.quantiles = {0.1, 0.5, 0.9};
    return request;
}

// --- random wire structs: every field, every enum value -------------

/** A uniformly drawn value of `E`, from its wire table. */
template <class E>
E
randomEnum(Rng &rng)
{
    const auto table = wireNames(E{});
    const auto last = static_cast<std::int64_t>(table.size()) - 1;
    return table[static_cast<std::size_t>(rng.uniformInt(0, last))].value;
}

/** Finite doubles across magnitudes and signs. */
double
randomReal(Rng &rng)
{
    switch (rng.uniformInt(0, 4)) {
    case 0: return 0.0;
    case 1: return rng.uniform(-1e300, 1e300);
    case 2: return rng.uniform(-1e-300, 1e-300);
    default: return rng.uniform(-5000.0, 5000.0);
    }
}

/** Any int the reader accepts (integral, within +-1e9). */
int
randomInt(Rng &rng)
{
    return static_cast<int>(rng.uniformInt(-1'000'000'000, 1'000'000'000));
}

/** Any count or seed the reader accepts (integral, within 2^53). */
std::uint64_t
randomCount(Rng &rng)
{
    return static_cast<std::uint64_t>(
        rng.uniformInt(0, std::int64_t{1} << 53));
}

/** Names that exercise the string escaper. */
std::string
randomName(Rng &rng)
{
    static const char *const names[] = {
        "", "Basic 3W chip", "q\"uote", "back\\slash", "tab\tnew\nline",
        "ctl\x01\x1f", "caf\xc3\xa9 \xe2\x9c\x88"};
    return names[rng.uniformInt(0, std::size(names) - 1)];
}

template <class Make>
auto
randomList(Rng &rng, Make make)
{
    std::vector<decltype(make())> out(
        static_cast<std::size_t>(rng.uniformInt(0, 3)));
    for (auto &entry : out)
        entry = make();
    return out;
}

ComputeBoardRecord
randomBoard(Rng &rng)
{
    return ComputeBoardRecord{randomName(rng), randomEnum<BoardClass>(rng),
                              randomReal(rng), randomReal(rng)};
}

DesignInputs
randomPoint(Rng &rng)
{
    DesignInputs point;
    point.wheelbaseMm = Quantity<Millimeters>(randomReal(rng));
    point.cells = randomInt(rng);
    point.capacityMah = Quantity<MilliampHours>(randomReal(rng));
    point.twr = randomReal(rng);
    point.propDiameterIn = Quantity<Inches>(randomReal(rng));
    point.escClass = randomEnum<EscClass>(rng);
    point.compute = randomBoard(rng);
    point.sensorWeightG = Quantity<Grams>(randomReal(rng));
    point.sensorPowerW = Quantity<Watts>(randomReal(rng));
    point.payloadG = Quantity<Grams>(randomReal(rng));
    point.activity = randomEnum<FlightActivity>(rng);
    return point;
}

SweepSpec
randomSpec(Rng &rng)
{
    SweepSpec spec;
    spec.airframes = randomList(rng, [&] {
        return SweepAirframe{Quantity<Millimeters>(randomReal(rng)),
                             Quantity<Inches>(randomReal(rng))};
    });
    spec.boards = randomList(rng, [&] { return randomBoard(rng); });
    spec.activities =
        randomList(rng, [&] { return randomEnum<FlightActivity>(rng); });
    spec.cells = randomList(rng, [&] { return randomInt(rng); });
    spec.capacityLoMah = Quantity<MilliampHours>(randomReal(rng));
    spec.capacityHiMah = Quantity<MilliampHours>(randomReal(rng));
    spec.capacityStepMah = Quantity<MilliampHours>(randomReal(rng));
    spec.twr = randomReal(rng);
    spec.escClass = randomEnum<EscClass>(rng);
    spec.sensorWeightG = Quantity<Grams>(randomReal(rng));
    spec.sensorPowerW = Quantity<Watts>(randomReal(rng));
    spec.payloadG = Quantity<Grams>(randomReal(rng));
    return spec;
}

codesign::MissionSpec
randomMission(Rng &rng)
{
    codesign::MissionSpec mission;
    mission.name = randomName(rng);
    mission.targetRateHz = randomReal(rng);
    for (double &ops : mission.perFrameOps)
        ops = randomReal(rng);
    mission.wheelbasesMm = randomList(
        rng, [&] { return Quantity<Millimeters>(randomReal(rng)); });
    mission.cells = randomList(rng, [&] { return randomInt(rng); });
    mission.capacityLoMah = Quantity<MilliampHours>(randomReal(rng));
    mission.capacityHiMah = Quantity<MilliampHours>(randomReal(rng));
    mission.capacityStepMah = Quantity<MilliampHours>(randomReal(rng));
    mission.activity = randomEnum<FlightActivity>(rng);
    mission.payloadG = Quantity<Grams>(randomReal(rng));
    return mission;
}

explore::AxisSpec
randomAxis(Rng &rng)
{
    explore::AxisSpec axis;
    axis.kind = randomEnum<explore::AxisKind>(rng);
    switch (axis.kind) {
    case explore::AxisKind::Cells:
        axis.cells = randomList(rng, [&] { return randomInt(rng); });
        break;
    case explore::AxisKind::Board:
        axis.boards = randomList(rng, [&] { return randomBoard(rng); });
        break;
    case explore::AxisKind::Activity:
        axis.activities = randomList(
            rng, [&] { return randomEnum<FlightActivity>(rng); });
        break;
    default:
        axis.lo = randomReal(rng);
        axis.step = randomReal(rng);
        axis.count = randomCount(rng);
        break;
    }
    return axis;
}

explore::ExploreQuery
randomExplore(Rng &rng)
{
    explore::ExploreQuery query;
    query.space.base = randomPoint(rng);
    query.space.axes = randomList(rng, [&] { return randomAxis(rng); });
    explore::ExploreOptions &options = query.options;
    options.sampler = randomEnum<explore::SamplerKind>(rng);
    options.seed = randomCount(rng);
    options.initialSamples = randomCount(rng);
    options.roundEvaluations = randomCount(rng);
    options.maxEvaluations = randomCount(rng);
    options.maxRounds = randomCount(rng);
    options.neighborRadius = randomCount(rng);
    options.bisectBoundary = rng.uniform() < 0.5;
    return query;
}

explore::RiskQuery
randomRisk(Rng &rng)
{
    explore::RiskQuery query;
    query.point = randomPoint(rng);
    query.options.seed = randomCount(rng);
    query.options.samples = randomCount(rng);
    query.options.scatterReplicates = randomInt(rng);
    query.gates = randomList(rng, [&] {
        return explore::GateSpec{randomEnum<explore::GateMetric>(rng),
                                 randomEnum<explore::GateOp>(rng),
                                 randomReal(rng), randomReal(rng)};
    });
    query.quantiles = randomList(rng, [&] { return randomReal(rng); });
    return query;
}

// --- lenient spellings of a canonical frame ------------------------

/** Up to three bytes of JSON whitespace. */
std::string
randomSpace(Rng &rng)
{
    static const char kSpace[] = {' ', '\t', '\r', '\n'};
    std::string out;
    for (auto n = rng.uniformInt(0, 3); n > 0; --n)
        out += kSpace[rng.uniformInt(0, 3)];
    return out;
}

/** A JSON value no field list reads, nested up to four levels. */
std::string
randomJunk(Rng &rng, int depth)
{
    switch (rng.uniformInt(0, depth >= 4 ? 3 : 5)) {
    case 0: return "null";
    case 1: return rng.uniform() < 0.5 ? "true" : "false";
    case 2: return jsonNumber(randomReal(rng));
    case 3: return R"("café \"q\" \\ \n 😀 \/")";
    case 4: {
        std::string out = "[" + randomSpace(rng);
        for (auto n = rng.uniformInt(0, 4); n > 0; --n)
            out += randomJunk(rng, depth + 1) + (n > 1 ? ", " : "");
        return out + "]";
    }
    default: {
        std::string out = "{";
        for (auto n = rng.uniformInt(0, 4); n > 0; --n)
            out += "\"k" + std::to_string(n) + "\":" + randomSpace(rng) +
                   randomJunk(rng, depth + 1) + (n > 1 ? "," : "");
        return out + "}";
    }
    }
}

/** The quoted key `token`, some of its bytes written as \u escapes. */
std::string
escapeSome(std::string_view token, Rng &rng)
{
    static const char kHex[] = "0123456789abcdef";
    std::string out = "\"";
    for (const char c : token.substr(1, token.size() - 2)) {
        if (rng.uniform() < 0.2) {
            out += "\\u00";
            out += kHex[(c >> 4) & 0xF];
            out += kHex[c & 0xF];
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/**
 * The canonical JSON value at `pos` of `text`, spelled as a lenient
 * client might: every object's members shuffled, some keys escaped,
 * unknown members and later duplicates of known keys (the first of
 * two wins) mixed in, and random whitespace around every token.
 */
void
respell(std::string_view text, std::size_t pos, Rng &rng, std::string &out)
{
    const char open = text[pos];
    if (open != '{' && open != '[') {
        JsonScanner scan(text, pos);
        scan.skipValue();
        out += text.substr(pos, scan.pos() - pos);
        return;
    }
    std::vector<JsonEntry> entries;
    JsonScanner(text, pos).skipValue(0, &entries);
    std::vector<std::string> parts;
    for (std::size_t i = 0; i < entries.size(); i = entries[i].end) {
        const JsonEntry &entry = entries[i];
        std::string part = randomSpace(rng);
        if (open == '{')
            part += escapeSome(entry.key, rng) + randomSpace(rng) + ":" +
                    randomSpace(rng);
        respell(text, entry.value, rng, part);
        parts.push_back(part + randomSpace(rng));
    }
    if (open == '[') {
        out += open;
        for (std::size_t i = 0; i < parts.size(); ++i)
            out += (i > 0 ? "," : "") + parts[i];
        out += randomSpace(rng) + "]";
        return;
    }
    for (std::size_t i = parts.size(); i > 1; --i)
        std::swap(parts[i - 1], parts[static_cast<std::size_t>(
                                     rng.uniformInt(0, i - 1))]);
    // A duplicate goes after the member it repeats, so never wins.
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (rng.uniform() >= 0.2)
            continue;
        const std::string key = parts[i].substr(0, parts[i].find(':'));
        const auto size = static_cast<std::int64_t>(parts.size());
        const auto at =
            rng.uniformInt(static_cast<std::int64_t>(i) + 1, size);
        parts.insert(parts.begin() + at, key + ":" + randomJunk(rng, 0));
    }
    for (auto n = rng.uniformInt(0, 2); n > 0; --n) {
        const auto at =
            rng.uniformInt(0, static_cast<std::int64_t>(parts.size()));
        parts.insert(parts.begin() + at,
                     escapeSome("\"zz_unknown\"", rng) + ":" +
                         randomJunk(rng, 0));
    }
    out += open;
    for (std::size_t i = 0; i < parts.size(); ++i)
        out += (i > 0 ? "," : "") + parts[i];
    out += randomSpace(rng) + "}";
}

/** serialize -> parse -> serialize is a byte-identical fixed point. */
void
expectFixedPoint(const Request &request, int trial)
{
    const std::string once = serializeRequest(request);
    Request parsed;
    ErrorReply err;
    ASSERT_TRUE(parseRequest(once, parsed, err))
        << "trial " << trial << ": " << err.message << "\n"
        << once;
    EXPECT_EQ(serializeRequest(parsed), once) << "trial " << trial;
}

} // namespace

TEST(ServeRequest, DesignRoundTripIsByteIdentical)
{
    const Request original = designRequest(7);
    const std::string frame = serializeRequest(original);
    Request parsed;
    ErrorReply err;
    ASSERT_TRUE(parseRequest(frame, parsed, err)) << err.message;
    EXPECT_EQ(parsed.id, 7u);
    EXPECT_EQ(parsed.kind, QueryKind::Design);
    EXPECT_EQ(parsed.cls, QueryClass::Interactive);
    EXPECT_EQ(serializeRequest(parsed), frame);
}

TEST(ServeRequest, SweepRoundTripIsByteIdentical)
{
    const Request original = sweepRequest(11);
    const std::string frame = serializeRequest(original);
    Request parsed;
    ErrorReply err;
    ASSERT_TRUE(parseRequest(frame, parsed, err)) << err.message;
    EXPECT_EQ(parsed.kind, QueryKind::Sweep);
    EXPECT_EQ(parsed.cls, QueryClass::Batch);
    EXPECT_EQ(parsed.spec.cells, (std::vector<int>{3, 4}));
    EXPECT_EQ(serializeRequest(parsed), frame);
}

TEST(ServeRequest, MissingFieldsKeepDefaults)
{
    Request parsed;
    ErrorReply err;
    ASSERT_TRUE(parseRequest(
        "{\"id\": 3, \"kind\": \"design\", \"point\": {}}", parsed,
        err))
        << err.message;
    const DesignInputs defaults;
    EXPECT_EQ(parsed.point.cells, defaults.cells);
    EXPECT_DOUBLE_EQ(parsed.point.wheelbaseMm.value(),
                     defaults.wheelbaseMm.value());
    EXPECT_EQ(parsed.cls, QueryClass::Interactive);

    const auto parses = [&](const char *frame) {
        Request fresh;
        std::swap(parsed, fresh);
        EXPECT_TRUE(parseRequest(frame, parsed, err))
            << frame << ": " << err.message;
    };
    // An empty spelling in an optional enum field keeps the default.
    parses(R"({"id": 4, "kind": "design", "class": "", "point": )"
           R"({"esc_class": "", "activity": "", "board": {"class": ""}}})");
    EXPECT_EQ(parsed.cls, QueryClass::Interactive);
    EXPECT_EQ(parsed.point.escClass, defaults.escClass);
    EXPECT_EQ(parsed.point.activity, defaults.activity);
    EXPECT_EQ(parsed.point.compute.boardClass,
              defaults.compute.boardClass);
    parses(R"({"id": 4, "kind": "sweep", "spec": {"esc_class": ""}})");
    EXPECT_EQ(parsed.spec.escClass, SweepSpec{}.escClass);
    parses(R"({"id": 4, "kind": "explore", "space": {"axes": []}, )"
           R"("options": {"sampler": ""}})");
    EXPECT_EQ(parsed.explore.options.sampler,
              explore::ExploreOptions{}.sampler);
    parses(R"({"id": 4, "kind": "risk", "point": {}, )"
           R"("gates": [{"metric": "", "op": ""}]})");
    ASSERT_EQ(parsed.risk.gates.size(), 1u);
    EXPECT_EQ(parsed.risk.gates[0].metric, explore::GateSpec{}.metric);
    EXPECT_EQ(parsed.risk.gates[0].op, explore::GateSpec{}.op);

    // Of two duplicate keys the first wins, at every level.
    parses(R"({"id": 5, "id": 6, "kind": "design", "point": )"
           R"({"cells": 5, "cells": 6}})");
    EXPECT_EQ(parsed.id, 5u);
    EXPECT_EQ(parsed.point.cells, 5);

    // Unknown keys are ignored and member order is free.
    parses(R"({"point": {"warp": null, "cells": 2}, "extra": [1, {}], )"
           R"("kind": "design", "id": 7})");
    EXPECT_EQ(parsed.id, 7u);
    EXPECT_EQ(parsed.point.cells, 2);
}

TEST(ServeRequest, EveryWireEnumRoundTrips)
{
    // Each table spells every value of its (dense, zero-based) enum
    // once, and parseEnum inverts enumName.
    const auto check = [](auto table) {
        using E = decltype(table[0].value);
        std::set<std::string> seen;
        for (std::size_t i = 0; i < table.size(); ++i) {
            const E value = static_cast<E>(i);
            const char *name = enumName(value);
            EXPECT_TRUE(seen.insert(name).second) << name;
            E parsed = table[(i + 1) % table.size()].value;
            EXPECT_TRUE(parseEnum(name, parsed)) << name;
            EXPECT_EQ(parsed, value) << name;
        }
        E untouched = table[0].value;
        EXPECT_FALSE(parseEnum("", untouched));
        EXPECT_FALSE(parseEnum("no_such_spelling", untouched));
        EXPECT_EQ(untouched, table[0].value);
    };
    check(wireNames(EscClass{}));
    check(wireNames(FlightActivity{}));
    check(wireNames(BoardClass{}));
    check(wireNames(QueryKind{}));
    check(wireNames(QueryClass{}));
    check(wireNames(ErrorCode{}));
    check(wireNames(explore::AxisKind{}));
    check(wireNames(explore::SamplerKind{}));
    check(wireNames(explore::GateMetric{}));
    check(wireNames(explore::GateOp{}));
    check(wireNames(codesign::OffloadSplit{}));
}

TEST(ServeRequest, ErrorsEchoTheReadableId)
{
    Request parsed;
    ErrorReply err;
    EXPECT_FALSE(parseRequest(
        "{\"id\": 42, \"kind\": \"design\"}", parsed, err));
    EXPECT_EQ(parsed.id, 42u);
    EXPECT_EQ(err.code, ErrorCode::InvalidRequest);
    const std::string reply = serializeErrorReply(parsed.id, err);
    EXPECT_NE(reply.find("\"id\": 42"), std::string::npos);
    EXPECT_NE(reply.find("\"invalid_request\""), std::string::npos);
}

TEST(ServeRequest, FuzzSerializeParseSerialize)
{
    Rng rng(1609);
    const QueryKind kinds[] = {QueryKind::Design, QueryKind::Sweep,
                               QueryKind::Pareto, QueryKind::Codesign};
    for (int trial = 0; trial < 300; ++trial) {
        Request request;
        request.id = randomCount(rng);
        request.cls = randomEnum<QueryClass>(rng);
        request.kind = kinds[rng.uniformInt(0, std::size(kinds) - 1)];
        switch (request.kind) {
        case QueryKind::Design: request.point = randomPoint(rng); break;
        case QueryKind::Codesign:
            request.mission = randomMission(rng);
            break;
        default: request.spec = randomSpec(rng); break;
        }
        expectFixedPoint(request, trial);
    }
}

TEST(ServeRequest, ExploreRoundTripIsByteIdentical)
{
    Request original = exploreRequest(13);
    // Exercise every axis kind in one frame.
    original.explore.space.axes.push_back(
        explore::wheelbaseAxis(Quantity<Millimeters>(300.0),
                               Quantity<Millimeters>(50.0), 4));
    original.explore.space.axes.push_back(
        explore::boardAxis({ComputeBoardRecord{
            "Basic 3W chip", BoardClass::Basic, 20.0, 3.0}}));
    original.explore.space.axes.push_back(explore::activityAxis(
        {FlightActivity::Hovering, FlightActivity::Maneuvering}));
    original.explore.space.axes.push_back(explore::payloadAxis(
        Quantity<Grams>(0.0), Quantity<Grams>(100.0), 3));
    original.explore.options.sampler = explore::SamplerKind::Grid;
    original.explore.options.seed = 99;

    const std::string frame = serializeRequest(original);
    Request parsed;
    ErrorReply err;
    ASSERT_TRUE(parseRequest(frame, parsed, err)) << err.message;
    EXPECT_EQ(parsed.kind, QueryKind::Explore);
    EXPECT_EQ(parsed.explore.space.axes.size(), 7u);
    EXPECT_EQ(parsed.explore.options.sampler,
              explore::SamplerKind::Grid);
    EXPECT_EQ(parsed.explore.options.seed, 99u);
    EXPECT_EQ(serializeRequest(parsed), frame);
}

TEST(ServeRequest, RiskRoundTripIsByteIdentical)
{
    const Request original = riskRequest(17);
    const std::string frame = serializeRequest(original);
    Request parsed;
    ErrorReply err;
    ASSERT_TRUE(parseRequest(frame, parsed, err)) << err.message;
    EXPECT_EQ(parsed.kind, QueryKind::Risk);
    ASSERT_EQ(parsed.risk.gates.size(), 1u);
    EXPECT_EQ(parsed.risk.gates[0].metric,
              explore::GateMetric::FlightTimeMin);
    EXPECT_EQ(parsed.risk.gates[0].op, explore::GateOp::AtLeast);
    EXPECT_EQ(parsed.risk.quantiles,
              (std::vector<double>{0.1, 0.5, 0.9}));
    EXPECT_EQ(serializeRequest(parsed), frame);
}

TEST(ServeRequest, ExploreOptionsDefaultsSurviveOmission)
{
    // An explore frame with only a space: every option keeps its
    // compiled-in default, and the canonical form round-trips.
    Request parsed;
    ErrorReply err;
    ASSERT_TRUE(parseRequest(
        "{\"id\": 5, \"kind\": \"explore\", \"space\": {\"axes\": "
        "[{\"axis\": \"cells\", \"values\": [3, 4]}]}}",
        parsed, err))
        << err.message;
    const explore::ExploreOptions defaults;
    EXPECT_EQ(parsed.explore.options.sampler, defaults.sampler);
    EXPECT_EQ(parsed.explore.options.seed, defaults.seed);
    EXPECT_EQ(parsed.explore.options.initialSamples,
              defaults.initialSamples);
    EXPECT_EQ(parsed.explore.options.roundEvaluations,
              defaults.roundEvaluations);
    EXPECT_EQ(parsed.explore.options.maxEvaluations,
              defaults.maxEvaluations);
    const std::string canonical = serializeRequest(parsed);
    Request reparsed;
    ASSERT_TRUE(parseRequest(canonical, reparsed, err))
        << err.message;
    EXPECT_EQ(serializeRequest(reparsed), canonical);
}

TEST(ServeRequest, FuzzExploreAndRiskSerializeParseSerialize)
{
    Rng rng(4242);
    for (int trial = 0; trial < 200; ++trial) {
        Request request;
        request.id = randomCount(rng);
        request.cls = randomEnum<QueryClass>(rng);
        if (rng.uniform() < 0.5) {
            request.kind = QueryKind::Explore;
            request.explore = randomExplore(rng);
        } else {
            request.kind = QueryKind::Risk;
            request.risk = randomRisk(rng);
        }
        expectFixedPoint(request, trial);
    }
}

TEST(ServeRequest, FuzzLenientSpellingsParseToTheCanonicalFrame)
{
    // Member order, key escapes, whitespace, unknown members and
    // later duplicates change nothing the reader returns.
    Rng rng(2611);
    for (int trial = 0; trial < 300; ++trial) {
        Request request;
        request.id = randomCount(rng);
        request.cls = randomEnum<QueryClass>(rng);
        request.kind = randomEnum<QueryKind>(rng);
        switch (request.kind) {
        case QueryKind::Design: request.point = randomPoint(rng); break;
        case QueryKind::Codesign:
            request.mission = randomMission(rng);
            break;
        case QueryKind::Explore: request.explore = randomExplore(rng); break;
        case QueryKind::Risk: request.risk = randomRisk(rng); break;
        default: request.spec = randomSpec(rng); break;
        }
        const std::string canonical = serializeRequest(request);
        std::string frame;
        respell(canonical, 0, rng, frame);
        Request parsed;
        ErrorReply err;
        ASSERT_TRUE(parseRequest(frame, parsed, err))
            << "trial " << trial << ": " << err.message << "\n"
            << frame;
        EXPECT_EQ(serializeRequest(parsed), canonical)
            << "trial " << trial << "\n"
            << frame;
    }
}

TEST(ServeRequest, MalformedExploreAndRiskFrames)
{
    const auto rejected = [](const std::string &frame,
                             const char *label) {
        Request parsed;
        ErrorReply err;
        EXPECT_FALSE(parseRequest(frame, parsed, err)) << label;
        EXPECT_EQ(err.code, ErrorCode::InvalidRequest) << label;
    };
    rejected("{\"id\": 1, \"kind\": \"explore\"}", "missing space");
    rejected("{\"id\": 1, \"kind\": \"explore\", \"space\": "
             "{\"axes\": \"all\"}}",
             "axes not an array");
    rejected("{\"id\": 1, \"kind\": \"explore\", \"space\": "
             "{\"axes\": [{\"axis\": \"warp\"}]}}",
             "unknown axis kind");
    rejected("{\"id\": 1, \"kind\": \"explore\", \"space\": "
             "{\"axes\": [{\"axis\": \"cells\", \"values\": [3]}]}, "
             "\"options\": {\"sampler\": \"psychic\"}}",
             "unknown sampler");
    rejected("{\"id\": 1, \"kind\": \"risk\"}", "missing point");
    rejected("{\"id\": 1, \"kind\": \"risk\", \"point\": {}, "
             "\"quantiles\": [\"median\"]}",
             "quantile not a number");
    rejected("{\"id\": 1, \"kind\": \"risk\", \"point\": {}, "
             "\"gates\": [{\"metric\": \"karma\"}]}",
             "unknown gate metric");
}

// --- malformed-frame battery (ISSUE 5 satellite) -------------------
//
// Every frame must map to a typed error reply, and none may change
// server-side state: no query executed, nothing admitted to the
// queue, no engine work.

TEST(ServeRequest, MalformedFrameBattery)
{
    struct Case
    {
        const char *label;
        std::string frame;
        const char *expect_code;
    };
    const std::string valid = serializeRequest(designRequest(1));
    std::vector<Case> cases = {
        {"empty frame", "", "parse_error"},
        {"truncated JSON", valid.substr(0, valid.size() / 2),
         "parse_error"},
        {"not an object", "[1, 2, 3]", "parse_error"},
        {"bare garbage", "hello there", "parse_error"},
        {"NaN field",
         "{\"id\": 1, \"kind\": \"design\", \"point\": "
         "{\"twr\": NaN}}",
         "parse_error"},
        {"Infinity field",
         "{\"id\": 1, \"kind\": \"design\", \"point\": "
         "{\"capacity_mah\": Infinity}}",
         "parse_error"},
        {"missing id", "{\"kind\": \"design\", \"point\": {}}",
         "invalid_request"},
        {"fractional id",
         "{\"id\": 1.5, \"kind\": \"design\", \"point\": {}}",
         "invalid_request"},
        {"negative id",
         "{\"id\": -4, \"kind\": \"design\", \"point\": {}}",
         "invalid_request"},
        {"unknown query kind",
         "{\"id\": 2, \"kind\": \"teleport\", \"point\": {}}",
         "invalid_request"},
        {"unknown class",
         "{\"id\": 2, \"kind\": \"design\", \"class\": \"vip\", "
         "\"point\": {}}",
         "invalid_request"},
        {"wrong type for point",
         "{\"id\": 2, \"kind\": \"design\", \"point\": 7}",
         "invalid_request"},
        {"wrong type for field",
         "{\"id\": 2, \"kind\": \"design\", \"point\": "
         "{\"cells\": \"four\"}}",
         "invalid_request"},
        {"unknown esc class",
         "{\"id\": 2, \"kind\": \"design\", \"point\": "
         "{\"esc_class\": \"warp\"}}",
         "invalid_request"},
        {"spec for design missing",
         "{\"id\": 2, \"kind\": \"sweep\"}", "invalid_request"},
        {"cells entry out of int range",
         "{\"id\": 2, \"kind\": \"sweep\", \"spec\": "
         "{\"cells\": [1e300]}}",
         "invalid_request"},
        {"cells out of int range",
         R"({"id": 2, "kind": "design", "point": {"cells": 1e300}})",
         "invalid_request"},
        {"null for a field",
         R"({"id": 2, "kind": "design", "point": {"twr": null}})",
         "invalid_request"},
        {"null for an enum",
         R"({"id": 2, "kind": "design", "class": null, "point": {}})",
         "invalid_request"},
        {"null for an object",
         R"({"id": 2, "kind": "design", "point": null})",
         "invalid_request"},
        {"null id", R"({"id": null, "kind": "design", "point": {}})",
         "invalid_request"},
        {"empty query kind",
         R"({"id": 2, "kind": "", "point": {}})", "invalid_request"},
        {"empty axis name",
         R"({"id": 2, "kind": "explore", "space": {"axes": )"
         R"([{"axis": "", "values": [3]}]}})",
         "invalid_request"},
        {"empty spelling in an enum list",
         R"({"id": 2, "kind": "sweep", "spec": {"activities": [""]}})",
         "invalid_request"},
        {"seed above 2^53",
         R"({"id": 2, "kind": "explore", "space": {"axes": []}, )"
         R"("options": {"seed": 1152921504606846976}})",
         "invalid_request"},
    };
    // Oversized line: one byte past the service's frame cap.
    const std::string head =
        "{\"id\": 1, \"kind\": \"design\", \"pad\": \"";
    const std::string tail = "\", \"point\": {}}";
    Case oversized{"oversized line",
                   head +
                       std::string(kMaxFrameBytes + 1 - head.size() -
                                       tail.size(),
                                   'x') +
                       tail,
                   "too_large"};
    ASSERT_EQ(oversized.frame.size(), kMaxFrameBytes + 1);

    ServiceOptions options;
    options.engine.threads = 1;
    Service service{options};

    cases.push_back(oversized);
    double t = 0.0;
    for (const Case &c : cases) {
        const std::string reply = service.handleFrame(c.frame, t);
        t += 1e-3;
        EXPECT_NE(reply.find("\"ok\": false"), std::string::npos)
            << c.label << ": " << reply;
        EXPECT_NE(reply.find(std::string("\"") + c.expect_code +
                             "\""),
                  std::string::npos)
            << c.label << ": " << reply;
    }

    // No server-side state change: nothing executed, nothing
    // admitted, no engine work, no queue residue.
    EXPECT_EQ(service.planner().stats().executed, 0u);
    EXPECT_EQ(service.planner().stats().invalid, 0u);
    EXPECT_EQ(service.admission().stats().admitted, 0u);
    EXPECT_EQ(service.admission().depth(), 0u);
    const engine::CacheCounters cache =
        service.engine().cacheCounters();
    EXPECT_EQ(cache.hits + cache.misses, 0u);

    // And the service still answers a valid frame normally.
    const std::string ok_reply = service.handleFrame(valid, t);
    EXPECT_NE(ok_reply.find("\"ok\": true"), std::string::npos);
    EXPECT_EQ(service.planner().stats().executed, 1u);
}

TEST(ServeRequest, FrameCapAdmitsExactlyMaxFrameBytes)
{
    // A valid frame padded with JSON whitespace to exactly the cap
    // is served; one byte more is `too_large`.
    const std::string head = R"({"id": 3, "kind": "design", "point": {})";
    const auto padded = [&](std::size_t size) {
        return head + std::string(size - head.size() - 1, ' ') + "}";
    };
    ServiceOptions options;
    options.engine.threads = 1;
    Service service{options};

    const std::string at_cap = padded(kMaxFrameBytes);
    ASSERT_EQ(at_cap.size(), kMaxFrameBytes);
    const std::string reply = service.handleFrame(at_cap, 0.0);
    EXPECT_NE(reply.find("\"ok\": true"), std::string::npos) << reply;

    const std::string over = padded(kMaxFrameBytes + 1);
    EXPECT_NE(service.handleFrame(over, 1.0).find("\"too_large\""),
              std::string::npos);
}

TEST(ServeRiskFrame, NonPositiveFixedWeightSampleRepliesOk)
{
    // An admitted risk frame whose perturbed frame fit prices a
    // 201 mm airframe below zero grams in some sample.  That sample
    // is infeasible; the service answers the frame, and answers it
    // again the same way.
    const std::string frame =
        R"({"id":1,"kind":"risk","point":{"wheelbase_mm":201,"cells":1,)"
        R"("capacity_mah":1,"board":{"weight_g":0,"power_w":0}},)"
        R"("options":{"seed":1,"samples":256,"scatter_replicates":2}})";
    ServiceOptions options;
    options.engine.threads = 1;
    Service service{options};
    const std::string reply = service.handleFrame(frame, 0.0);
    EXPECT_NE(reply.find("\"ok\": true"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"samples\": 256"), std::string::npos)
        << reply;
    EXPECT_EQ(service.handleFrame(frame, 1.0), reply);
}
