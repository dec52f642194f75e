/**
 * Golden wire bytes: the canonical spelling of one request frame per
 * query kind and one reply per kind, pinned as literals.  Every other
 * wire test round-trips through the same serializer on both sides, so
 * only these literals catch a renamed key, a reordered field or a
 * changed enum spelling.
 */

#include "serve/request.hh"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "explore/space.hh"

using namespace dronedse;
using namespace dronedse::serve;

namespace {

ComputeBoardRecord
goldenBoard(const char *name, BoardClass cls)
{
    return ComputeBoardRecord{name, cls, 85.5, 7.25};
}

/** Every field away from its default. */
DesignInputs
goldenPoint()
{
    DesignInputs point;
    point.wheelbaseMm = Quantity<Millimeters>(330.5);
    point.cells = 4;
    point.capacityMah = Quantity<MilliampHours>(2200.25);
    point.twr = 2.5;
    point.propDiameterIn = Quantity<Inches>(8.5);
    point.escClass = EscClass::ShortFlight;
    point.compute = goldenBoard("TX2 \"dev\"", BoardClass::Improved);
    point.sensorWeightG = Quantity<Grams>(12.5);
    point.sensorPowerW = Quantity<Watts>(1.25);
    point.payloadG = Quantity<Grams>(50.0);
    point.activity = FlightActivity::Maneuvering;
    return point;
}

SweepSpec
goldenSpec()
{
    SweepSpec spec;
    spec.airframes = {
        SweepAirframe{Quantity<Millimeters>(250.0), Quantity<Inches>(5.0)},
        SweepAirframe{Quantity<Millimeters>(450.0), Quantity<Inches>(0.0)}};
    spec.boards = {goldenBoard("a", BoardClass::Basic),
                   goldenBoard("b", BoardClass::Improved)};
    spec.activities = {FlightActivity::Maneuvering,
                       FlightActivity::Hovering};
    spec.cells = {3, 4, 6};
    spec.capacityLoMah = Quantity<MilliampHours>(1500.0);
    spec.capacityHiMah = Quantity<MilliampHours>(4500.0);
    spec.capacityStepMah = Quantity<MilliampHours>(750.0);
    spec.twr = 2.25;
    spec.escClass = EscClass::ShortFlight;
    spec.sensorWeightG = Quantity<Grams>(30.0);
    spec.sensorPowerW = Quantity<Watts>(2.5);
    spec.payloadG = Quantity<Grams>(100.0);
    return spec;
}

std::vector<std::string>
goldenRequests()
{
    std::vector<std::string> frames;
    Request r;
    r.cls = QueryClass::Batch;

    r.id = 101;
    r.kind = QueryKind::Design;
    r.point = goldenPoint();
    frames.push_back(serializeRequest(r));

    r.id = 102;
    r.kind = QueryKind::Sweep;
    r.spec = goldenSpec();
    frames.push_back(serializeRequest(r));

    r.id = 103;
    r.kind = QueryKind::Pareto;
    r.spec.cells = {2};
    frames.push_back(serializeRequest(r));

    r.id = 104;
    r.kind = QueryKind::Codesign;
    r.mission.name = "survey";
    r.mission.targetRateHz = 20.0;
    r.mission.perFrameOps = {1.5e6, 2.5e6, 3.5e5, 4.0e7, 5.0e8};
    r.mission.wheelbasesMm = {Quantity<Millimeters>(350.0),
                              Quantity<Millimeters>(550.0)};
    r.mission.cells = {4, 6};
    r.mission.capacityLoMah = Quantity<MilliampHours>(2500.0);
    r.mission.capacityHiMah = Quantity<MilliampHours>(5000.0);
    r.mission.capacityStepMah = Quantity<MilliampHours>(1250.0);
    r.mission.activity = FlightActivity::Maneuvering;
    r.mission.payloadG = Quantity<Grams>(75.0);
    frames.push_back(serializeRequest(r));

    r.id = 105;
    r.kind = QueryKind::Explore;
    r.explore.space.base = goldenPoint();
    r.explore.space.axes = {
        explore::wheelbaseAxis(Quantity<Millimeters>(300.0),
                               Quantity<Millimeters>(50.0), 4),
        explore::cellsAxis({3, 5}),
        explore::capacityAxis(Quantity<MilliampHours>(1000.0),
                              Quantity<MilliampHours>(500.0), 5),
        explore::twrAxis(1.5, 0.25, 3),
        explore::boardAxis({goldenBoard("c", BoardClass::Basic)}),
        explore::activityAxis({FlightActivity::Maneuvering}),
        explore::payloadAxis(Quantity<Grams>(10.0),
                             Quantity<Grams>(20.0), 2),
    };
    r.explore.options.sampler = explore::SamplerKind::LatinHypercube;
    r.explore.options.seed = 99;
    r.explore.options.initialSamples = 32;
    r.explore.options.roundEvaluations = 16;
    r.explore.options.maxEvaluations = 200;
    r.explore.options.maxRounds = 9;
    r.explore.options.neighborRadius = 2;
    r.explore.options.bisectBoundary = false;
    frames.push_back(serializeRequest(r));

    r.id = 106;
    r.kind = QueryKind::Risk;
    r.risk.point = goldenPoint();
    r.risk.options.seed = 7;
    r.risk.options.samples = 128;
    r.risk.options.scatterReplicates = 32;
    r.risk.gates = {
        explore::GateSpec{explore::GateMetric::TotalWeightG,
                          explore::GateOp::AtMost, 1500.0, 0.75},
        explore::GateSpec{explore::GateMetric::FlightTimeMin,
                          explore::GateOp::AtLeast, 12.0, 0.5}};
    r.risk.quantiles = {0.1, 0.5};
    frames.push_back(serializeRequest(r));
    return frames;
}

DesignResult
goldenResult(double scale)
{
    DesignResult res;
    res.feasible = true;
    res.inputs = goldenPoint();
    res.totalWeightG = Quantity<Grams>(1200.5 * scale);
    res.basicWeightG = Quantity<Grams>(600.25 * scale);
    res.batteryWeightG = Quantity<Grams>(300.0 * scale);
    res.motor.kv = 920.0;
    res.maxPowerW = Quantity<Watts>(800.0 * scale);
    res.avgPowerW = Quantity<Watts>(150.5 * scale);
    res.usableEnergyWh = Quantity<WattHours>(33.25 * scale);
    res.flightTimeMin = Quantity<Minutes>(14.5 / scale);
    res.computePowerFraction = 0.125;
    return res;
}

DesignResult
goldenInfeasible()
{
    DesignResult res;
    res.inputs = goldenPoint();
    res.infeasibleReason = InfeasibleReason::Diverged;
    return res;
}

codesign::CodesignChoice
goldenChoice(PlatformKind platform, codesign::OffloadSplit split)
{
    codesign::CodesignChoice choice;
    choice.feasible = true;
    choice.config.platform = platform;
    choice.config.split = split;
    choice.config.rateHz = 15.0;
    choice.config.sustainedFps = 31.5;
    choice.config.computePowerW = Quantity<Watts>(4.5);
    choice.config.computeWeightG = Quantity<Grams>(60.0);
    choice.config.boardName = "FPGA/accel_ba/15hz";
    choice.design = goldenResult(1.0);
    return choice;
}

std::vector<std::string>
goldenReplies()
{
    std::vector<std::string> replies;
    replies.push_back(serializeDesignReply(201, goldenResult(1.0)));
    replies.push_back(serializeDesignReply(202, goldenInfeasible()));

    const std::vector<DesignResult> points = {
        goldenResult(1.0), goldenInfeasible(), goldenResult(2.0)};
    replies.push_back(serializeSweepReply(203, points, 2, {0, 2}));
    replies.push_back(serializeParetoReply(204, points, {0, 2}));

    codesign::CodesignOutcome outcome;
    outcome.recommended =
        goldenChoice(PlatformKind::Fpga, codesign::OffloadSplit::AccelBa);
    outcome.perPlatform[0] =
        goldenChoice(PlatformKind::RPi, codesign::OffloadSplit::HostOnly);
    outcome.perSplit[2] =
        goldenChoice(PlatformKind::Asic, codesign::OffloadSplit::AccelAll);
    outcome.configCount = 12;
    outcome.gridPoints = 340;
    outcome.bestSustainedFps = {9.5, 22.0, 31.5, 120.0};
    replies.push_back(serializeCodesignReply(205, outcome));

    explore::ExploreResult explored;
    explored.points = points;
    explored.frontier = {0, 2};
    explored.rounds.resize(3);
    explored.spacePoints = 960;
    explored.incumbent = 2;
    explored.converged = true;
    replies.push_back(serializeExploreReply(206, explored));
    explored.frontier.clear();
    explored.incumbent = explored.points.size();
    explored.converged = false;
    replies.push_back(serializeExploreReply(207, explored));

    explore::RiskOutcome risk;
    risk.uncertainty.nominal = goldenResult(1.0);
    risk.uncertainty.samples = 4;
    risk.uncertainty.feasibleSamples = 3;
    risk.uncertainty.flightTimeMin = Ecdf({13.0, 14.5, 16.0});
    risk.uncertainty.totalWeightG = Ecdf({1100.0, 1200.5, 1300.0});
    risk.report.gates = {
        explore::GateOutcome{
            explore::GateSpec{explore::GateMetric::TotalWeightG,
                              explore::GateOp::AtMost, 1500.0, 0.75},
            0.75, true},
        explore::GateOutcome{
            explore::GateSpec{explore::GateMetric::FlightTimeMin,
                              explore::GateOp::AtLeast, 15.0, 0.5},
            0.25, false}};
    risk.report.allPass = false;
    replies.push_back(serializeRiskReply(208, risk, {0.25, 1.0}));
    explore::RiskOutcome none;
    none.uncertainty.nominal = goldenInfeasible();
    none.uncertainty.samples = 4;
    replies.push_back(serializeRiskReply(209, none, {0.5}));

    replies.push_back(serializeErrorReply(
        210, ErrorReply{ErrorCode::InvalidRequest, "bad \"cells\""}));
    return replies;
}

// A change to any literal below is a wire-format change.
const char *const kRequestFrames[] = {
    R"({"id": 101, "kind": "design", "class": "batch", )"
    R"("point": {"wheelbase_mm": 330.5, "cells": 4, )"
    R"("capacity_mah": 2200.25, "twr": 2.5, )"
    R"("prop_diameter_in": 8.5, "esc_class": "short_flight", )"
    R"("board": {"name": "TX2 \"dev\"", "class": "improved", )"
    R"("weight_g": 85.5, "power_w": 7.25}, )"
    R"("sensor_weight_g": 12.5, "sensor_power_w": 1.25, )"
    R"("payload_g": 50, "activity": "maneuvering"}})",
    R"({"id": 102, "kind": "sweep", "class": "batch", )"
    R"("spec": {"airframes": [{"wheelbase_mm": 250, )"
    R"("prop_diameter_in": 5}, {"wheelbase_mm": 450, )"
    R"("prop_diameter_in": 0}], "boards": [{"name": "a", )"
    R"("class": "basic", "weight_g": 85.5, "power_w": 7.25}, )"
    R"({"name": "b", "class": "improved", "weight_g": 85.5, )"
    R"("power_w": 7.25}], "activities": ["maneuvering", )"
    R"("hovering"], "cells": [3, 4, 6], "capacity_lo_mah": 1500, )"
    R"("capacity_hi_mah": 4500, "capacity_step_mah": 750, )"
    R"("twr": 2.25, "esc_class": "short_flight", )"
    R"("sensor_weight_g": 30, "sensor_power_w": 2.5, )"
    R"("payload_g": 100}})",
    R"({"id": 103, "kind": "pareto", "class": "batch", )"
    R"("spec": {"airframes": [{"wheelbase_mm": 250, )"
    R"("prop_diameter_in": 5}, {"wheelbase_mm": 450, )"
    R"("prop_diameter_in": 0}], "boards": [{"name": "a", )"
    R"("class": "basic", "weight_g": 85.5, "power_w": 7.25}, )"
    R"({"name": "b", "class": "improved", "weight_g": 85.5, )"
    R"("power_w": 7.25}], "activities": ["maneuvering", )"
    R"("hovering"], "cells": [2], "capacity_lo_mah": 1500, )"
    R"("capacity_hi_mah": 4500, "capacity_step_mah": 750, )"
    R"("twr": 2.25, "esc_class": "short_flight", )"
    R"("sensor_weight_g": 30, "sensor_power_w": 2.5, )"
    R"("payload_g": 100}})",
    R"({"id": 104, "kind": "codesign", "class": "batch", )"
    R"("mission": {"name": "survey", "target_rate_hz": 20, )"
    R"("per_frame_ops": [1500000, 2500000, 350000, 40000000, )"
    R"(500000000], "wheelbases_mm": [350, 550], "cells": [4, 6], )"
    R"("capacity_lo_mah": 2500, "capacity_hi_mah": 5000, )"
    R"("capacity_step_mah": 1250, "activity": "maneuvering", )"
    R"("payload_g": 75}})",
    R"({"id": 105, "kind": "explore", "class": "batch", )"
    R"("space": {"base": {"wheelbase_mm": 330.5, "cells": 4, )"
    R"("capacity_mah": 2200.25, "twr": 2.5, )"
    R"("prop_diameter_in": 8.5, "esc_class": "short_flight", )"
    R"("board": {"name": "TX2 \"dev\"", "class": "improved", )"
    R"("weight_g": 85.5, "power_w": 7.25}, )"
    R"("sensor_weight_g": 12.5, "sensor_power_w": 1.25, )"
    R"("payload_g": 50, "activity": "maneuvering"}, )"
    R"("axes": [{"axis": "wheelbase_mm", "lo": 300, "step": 50, )"
    R"("count": 4}, {"axis": "cells", "values": [3, 5]}, )"
    R"({"axis": "capacity_mah", "lo": 1000, "step": 500, )"
    R"("count": 5}, {"axis": "twr", "lo": 1.5, "step": 0.25, )"
    R"("count": 3}, {"axis": "board", "boards": [{"name": "c", )"
    R"("class": "basic", "weight_g": 85.5, "power_w": 7.25}]}, )"
    R"({"axis": "activity", "values": ["maneuvering"]}, )"
    R"({"axis": "payload_g", "lo": 10, "step": 20, "count": 2}]}, )"
    R"("options": {"sampler": "lhs", "seed": 99, )"
    R"("initial_samples": 32, "round_evaluations": 16, )"
    R"("max_evaluations": 200, "max_rounds": 9, )"
    R"("neighbor_radius": 2, "bisect_boundary": false}})",
    R"({"id": 106, "kind": "risk", "class": "batch", )"
    R"("point": {"wheelbase_mm": 330.5, "cells": 4, )"
    R"("capacity_mah": 2200.25, "twr": 2.5, )"
    R"("prop_diameter_in": 8.5, "esc_class": "short_flight", )"
    R"("board": {"name": "TX2 \"dev\"", "class": "improved", )"
    R"("weight_g": 85.5, "power_w": 7.25}, )"
    R"("sensor_weight_g": 12.5, "sensor_power_w": 1.25, )"
    R"("payload_g": 50, "activity": "maneuvering"}, )"
    R"("options": {"seed": 7, "samples": 128, )"
    R"("scatter_replicates": 32}, )"
    R"("gates": [{"metric": "total_weight_g", "op": "at_most", )"
    R"("threshold": 1500, "min_probability": 0.75}, )"
    R"({"metric": "flight_time_min", "op": "at_least", )"
    R"("threshold": 12, "min_probability": 0.5}], )"
    R"("quantiles": [0.10000000000000001, 0.5]})",
};

const char *const kReplyFrames[] = {
    R"({"id": 201, "ok": true, "kind": "design", )"
    R"("result": {"feasible": true, "total_weight_g": 1200.5, )"
    R"("basic_weight_g": 600.25, "battery_weight_g": 300, )"
    R"("motor_kv": 920, "max_power_w": 800, "avg_power_w": 150.5, )"
    R"("usable_energy_wh": 33.25, "flight_time_min": 14.5, )"
    R"("compute_power_fraction": 0.125}})",
    R"({"id": 202, "ok": true, "kind": "design", )"
    R"("result": {"feasible": false, )"
    R"("reason": "weight closure diverged"}})",
    R"({"id": 203, "ok": true, "kind": "sweep", "grid_points": 3, )"
    R"("feasible_count": 2, "frontier": [0, 2], )"
    R"("results": [{"feasible": true, "total_weight_g": 1200.5, )"
    R"("basic_weight_g": 600.25, "battery_weight_g": 300, )"
    R"("motor_kv": 920, "max_power_w": 800, "avg_power_w": 150.5, )"
    R"("usable_energy_wh": 33.25, "flight_time_min": 14.5, )"
    R"("compute_power_fraction": 0.125}, {"feasible": false, )"
    R"("reason": "weight closure diverged"}, {"feasible": true, )"
    R"("total_weight_g": 2401, "basic_weight_g": 1200.5, )"
    R"("battery_weight_g": 600, "motor_kv": 920, )"
    R"("max_power_w": 1600, "avg_power_w": 301, )"
    R"("usable_energy_wh": 66.5, "flight_time_min": 7.25, )"
    R"("compute_power_fraction": 0.125}]})",
    R"({"id": 204, "ok": true, "kind": "pareto", "grid_points": 3, )"
    R"("frontier": [0, 2], "results": [{"feasible": true, )"
    R"("total_weight_g": 1200.5, "basic_weight_g": 600.25, )"
    R"("battery_weight_g": 300, "motor_kv": 920, )"
    R"("max_power_w": 800, "avg_power_w": 150.5, )"
    R"("usable_energy_wh": 33.25, "flight_time_min": 14.5, )"
    R"("compute_power_fraction": 0.125}, {"feasible": true, )"
    R"("total_weight_g": 2401, "basic_weight_g": 1200.5, )"
    R"("battery_weight_g": 600, "motor_kv": 920, )"
    R"("max_power_w": 1600, "avg_power_w": 301, )"
    R"("usable_energy_wh": 66.5, "flight_time_min": 7.25, )"
    R"("compute_power_fraction": 0.125}]})",
    R"({"id": 205, "ok": true, "kind": "codesign", )"
    R"("config_count": 12, "grid_points": 340, )"
    R"("recommended": {"feasible": true, )"
    R"("board": "FPGA/accel_ba/15hz", "platform": "FPGA", )"
    R"("split": "accel_ba", "rate_hz": 15, "sustained_fps": 31.5, )"
    R"("compute_power_w": 4.5, "compute_weight_g": 60, )"
    R"("wheelbase_mm": 330.5, "cells": 4, "capacity_mah": 2200.25, )"
    R"("result": {"feasible": true, "total_weight_g": 1200.5, )"
    R"("basic_weight_g": 600.25, "battery_weight_g": 300, )"
    R"("motor_kv": 920, "max_power_w": 800, "avg_power_w": 150.5, )"
    R"("usable_energy_wh": 33.25, "flight_time_min": 14.5, )"
    R"("compute_power_fraction": 0.125}}, )"
    R"("per_platform": [{"feasible": true, )"
    R"("board": "FPGA/accel_ba/15hz", "platform": "RPi", )"
    R"("split": "host_only", "rate_hz": 15, "sustained_fps": 31.5, )"
    R"("compute_power_w": 4.5, "compute_weight_g": 60, )"
    R"("wheelbase_mm": 330.5, "cells": 4, "capacity_mah": 2200.25, )"
    R"("result": {"feasible": true, "total_weight_g": 1200.5, )"
    R"("basic_weight_g": 600.25, "battery_weight_g": 300, )"
    R"("motor_kv": 920, "max_power_w": 800, "avg_power_w": 150.5, )"
    R"("usable_energy_wh": 33.25, "flight_time_min": 14.5, )"
    R"("compute_power_fraction": 0.125}}, {"feasible": false}, )"
    R"({"feasible": false}, {"feasible": false}], )"
    R"("per_split": [{"feasible": false}, {"feasible": false}, )"
    R"({"feasible": true, "board": "FPGA/accel_ba/15hz", )"
    R"("platform": "ASIC", "split": "accel_all", "rate_hz": 15, )"
    R"("sustained_fps": 31.5, "compute_power_w": 4.5, )"
    R"("compute_weight_g": 60, "wheelbase_mm": 330.5, "cells": 4, )"
    R"("capacity_mah": 2200.25, "result": {"feasible": true, )"
    R"("total_weight_g": 1200.5, "basic_weight_g": 600.25, )"
    R"("battery_weight_g": 300, "motor_kv": 920, )"
    R"("max_power_w": 800, "avg_power_w": 150.5, )"
    R"("usable_energy_wh": 33.25, "flight_time_min": 14.5, )"
    R"("compute_power_fraction": 0.125}}], )"
    R"("best_sustained_fps": [9.5, 22, 31.5, 120]})",
    R"({"id": 206, "ok": true, "kind": "explore", )"
    R"("space_points": 960, "evaluations": 3, "rounds": 3, )"
    R"("converged": true, )"
    R"("frontier": [{"point": {"wheelbase_mm": 330.5, "cells": 4, )"
    R"("capacity_mah": 2200.25, "twr": 2.5, )"
    R"("prop_diameter_in": 8.5, "esc_class": "short_flight", )"
    R"("board": {"name": "TX2 \"dev\"", "class": "improved", )"
    R"("weight_g": 85.5, "power_w": 7.25}, )"
    R"("sensor_weight_g": 12.5, "sensor_power_w": 1.25, )"
    R"("payload_g": 50, "activity": "maneuvering"}, )"
    R"("result": {"feasible": true, "total_weight_g": 1200.5, )"
    R"("basic_weight_g": 600.25, "battery_weight_g": 300, )"
    R"("motor_kv": 920, "max_power_w": 800, "avg_power_w": 150.5, )"
    R"("usable_energy_wh": 33.25, "flight_time_min": 14.5, )"
    R"("compute_power_fraction": 0.125}}, )"
    R"({"point": {"wheelbase_mm": 330.5, "cells": 4, )"
    R"("capacity_mah": 2200.25, "twr": 2.5, )"
    R"("prop_diameter_in": 8.5, "esc_class": "short_flight", )"
    R"("board": {"name": "TX2 \"dev\"", "class": "improved", )"
    R"("weight_g": 85.5, "power_w": 7.25}, )"
    R"("sensor_weight_g": 12.5, "sensor_power_w": 1.25, )"
    R"("payload_g": 50, "activity": "maneuvering"}, )"
    R"("result": {"feasible": true, "total_weight_g": 2401, )"
    R"("basic_weight_g": 1200.5, "battery_weight_g": 600, )"
    R"("motor_kv": 920, "max_power_w": 1600, "avg_power_w": 301, )"
    R"("usable_energy_wh": 66.5, "flight_time_min": 7.25, )"
    R"("compute_power_fraction": 0.125}}], )"
    R"("incumbent": {"point": {"wheelbase_mm": 330.5, "cells": 4, )"
    R"("capacity_mah": 2200.25, "twr": 2.5, )"
    R"("prop_diameter_in": 8.5, "esc_class": "short_flight", )"
    R"("board": {"name": "TX2 \"dev\"", "class": "improved", )"
    R"("weight_g": 85.5, "power_w": 7.25}, )"
    R"("sensor_weight_g": 12.5, "sensor_power_w": 1.25, )"
    R"("payload_g": 50, "activity": "maneuvering"}, )"
    R"("result": {"feasible": true, "total_weight_g": 2401, )"
    R"("basic_weight_g": 1200.5, "battery_weight_g": 600, )"
    R"("motor_kv": 920, "max_power_w": 1600, "avg_power_w": 301, )"
    R"("usable_energy_wh": 66.5, "flight_time_min": 7.25, )"
    R"("compute_power_fraction": 0.125}}})",
    R"({"id": 207, "ok": true, "kind": "explore", )"
    R"("space_points": 960, "evaluations": 3, "rounds": 3, )"
    R"("converged": false, "frontier": [], "incumbent": null})",
    R"({"id": 208, "ok": true, "kind": "risk", )"
    R"("nominal": {"feasible": true, "total_weight_g": 1200.5, )"
    R"("basic_weight_g": 600.25, "battery_weight_g": 300, )"
    R"("motor_kv": 920, "max_power_w": 800, "avg_power_w": 150.5, )"
    R"("usable_energy_wh": 33.25, "flight_time_min": 14.5, )"
    R"("compute_power_fraction": 0.125}, "samples": 4, )"
    R"("feasible_samples": 3, "feasible_fraction": 0.75, )"
    R"("gates": [{"metric": "total_weight_g", "op": "at_most", )"
    R"("threshold": 1500, "min_probability": 0.75, )"
    R"("probability": 0.75, "pass": true}, )"
    R"({"metric": "flight_time_min", "op": "at_least", )"
    R"("threshold": 15, "min_probability": 0.5, )"
    R"("probability": 0.25, "pass": false}], "all_pass": false, )"
    R"("quantiles": [{"q": 0.25, "flight_time_min": 13, )"
    R"("total_weight_g": 1100}, {"q": 1, "flight_time_min": 16, )"
    R"("total_weight_g": 1300}]})",
    R"({"id": 209, "ok": true, "kind": "risk", )"
    R"("nominal": {"feasible": false, )"
    R"("reason": "weight closure diverged"}, "samples": 4, )"
    R"("feasible_samples": 0, "feasible_fraction": 0, "gates": [], )"
    R"("all_pass": true, "quantiles": []})",
    R"({"id": 210, "ok": false, )"
    R"("error": {"code": "invalid_request", )"
    R"("message": "bad \"cells\""}})",
};

} // namespace

TEST(ServeRequest, CanonicalFramesAreByteStable)
{
    const std::vector<std::string> requests = goldenRequests();
    ASSERT_EQ(requests.size(), std::size(kRequestFrames));
    for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(requests[i], kRequestFrames[i]) << "request " << i;
        // The canonical frame is also the parser's fixed point.
        Request parsed;
        ErrorReply err;
        ASSERT_TRUE(parseRequest(requests[i], parsed, err))
            << "request " << i << ": " << err.message;
        EXPECT_EQ(serializeRequest(parsed), kRequestFrames[i])
            << "request " << i;
    }
    const std::vector<std::string> replies = goldenReplies();
    ASSERT_EQ(replies.size(), std::size(kReplyFrames));
    for (std::size_t i = 0; i < replies.size(); ++i)
        EXPECT_EQ(replies[i], kReplyFrames[i]) << "reply " << i;
}
