#include "fleet/mission_spec.hh"

#include "util/logging.hh"

namespace dronedse::fleet {

namespace {

MissionStage
takeoff(double altitude_m, double speed_mps = 1.0)
{
    MissionStage s;
    s.kind = StageKind::Takeoff;
    s.altitudeM = altitude_m;
    s.speedMps = speed_mps;
    return s;
}

MissionStage
navigate(double distance_m, double speed_mps)
{
    MissionStage s;
    s.kind = StageKind::Navigate;
    s.distanceM = distance_m;
    s.speedMps = speed_mps;
    return s;
}

MissionStage
search(int legs, double leg_length_m, double speed_mps)
{
    MissionStage s;
    s.kind = StageKind::Search;
    s.legs = legs;
    s.legLengthM = leg_length_m;
    s.speedMps = speed_mps;
    return s;
}

MissionStage
homeward(double distance_m, double speed_mps,
         double descent_mps = 0.5)
{
    MissionStage s;
    s.kind = StageKind::Return;
    s.distanceM = distance_m;
    s.speedMps = speed_mps;
    s.descentMps = descent_mps;
    return s;
}

std::vector<MissionSpec>
buildCatalog()
{
    std::vector<MissionSpec> list;

    list.push_back({"survey",
                    "takeoff, short transit, 4-leg survey square, "
                    "return home and land",
                    {takeoff(3.0), navigate(20.0, 3.0),
                     search(4, 12.0, 2.0), homeward(25.0, 3.0)}});

    list.push_back({"delivery",
                    "takeoff, long fast transit out and back: the "
                    "energy-bound leg mix",
                    {takeoff(5.0, 1.5), navigate(120.0, 6.0),
                     homeward(120.0, 6.0)}});

    list.push_back({"search_rescue",
                    "takeoff, transit, 8-leg wide-area search at low "
                    "speed: the perception-bound leg mix",
                    {takeoff(4.0), navigate(40.0, 4.0),
                     search(8, 18.0, 1.5), homeward(45.0, 4.0)}});

    list.push_back({"perimeter",
                    "takeoff, four navigate legs around a site "
                    "perimeter, return",
                    {takeoff(3.0), navigate(30.0, 3.5),
                     navigate(30.0, 3.5), navigate(30.0, 3.5),
                     navigate(30.0, 3.5), homeward(8.0, 2.0)}});

    return list;
}

} // namespace

CompiledMission
compileMission(const MissionSpec &spec)
{
    if (spec.stages.empty())
        fatal("compileMission: mission '" + spec.name +
              "' has no stages");

    CompiledMission out;
    auto add_leg = [&](StageKind stage, double length_m,
                       double speed_mps, double climb_m) {
        if (length_m <= 0.0 || speed_mps <= 0.0)
            fatal("compileMission: mission '" + spec.name +
                  "' has a non-positive leg length or speed");
        CompiledLeg leg;
        leg.stage = stage;
        leg.lengthM = length_m;
        leg.speedMps = speed_mps;
        leg.climbM = climb_m;
        out.legs.push_back(leg);
        out.totalLengthM += length_m;
        out.cumulativeM.push_back(out.totalLengthM);
    };

    double altitude_m = 0.0;
    for (const MissionStage &stage : spec.stages) {
        switch (stage.kind) {
        case StageKind::Takeoff:
            if (stage.altitudeM <= altitude_m)
                fatal("compileMission: mission '" + spec.name +
                      "' takeoff must climb above current altitude");
            add_leg(StageKind::Takeoff, stage.altitudeM - altitude_m,
                    stage.speedMps, stage.altitudeM - altitude_m);
            altitude_m = stage.altitudeM;
            break;
        case StageKind::Navigate:
            add_leg(StageKind::Navigate, stage.distanceM,
                    stage.speedMps, 0.0);
            break;
        case StageKind::Search:
            if (stage.legs <= 0)
                fatal("compileMission: mission '" + spec.name +
                      "' search stage needs at least one leg");
            for (int i = 0; i < stage.legs; ++i)
                add_leg(StageKind::Search, stage.legLengthM,
                        stage.speedMps, 0.0);
            break;
        case StageKind::Return:
            add_leg(StageKind::Return, stage.distanceM,
                    stage.speedMps, 0.0);
            if (altitude_m > 0.0) {
                add_leg(StageKind::Return, altitude_m,
                        stage.descentMps, -altitude_m);
                altitude_m = 0.0;
            }
            break;
        }
    }
    return out;
}

const std::vector<MissionSpec> &
missionCatalog()
{
    static const std::vector<MissionSpec> catalog = buildCatalog();
    return catalog;
}

const MissionSpec &
findMission(const std::string &name)
{
    for (const auto &m : missionCatalog()) {
        if (m.name == name)
            return m;
    }
    fatal("findMission: no mission named '" + name + "'");
}

} // namespace dronedse::fleet
