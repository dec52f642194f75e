/**
 * @file
 * Shared helper of the batch-solver test batteries: assert two
 * `DesignResult`s are *byte*-identical — every double compared by
 * bit pattern (memcmp), not by `==` — which is the contract
 * `solveDesignBatch` makes against the scalar oracle (DESIGN.md §15).
 */

#ifndef DRONEDSE_TESTS_DSE_BATCH_TEST_UTIL_HH
#define DRONEDSE_TESTS_DSE_BATCH_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <cstring>

#include "dse/design_point.hh"

namespace dronedse::batch_test {

inline void
expectSameBits(double scalar, double batch, const char *field)
{
    EXPECT_EQ(std::memcmp(&scalar, &batch, sizeof(double)), 0)
        << field << ": scalar " << scalar << " vs batch " << batch;
}

template <typename U>
inline void
expectSameBits(Quantity<U> scalar, Quantity<U> batch, const char *field)
{
    expectSameBits(scalar.value(), batch.value(), field);
}

/** Every field of the result, including the echoed inputs. */
inline void
expectByteIdentical(const DesignResult &s, const DesignResult &b)
{
    EXPECT_EQ(s.feasible, b.feasible);
    EXPECT_EQ(s.infeasibleReason, b.infeasibleReason);

    expectSameBits(s.inputs.wheelbaseMm, b.inputs.wheelbaseMm,
                   "inputs.wheelbaseMm");
    EXPECT_EQ(s.inputs.cells, b.inputs.cells);
    expectSameBits(s.inputs.capacityMah, b.inputs.capacityMah,
                   "inputs.capacityMah");
    expectSameBits(s.inputs.twr, b.inputs.twr, "inputs.twr");
    expectSameBits(s.inputs.propDiameterIn, b.inputs.propDiameterIn,
                   "inputs.propDiameterIn");
    EXPECT_EQ(s.inputs.escClass, b.inputs.escClass);
    EXPECT_EQ(s.inputs.compute.name, b.inputs.compute.name);
    EXPECT_EQ(s.inputs.compute.boardClass, b.inputs.compute.boardClass);
    expectSameBits(s.inputs.compute.weightG, b.inputs.compute.weightG,
                   "inputs.compute.weightG");
    expectSameBits(s.inputs.compute.powerW, b.inputs.compute.powerW,
                   "inputs.compute.powerW");
    expectSameBits(s.inputs.sensorWeightG, b.inputs.sensorWeightG,
                   "inputs.sensorWeightG");
    expectSameBits(s.inputs.sensorPowerW, b.inputs.sensorPowerW,
                   "inputs.sensorPowerW");
    expectSameBits(s.inputs.payloadG, b.inputs.payloadG,
                   "inputs.payloadG");
    EXPECT_EQ(s.inputs.activity, b.inputs.activity);

    expectSameBits(s.totalWeightG, b.totalWeightG, "totalWeightG");
    expectSameBits(s.basicWeightG, b.basicWeightG, "basicWeightG");
    expectSameBits(s.frameWeightG, b.frameWeightG, "frameWeightG");
    expectSameBits(s.batteryWeightG, b.batteryWeightG, "batteryWeightG");
    expectSameBits(s.motorSetWeightG, b.motorSetWeightG,
                   "motorSetWeightG");
    expectSameBits(s.escSetWeightG, b.escSetWeightG, "escSetWeightG");
    expectSameBits(s.propSetWeightG, b.propSetWeightG, "propSetWeightG");
    expectSameBits(s.wiringWeightG, b.wiringWeightG, "wiringWeightG");

    expectSameBits(s.motor.kv, b.motor.kv, "motor.kv");
    expectSameBits(s.motor.weightG, b.motor.weightG, "motor.weightG");
    expectSameBits(s.motor.maxCurrentA, b.motor.maxCurrentA,
                   "motor.maxCurrentA");
    expectSameBits(s.motor.maxThrustG, b.motor.maxThrustG,
                   "motor.maxThrustG");
    expectSameBits(s.motor.propDiameterIn, b.motor.propDiameterIn,
                   "motor.propDiameterIn");
    expectSameBits(s.motorMaxCurrentA, b.motorMaxCurrentA,
                   "motorMaxCurrentA");
    EXPECT_EQ(s.extremeKv, b.extremeKv);

    expectSameBits(s.maxPowerW, b.maxPowerW, "maxPowerW");
    expectSameBits(s.propulsionPowerW, b.propulsionPowerW,
                   "propulsionPowerW");
    expectSameBits(s.computePowerW, b.computePowerW, "computePowerW");
    expectSameBits(s.sensorPowerW, b.sensorPowerW, "sensorPowerW");
    expectSameBits(s.avgPowerW, b.avgPowerW, "avgPowerW");
    expectSameBits(s.usableEnergyWh, b.usableEnergyWh, "usableEnergyWh");
    expectSameBits(s.flightTimeMin, b.flightTimeMin, "flightTimeMin");
    expectSameBits(s.computePowerFraction, b.computePowerFraction,
                   "computePowerFraction");
}

} // namespace dronedse::batch_test

#endif // DRONEDSE_TESTS_DSE_BATCH_TEST_UTIL_HH
