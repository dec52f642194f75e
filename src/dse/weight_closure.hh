/**
 * @file
 * The design-point solver: Equations 1-6 of the paper.
 *
 * Component weights depend on the thrust requirement, which depends
 * on total weight, which includes those components — so the solver
 * iterates the weight closure to a fixed point ("if the additional
 * weights necessitate a new motor, we redo the previous steps",
 * Section 3.2), then evaluates power, energy, flight time, and the
 * computation footprint.
 *
 * The component-survey fits enter as a `SurveyModel`, so the nominal
 * solve and the perturbed solves of the uncertainty layer run the
 * same closure.  The batch kernel (batch_solve.hh) shares its setup
 * and finish steps too; only the fixed-point loop exists twice.
 */

#ifndef DRONEDSE_DSE_WEIGHT_CLOSURE_HH
#define DRONEDSE_DSE_WEIGHT_CLOSURE_HH

#include <array>

#include "dse/design_point.hh"
#include "util/regression.hh"

namespace dronedse {

/**
 * Kv above which the paper marks "extremely high Kv" requirements
 * (Figure 9a annotates 25000Kv for 2" props on light packs).
 */
inline constexpr double kExtremeKvThreshold = 20000.0;

/**
 * Support-hardware weight (wiring, PDB, RC receiver, mounts) as a
 * function of frame weight; anchored to the paper's 450 mm drone
 * (Figure 14: ~60 g of wiring/misc on a 272 g frame).
 */
Quantity<Grams> wiringWeightG(Quantity<Grams> frame_weight);

/** Every survey-fit coefficient the design solver consumes. */
struct SurveyModel
{
    /** Capacity -> pack weight, indexed by cells - 1 (Figure 7). */
    std::array<LinearFit, 6> batteryFits;
    /** Current -> 4x-ESC weight, indexed by EscClass (Figure 8a). */
    std::array<LinearFit, 2> escFits;
    /** Wheelbase -> frame weight above 200 mm (Figure 8b). */
    LinearFit frameFit;

    /** The published coefficient set, built once. */
    static const SurveyModel &paper();
};

/**
 * Resolve a design point: close the weight loop (Equations 1-2),
 * then evaluate average power (Equation 3), usable energy
 * (Equation 4), flight time (Equation 5), and the compute power
 * fraction (Equation 6).  The one-argument form uses
 * `SurveyModel::paper()`.
 *
 * Always returns; check DesignResult::feasible.
 */
DesignResult solveDesign(const DesignInputs &inputs,
                         const SurveyModel &model);
DesignResult solveDesign(const DesignInputs &inputs);

/** What the Equation 1/2 fixed point reads besides the total. */
struct ClosureSetup
{
    Quantity<Inches> prop{};
    Quantity<Volts> voltage{};
    /** Weight that does not depend on the thrust requirement. */
    Quantity<Grams> fixedWeight{};
    /** ESC fit of the design's class. */
    LinearFit escFit;
};

/** Where the Equation 1/2 fixed point stopped. */
struct WeightLoop
{
    /** Motor matched at the last iteration. */
    MotorRecord motor;
    Quantity<Grams> totalWeight{};
    bool converged = false;
};

/**
 * The closure's steps, shared by `solveDesign` and the batch
 * kernel.  `setupClosure` overwrites `res`, validates the inputs and
 * fills the thrust-independent weights; it returns false when `res`
 * is already final (infeasible).
 */
bool setupClosure(const DesignInputs &inputs, const SurveyModel &model,
                  DesignResult &res, ClosureSetup &setup);

/**
 * The scalar Equation 1/2 fixed point: motor and ESC weights depend
 * on the thrust requirement, which depends on total weight.  The
 * batch kernel's SoA loop is held bit for bit to this one.
 */
WeightLoop closeWeightLoop(const ClosureSetup &setup, double twr);

/** Equations 3-6 and the C-rating check on a finished loop. */
void finishClosure(const DesignInputs &inputs, const ClosureSetup &setup,
                   const WeightLoop &loop, DesignResult &res);

} // namespace dronedse

#endif // DRONEDSE_DSE_WEIGHT_CLOSURE_HH
