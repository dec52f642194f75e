/**
 * @file
 * Quadcopter frame records and weight model (paper Figure 8b).
 *
 * The paper surveys 25 commercial frames and fits weight against
 * wheelbase: y = 1.2767x - 167.6 for wheelbases above 200 mm, with
 * small frames occupying a 50-200 g band below that.  The wheelbase
 * also caps the propeller diameter a drone can swing.
 */

#ifndef DRONEDSE_COMPONENTS_FRAME_HH
#define DRONEDSE_COMPONENTS_FRAME_HH

#include <string>
#include <vector>

#include "util/quantity.hh"
#include "util/regression.hh"
#include "util/rng.hh"

namespace dronedse {

/** One commercial quadcopter frame. */
struct FrameRecord
{
    std::string name;
    /** Diagonal motor-to-motor distance (mm). */
    double wheelbaseMm = 0.0;
    /** Frame weight (g). */
    double weightG = 0.0;
};

/** Published wheelbase -> weight fit for frames above 200 mm. */
LinearFit paperFrameFit();

/**
 * Frame weight at a given wheelbase: `fit` above 200 mm, a linear
 * ramp through the paper's 50-200 g band below it.
 */
Quantity<Grams> frameWeightG(const LinearFit &fit,
                             Quantity<Millimeters> wheelbase);

/** `frameWeightG` at the published fit. */
Quantity<Grams> frameWeightG(Quantity<Millimeters> wheelbase);

/**
 * Largest propeller diameter a frame of the given wheelbase can
 * swing.  Matches the Figure 9 pairings: 50 mm -> 1", 100 mm ->
 * 2", 200 mm -> 5", 450 mm -> 10", 800 mm -> 20".
 */
Quantity<Inches> maxPropDiameterIn(Quantity<Millimeters> wheelbase);

/**
 * Synthesize a catalog of ~25 frames, including the named frames in
 * Figure 8b (220 Martian II, Crazepony F450, Readytosky S500,
 * iFlight BumbleBee, Tarot T960).
 */
std::vector<FrameRecord> generateFrameCatalog(Rng &rng, int extra = 20);

/** Re-fit wheelbase vs weight from catalog frames above 200 mm. */
LinearFit fitFrameCatalog(const std::vector<FrameRecord> &catalog);

} // namespace dronedse

#endif // DRONEDSE_COMPONENTS_FRAME_HH
