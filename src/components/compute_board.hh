/**
 * @file
 * Flight controllers and companion compute boards (paper Table 4).
 *
 * The paper splits controllers into basic boards (inner-loop only,
 * STM32F-class) and improved boards (customizable inner loop plus
 * outer-loop capability).  In the footprint analysis these are
 * abstracted to two power levels: a 3 W chip (basic) and a 20 W chip
 * (advanced CPU/GPU system).
 */

#ifndef DRONEDSE_COMPONENTS_COMPUTE_BOARD_HH
#define DRONEDSE_COMPONENTS_COMPUTE_BOARD_HH

#include <string>
#include <vector>

#include "util/enum_names.hh"

namespace dronedse {

/** Capability class of a compute board (paper Table 4 grouping). */
enum class BoardClass
{
    /** Inner-loop only, limited outer-loop capability. */
    Basic,
    /** Customizable inner loop plus outer-loop functions. */
    Improved,
};

/** Wire spellings (util/enum_names.hh). */
constexpr std::array<EnumName<BoardClass>, 2>
wireNames(BoardClass)
{
    return {{{BoardClass::Basic, "basic"},
             {BoardClass::Improved, "improved"}}};
}

/** One flight controller or companion computer. */
struct ComputeBoardRecord
{
    std::string name;
    BoardClass boardClass = BoardClass::Basic;
    /** Board weight (g). */
    double weightG = 0.0;
    /** Typical power draw (W). */
    double powerW = 0.0;
};

/** The Table 4 flight controller / compute board database. */
const std::vector<ComputeBoardRecord> &computeBoardTable();

/** Look up a board by name; fatal() if absent. */
const ComputeBoardRecord &findComputeBoard(const std::string &name);

/**
 * The paper's abstract "3 W chip" representing a commercial
 * ultra-low-power flight controller (Section 3.1).
 */
ComputeBoardRecord basicChip3W();

/**
 * The paper's abstract "20 W chip" representing a CPU-GPU system
 * with much higher capability (Section 3.1).
 */
ComputeBoardRecord advancedChip20W();

} // namespace dronedse

#endif // DRONEDSE_COMPONENTS_COMPUTE_BOARD_HH
