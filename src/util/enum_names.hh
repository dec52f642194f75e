/**
 * @file
 * One `{value, "spelling"}` table per wire enum, read both ways.
 *
 * Every enum that crosses a text boundary (the serve protocol, CLI
 * flags, CSV columns) declares a `wireNames(E)` overload next to
 * itself that returns its table; `enumName` and `parseEnum` find it
 * by argument-dependent lookup.  An enum's spellings therefore exist
 * in exactly one place.
 */

#ifndef DRONEDSE_UTIL_ENUM_NAMES_HH
#define DRONEDSE_UTIL_ENUM_NAMES_HH

#include <array>
#include <string_view>

#include "util/logging.hh"

namespace dronedse {

/** One row of a wire table. */
template <class E>
struct EnumName
{
    E value;
    const char *name;
};

/** The spelling of `value`; panic() when its table lacks it. */
template <class E>
const char *
enumName(E value)
{
    for (const EnumName<E> &row : wireNames(value)) {
        if (row.value == value)
            return row.name;
    }
    panic("enumName: value missing from its wire table");
}

/** The value spelled `name`; false (`out` untouched) when unknown. */
template <class E>
bool
parseEnum(std::string_view name, E &out)
{
    for (const EnumName<E> &row : wireNames(out)) {
        if (name == row.name) {
            out = row.value;
            return true;
        }
    }
    return false;
}

} // namespace dronedse

#endif // DRONEDSE_UTIL_ENUM_NAMES_HH
