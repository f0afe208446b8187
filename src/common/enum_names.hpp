/**
 * @file
 * Name tables for the configuration enums (DESIGN.md "Config-field
 * table"). Each enum that is both printed and parsed declares one
 * table of (value, name) rows beside it, as an `enumNames(E)` overload
 * found by argument-dependent lookup. Records, describe(), the flag
 * and grid-axis parsers, --help and the LAPSES_* variables all read
 * those rows through the three helpers below, so a new value costs
 * one row.
 */

#ifndef LAPSES_COMMON_ENUM_NAMES_HPP
#define LAPSES_COMMON_ENUM_NAMES_HPP

#include <array>
#include <string>

#include "common/assert.hpp"

namespace lapses
{

/** One row of an enum's name table. */
template <typename E>
struct EnumName
{
    E value;
    const char* name;
};

/** `value`'s name; "?" for a value its table has no row for. */
template <typename E>
std::string
enumName(E value)
{
    for (const EnumName<E>& row : enumNames(value)) {
        if (row.value == value)
            return row.name;
    }
    return "?";
}

/** Every name of E in row order, '|'-separated. */
template <typename E>
std::string
enumNameList()
{
    std::string list;
    for (const EnumName<E>& row : enumNames(E{}))
        list += std::string(list.empty() ? "" : "|") + row.name;
    return list;
}

/** The value named `token`. Otherwise ConfigError names `what` (the
 *  flag, grid axis or environment variable), the token and every
 *  accepted name. Names are case-sensitive. */
template <typename E>
E
parseEnum(const std::string& what, const std::string& token)
{
    for (const EnumName<E>& row : enumNames(E{})) {
        if (token == row.name)
            return row.value;
    }
    throw ConfigError("bad " + what + " value '" + token + "' (want " +
                      enumNameList<E>() + ")");
}

} // namespace lapses

#endif // LAPSES_COMMON_ENUM_NAMES_HPP
