//===- support/StringUtils.h - Formatting helpers --------------*- C++ -*-===//
///
/// \file
/// Tiny string helpers shared by the table renderers, rule printers and
/// text parsers.  Kept deliberately minimal: fixed precision doubles,
/// padding, percentage and hex formatting, and the one decimal grammar.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SUPPORT_STRINGUTILS_H
#define SCHEDFILTER_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace schedfilter {

/// Formats \p Value with exactly \p Decimals digits after the point.
std::string formatDouble(double Value, int Decimals);

/// Left-pads \p S with spaces to width \p Width (no-op if already wider).
std::string padLeft(const std::string &S, size_t Width);

/// Right-pads \p S with spaces to width \p Width (no-op if already wider).
std::string padRight(const std::string &S, size_t Width);

/// Formats a fraction as a percent string, e.g. 0.379 -> "37.9%".
std::string formatPercent(double Fraction, int Decimals = 1);

/// Formats \p Value with up to six significant digits and no trailing
/// zeros, e.g. 0.1 -> "0.1", 2 -> "2".  Used for canonical parameter
/// spellings that must round-trip through strtod.
std::string formatTrimmed(double Value);

/// Formats \p V as exactly 16 lowercase hex digits, e.g. 255 ->
/// "00000000000000ff".
std::string formatHex64(uint64_t V);

/// The one grammar for decimals written as text (flags, spec fragments,
/// rules files, CSV cells): strtod's decimal forms ("7", "+0.5", "40.",
/// "1e2", "nan", "inf"), consuming the whole of \p S.  An empty token,
/// leading whitespace, a hex spelling and trailing junk are nullopt.  The
/// value may be NaN or infinite (including overflow such as "1e999"), so
/// each caller checks finiteness and range itself.
std::optional<double> parseDecimal(std::string_view S);

} // namespace schedfilter

#endif // SCHEDFILTER_SUPPORT_STRINGUTILS_H
