//===- tools/JobsOption.h - Shared numeric flag handling --------*- C++ -*-===//
///
/// \file
/// One place for the sf-* tools and bench drivers to resolve strict
/// numeric flags -- --jobs, sf-serve's service knobs and --threshold --
/// so the validation and the error message cannot drift between them.  The
/// engine guarantees results are bit-for-bit identical at any accepted
/// --jobs value (see harness/ParallelExperiments.h), so --jobs is purely
/// a wall-clock knob.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_TOOLS_JOBSOPTION_H
#define SCHEDFILTER_TOOLS_JOBSOPTION_H

#include "support/CommandLine.h"

#include <cstdint>
#include <iostream>
#include <optional>

namespace schedfilter {

/// Resolves the decimal-integer flag --\p Name in [\p Min, \p Max]:
/// \p Default when absent, the validated value otherwise.  Anything else
/// -- an empty value, negatives, trailing junk, out-of-range counts --
/// prints an error naming the accepted range and returns nullopt so the
/// caller can exit non-zero (a mistyped knob must never silently fall
/// back to its default).
inline std::optional<uint64_t> parseCountOption(const CommandLine &CL,
                                                const char *Name,
                                                uint64_t Default,
                                                uint64_t Min, uint64_t Max) {
  if (!CL.has(Name))
    return Default;
  std::string Value = CL.get(Name);
  bool Valid = !Value.empty();
  uint64_t V = 0;
  for (char C : Value) {
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (C < '0' || C > '9' || V > (Max - Digit) / 10) {
      Valid = false;
      break;
    }
    V = V * 10 + Digit;
  }
  if (!Valid || V < Min || V > Max) {
    std::cerr << "error: --" << Name << " expects an integer in [" << Min
              << ", " << Max << "] (got '" << Value << "')\n";
    return std::nullopt;
  }
  return V;
}

/// Resolves --threshold, the labeling threshold: a percentage in
/// [0, 100], \p Default when absent.  A malformed or out-of-range value
/// prints an error and returns nullopt.
inline std::optional<double> parseThresholdOption(const CommandLine &CL,
                                                  double Default = 0.0) {
  std::optional<double> V = CL.getDouble("threshold", Default);
  if (V && !(*V >= 0.0 && *V <= 100.0)) {
    std::cerr << "error: --threshold expects a percentage in [0, 100] "
                 "(got '" << CL.get("threshold") << "')\n";
    return std::nullopt;
  }
  return V;
}

/// Resolves --jobs (default 1).  Accepts only a decimal integer in
/// [1, 4096] (the cap bounds thread explosions and guards overflow).
inline std::optional<unsigned> parseJobsOption(const CommandLine &CL) {
  std::optional<uint64_t> Jobs = parseCountOption(CL, "jobs", 1, 1, 4096);
  if (!Jobs)
    return std::nullopt;
  return static_cast<unsigned>(*Jobs);
}

} // namespace schedfilter

#endif // SCHEDFILTER_TOOLS_JOBSOPTION_H
