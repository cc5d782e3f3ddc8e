//===- workloads/WorkloadMix.h - Family mixes and their apps ----*- C++ -*-===//
///
/// \file
/// The one place that turns a --workload mix ("specjvm98:3,serverloop:1")
/// into benchmarks: its grammar, its canonical spelling, and its one
/// expansion into the apps a service serves and a suite-level tool traces.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_WORKLOADS_WORKLOADMIX_H
#define SCHEDFILTER_WORKLOADS_WORKLOADMIX_H

#include "io/ParseResult.h"
#include "workloads/WorkloadFamily.h"

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace schedfilter {

/// A validated --workload mix: (family name, relative weight) in
/// command-line order.  Empty = the flag was absent.
using WorkloadMix = std::vector<std::pair<std::string, double>>;

/// Parses "family[:weight],...".  Weights are optional (default 1) and
/// must be positive finite decimals; family names must be registered and
/// appear at most once.  A failure's ParseError::Line is the 1-based
/// ordinal of the offending item.
ParseResult<WorkloadMix> parseWorkloadMix(std::string_view Spec);

/// Renders a mix back to its canonical spelling ("specjvm98:3,serverloop")
/// for report headers.  A weight of 1 is omitted and any other prints in
/// fixed notation with the fewest decimals that parse back to the same
/// double, so parseWorkloadMix(formatWorkloadMix(M)) == M for every valid
/// mix.
std::string formatWorkloadMix(const WorkloadMix &Mix);

/// One tenant of the stream: a family benchmark plus its share of the
/// interleave (relative; normalized by the service, and irrelevant for a
/// lone app, which owns every tick).
struct AppSpec {
  BenchmarkSpec Spec;
  double Weight = 1.0;
};

/// Expands a validated mix into one AppSpec per benchmark of each family,
/// in mix order then suite order.  A family's weight is split evenly
/// across its benchmarks, so "specjvm98:3,serverloop:1" gives the seven
/// SPECjvm98 apps 3/7 each and the three serverloop apps 1/3 each.  An
/// unregistered family is a caller bug (tools parse first) and aborts.
std::vector<AppSpec> expandWorkloadMix(const WorkloadMix &Mix);

/// The apps' specs in app order: a mix's suite, as the suite-level tools
/// trace and train it.
std::vector<BenchmarkSpec> appSuite(const std::vector<AppSpec> &Apps);

/// The session seed of a mix: a stable hash over every app's identity
/// (family, benchmark name, spec seed, weight).  The interleave and the
/// per-app substreams all derive from it, so the mix *is* the stream --
/// same mix, same traffic, in any tool at any parallelism.
uint64_t workloadMixSeed(const std::vector<AppSpec> &Apps);

/// Generates every app's program through its registered family, in app
/// order (apps are independent; order is presentation only).
std::vector<Program> generateMixPrograms(const std::vector<AppSpec> &Apps);

} // namespace schedfilter

#endif // SCHEDFILTER_WORKLOADS_WORKLOADMIX_H
