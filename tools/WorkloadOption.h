//===- tools/WorkloadOption.h - Shared workload selection -------*- C++ -*-===//
///
/// \file
/// The flag glue between the sf-* tools and bench drivers and the
/// workload catalog (workloads/WorkloadMix.h): --workload mixes,
/// --benchmark lookups, --suite families, and the --list body.  Every
/// name is resolved by the catalog, so a newly registered family shows up
/// in every tool without touching any of them.  A mistyped name or weight
/// prints a diagnostic naming what is accepted and returns nullopt (or
/// null); nothing ever silently falls back.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_TOOLS_WORKLOADOPTION_H
#define SCHEDFILTER_TOOLS_WORKLOADOPTION_H

#include "support/CommandLine.h"
#include "workloads/WorkloadMix.h"

#include <iostream>
#include <optional>
#include <string>
#include <vector>

namespace schedfilter {

/// Resolves --workload family[:weight],... through parseWorkloadMix.
/// Returns the empty mix when the flag is absent, nullopt after a printed
/// diagnostic for any invalid spelling.
inline std::optional<WorkloadMix> parseWorkloadOption(const CommandLine &CL) {
  if (!CL.has("workload"))
    return WorkloadMix();
  ParseResult<WorkloadMix> Mix = parseWorkloadMix(CL.get("workload"));
  if (!Mix) {
    std::cerr << "error: " << Mix.error().Message << '\n';
    return std::nullopt;
  }
  return std::move(*Mix);
}

/// Resolves --benchmark NAME against the catalog.  Absent flag ->
/// nullptr; unknown name -> nullopt after the shared "unknown benchmark
/// '...' (try --list)" diagnostic.
inline std::optional<const BenchmarkSpec *>
parseBenchmarkOption(const CommandLine &CL) {
  if (!CL.has("benchmark"))
    return nullptr;
  std::string Name = CL.get("benchmark");
  const BenchmarkSpec *Spec = findBenchmarkSpec(Name);
  if (!Spec) {
    std::cerr << "error: unknown benchmark '" << Name << "' (try --list)\n";
    return std::nullopt;
  }
  return Spec;
}

/// What a tool that takes exactly one of --benchmark NAME or --workload
/// MIX serves or traces: the apps (one for a benchmark; the mix's
/// expansion otherwise) and the session name (the benchmark name, or the
/// mix's canonical spelling).
struct WorkloadSelection {
  std::vector<AppSpec> Apps;
  std::string Session;
  bool IsMix = false;
};

/// Resolves --benchmark / --workload, exactly one of which must be given.
/// nullopt after a printed diagnostic; giving both or neither also prints
/// \p PrintUsage to stderr.
inline std::optional<WorkloadSelection>
parseWorkloadSelection(const CommandLine &CL,
                       void (*PrintUsage)(std::ostream &)) {
  std::optional<const BenchmarkSpec *> Bench = parseBenchmarkOption(CL);
  if (!Bench)
    return std::nullopt;
  std::optional<WorkloadMix> Mix = parseWorkloadOption(CL);
  if (!Mix)
    return std::nullopt;
  const BenchmarkSpec *Spec = *Bench;
  if ((Spec == nullptr) == Mix->empty()) {
    std::cerr << "error: give exactly one of --benchmark or --workload\n";
    PrintUsage(std::cerr);
    return std::nullopt;
  }
  if (Spec)
    return WorkloadSelection{{{*Spec}}, Spec->Name, false};
  return WorkloadSelection{expandWorkloadMix(*Mix), formatWorkloadMix(*Mix),
                           true};
}

/// Resolves --suite FAMILY, \p Default when absent.  Returns null after
/// the shared "unknown suite: got '...', known: ..." diagnostic.
inline const WorkloadFamily *parseSuiteOption(const CommandLine &CL,
                                              const std::string &Default) {
  std::string Name = CL.get("suite", Default);
  const WorkloadFamily *F = findWorkloadFamily(Name);
  if (!F)
    std::cerr << "error: unknown suite: got '" << Name
              << "', known: " << knownFamilyNames() << '\n';
  return F;
}

/// The shared --list body: one line per registered benchmark
/// (name, family, description), in registry then suite order.
inline void printWorkloadList(std::ostream &OS) {
  for (const BenchmarkSpec &S : WorkloadRegistry::instance().benchmarks())
    OS << S.Name << "\t" << S.Family << "\t" << S.Description << '\n';
}

} // namespace schedfilter

#endif // SCHEDFILTER_TOOLS_WORKLOADOPTION_H
