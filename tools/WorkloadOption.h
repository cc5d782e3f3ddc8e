//===- tools/WorkloadOption.h - Shared workload selection -------*- C++ -*-===//
///
/// \file
/// One place for the sf-* tools and bench drivers to resolve the workload
/// surface: --workload family[:weight],... mixes, --benchmark lookups,
/// and the --list body -- all answered from the WorkloadRegistry, so a
/// newly registered family shows up in every tool without touching any
/// of them.  Validation is strict in the JobsOption style: a mistyped
/// family or weight prints a diagnostic naming what is accepted and
/// returns nullopt; nothing ever silently falls back.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_TOOLS_WORKLOADOPTION_H
#define SCHEDFILTER_TOOLS_WORKLOADOPTION_H

#include "support/CommandLine.h"
#include "workloads/WorkloadFamily.h"

#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace schedfilter {

/// A validated --workload mix: (family name, relative weight) in
/// command-line order.  Empty = the flag was absent.
using WorkloadMix = std::vector<std::pair<std::string, double>>;

/// Every registered family name, comma-joined in registry order -- the
/// "known: ..." tail of the selection diagnostics.
inline std::string knownFamilyNames() {
  std::string Out;
  for (const WorkloadFamily *F : WorkloadRegistry::instance().families()) {
    if (!Out.empty())
      Out += ", ";
    Out += F->name();
  }
  return Out;
}

/// Parses --workload family[:weight],... (e.g. "specjvm98:3,serverloop:1").
/// Weights are optional (default 1) and must be positive finite decimals;
/// family names must be registered and appear at most once.  Returns the
/// empty mix when the flag is absent, nullopt after a printed diagnostic
/// for any invalid spelling.
inline std::optional<WorkloadMix> parseWorkloadOption(const CommandLine &CL) {
  WorkloadMix Mix;
  if (!CL.has("workload"))
    return Mix;
  const std::string Value = CL.get("workload");

  std::vector<std::string> Items;
  size_t Start = 0;
  while (true) {
    size_t Comma = Value.find(',', Start);
    Items.push_back(Value.substr(Start, Comma - Start));
    if (Comma == std::string::npos)
      break;
    Start = Comma + 1;
  }

  for (const std::string &Item : Items) {
    if (Item.empty()) {
      std::cerr << "error: --workload has an empty item (got '" << Value
                << "')\n";
      return std::nullopt;
    }
    std::string Name = Item;
    double Weight = 1.0;
    size_t Colon = Item.find(':');
    if (Colon != std::string::npos) {
      Name = Item.substr(0, Colon);
      std::string W = Item.substr(Colon + 1);
      std::optional<double> V = parseDecimal(W);
      if (!V || !std::isfinite(*V) || *V <= 0.0) {
        std::cerr << "error: --workload weight for '" << Name
                  << "' expects a positive number (got '" << W << "')\n";
        return std::nullopt;
      }
      Weight = *V;
    }
    if (!findWorkloadFamily(Name)) {
      std::cerr << "error: unknown family: got '" << Name
                << "', known: " << knownFamilyNames() << '\n';
      return std::nullopt;
    }
    for (const auto &Seen : Mix)
      if (Seen.first == Name) {
        std::cerr << "error: --workload names family '" << Name
                  << "' twice (got '" << Value << "')\n";
        return std::nullopt;
      }
    Mix.emplace_back(Name, Weight);
  }
  return Mix;
}

/// Every benchmark of every family in \p Mix, concatenated in mix order
/// then suite order -- the deterministic expansion the suite-level tools
/// (trace, train) iterate.
inline std::vector<BenchmarkSpec> workloadMixSuite(const WorkloadMix &Mix) {
  std::vector<BenchmarkSpec> Suite;
  for (const auto &Item : Mix) {
    const WorkloadFamily *F = findWorkloadFamily(Item.first);
    for (BenchmarkSpec &S : F->makeBenchmarkSuite())
      Suite.push_back(std::move(S));
  }
  return Suite;
}

/// The resolved --benchmark flag: Present says whether it was given at
/// all; Spec is non-null exactly when it named a registered benchmark.
struct BenchmarkSelection {
  bool Present = false;
  const BenchmarkSpec *Spec = nullptr;
};

/// Resolves --benchmark NAME against every registered family's suite.
/// Absent flag -> {Present = false}; unknown name -> nullopt after the
/// shared "unknown benchmark '...' (try --list)" diagnostic.
inline std::optional<BenchmarkSelection>
parseBenchmarkOption(const CommandLine &CL) {
  BenchmarkSelection Sel;
  if (!CL.has("benchmark"))
    return Sel;
  Sel.Present = true;
  std::string Name = CL.get("benchmark");
  Sel.Spec = findBenchmarkSpec(Name);
  if (!Sel.Spec) {
    std::cerr << "error: unknown benchmark '" << Name << "' (try --list)\n";
    return std::nullopt;
  }
  return Sel;
}

/// The shared --list body: one line per registered benchmark
/// (name, family, description), in registry then suite order.
inline void printWorkloadList(std::ostream &OS) {
  for (const WorkloadFamily *F : WorkloadRegistry::instance().families())
    for (const BenchmarkSpec &S : F->makeBenchmarkSuite())
      OS << S.Name << "\t" << F->name() << "\t" << S.Description << '\n';
}

/// Renders a mix back to its canonical flag spelling
/// ("specjvm98:3,serverloop:1") for report headers.  Integral weights
/// print without a decimal point.
inline std::string formatWorkloadMix(const WorkloadMix &Mix) {
  std::string Out;
  for (const auto &Item : Mix) {
    if (!Out.empty())
      Out += ",";
    Out += Item.first;
    if (Item.second != 1.0) {
      Out += ":";
      double W = Item.second;
      if (W == static_cast<double>(static_cast<uint64_t>(W))) {
        Out += std::to_string(static_cast<uint64_t>(W));
      } else {
        std::string S = std::to_string(W); // fixed six decimals
        while (!S.empty() && S.back() == '0')
          S.pop_back();
        if (!S.empty() && S.back() == '.')
          S.pop_back();
        Out += S;
      }
    }
  }
  return Out;
}

} // namespace schedfilter

#endif // SCHEDFILTER_TOOLS_WORKLOADOPTION_H
