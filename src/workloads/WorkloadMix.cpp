//===- workloads/WorkloadMix.cpp - Family mixes and their apps ---------------===//

#include "workloads/WorkloadMix.h"

#include "io/TraceStore.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>

using namespace schedfilter;

ParseResult<WorkloadMix> schedfilter::parseWorkloadMix(std::string_view Spec) {
  const std::string Value(Spec);
  WorkloadMix Mix;
  size_t Start = 0;
  for (size_t Ordinal = 1;; ++Ordinal) {
    size_t Comma = Spec.find(',', Start);
    std::string_view Item = Spec.substr(Start, Comma - Start);
    if (Item.empty())
      return ParseError{Ordinal,
                        "--workload has an empty item (got '" + Value + "')"};
    size_t Colon = Item.find(':');
    std::string Name(Item.substr(0, Colon));
    double Weight = 1.0;
    if (Colon != std::string_view::npos) {
      std::string_view W = Item.substr(Colon + 1);
      std::optional<double> V = parseDecimal(W);
      if (!V || !std::isfinite(*V) || *V <= 0.0)
        return ParseError{Ordinal, "--workload weight for '" + Name +
                                       "' expects a positive number (got '" +
                                       std::string(W) + "')"};
      Weight = *V;
    }
    if (!findWorkloadFamily(Name))
      return ParseError{Ordinal, "unknown family: got '" + Name +
                                     "', known: " + knownFamilyNames()};
    for (const auto &Seen : Mix)
      if (Seen.first == Name)
        return ParseError{Ordinal, "--workload names family '" + Name +
                                       "' twice (got '" + Value + "')"};
    Mix.emplace_back(std::move(Name), Weight);
    if (Comma == std::string_view::npos)
      return Mix;
    Start = Comma + 1;
  }
}

std::string schedfilter::formatWorkloadMix(const WorkloadMix &Mix) {
  std::string Out;
  for (const auto &[Name, Weight] : Mix) {
    if (!Out.empty())
      Out += ",";
    Out += Name;
    if (Weight == 1.0)
      continue;
    // The fewest decimals that parse back to the same double: integral
    // weights print without a decimal point, and "0.1" stays "0.1".  A
    // positive double needs at most 17 significant digits after at most
    // 323 leading zeros.
    char Buf[512];
    for (int Decimals = 0; Decimals <= 345; ++Decimals) {
      std::snprintf(Buf, sizeof(Buf), "%.*f", Decimals, Weight);
      if (parseDecimal(Buf) == Weight)
        break;
    }
    Out += ":";
    Out += Buf;
  }
  return Out;
}

std::vector<AppSpec> schedfilter::expandWorkloadMix(const WorkloadMix &Mix) {
  const WorkloadRegistry &Catalog = WorkloadRegistry::instance();
  const std::string Spelling = formatWorkloadMix(Mix);
  std::vector<AppSpec> Apps;
  for (const auto &[Name, Weight] : Mix) {
    std::vector<BenchmarkSpec> Suite =
        Catalog.require(Name, "workload mix", Spelling).makeBenchmarkSuite();
    double Per = Weight / static_cast<double>(Suite.size());
    for (BenchmarkSpec &S : Suite)
      Apps.push_back({std::move(S), Per});
  }
  return Apps;
}

std::vector<BenchmarkSpec>
schedfilter::appSuite(const std::vector<AppSpec> &Apps) {
  std::vector<BenchmarkSpec> Suite;
  Suite.reserve(Apps.size());
  for (const AppSpec &A : Apps)
    Suite.push_back(A.Spec);
  return Suite;
}

uint64_t schedfilter::workloadMixSeed(const std::vector<AppSpec> &Apps) {
  // Canonical serialization of every app's identity, hashed with the one
  // FNV-1a implementation -- the same stability contract as
  // specFingerprint.  The seed, not the mix string, is what every layer
  // forks from, so "specjvm98:1" and "specjvm98:1.0" are the same
  // session.
  std::string B;
  wire::putU64(B, Apps.size());
  for (const AppSpec &A : Apps) {
    wire::putString(B, A.Spec.Family);
    wire::putString(B, A.Spec.Name);
    wire::putU64(B, A.Spec.Seed);
    wire::putF64(B, A.Weight);
  }
  return wire::fnv1a(B.data(), B.size());
}

std::vector<Program>
schedfilter::generateMixPrograms(const std::vector<AppSpec> &Apps) {
  std::vector<Program> Programs;
  Programs.reserve(Apps.size());
  for (const AppSpec &A : Apps)
    Programs.push_back(generateWorkloadProgram(A.Spec));
  return Programs;
}
