//===- workloads/WorkloadFamily.cpp - The workload catalog ------------------===//

#include "workloads/WorkloadFamily.h"

#include "workloads/ProgramGenerator.h"

#include <cstdio>
#include <cstdlib>

using namespace schedfilter;

namespace {

/// The two original suites as registered families: thin method tables
/// over the untouched ProgramGenerator.  Their version is the
/// ProgramGenerator's own GeneratorVersion -- the exact value these
/// benchmarks' corpus-cache keys carried before the registry existed, so
/// registration alone invalidates nothing.
class GeneratorFamily : public WorkloadFamily {
public:
  GeneratorFamily(const char *Name, const char *Display, const char *Desc,
                  std::vector<BenchmarkSpec> (*Suite)())
      : FamilyName(Name), Display(Display), Desc(Desc), Suite(Suite) {}

  const char *name() const override { return FamilyName; }
  const char *displayName() const override { return Display; }
  const char *description() const override { return Desc; }
  uint32_t version() const override { return GeneratorVersion; }
  std::vector<BenchmarkSpec> makeBenchmarkSuite() const override {
    return Suite();
  }
  Program load(const BenchmarkSpec &Params) const override {
    return ProgramGenerator(Params).generate();
  }

private:
  const char *FamilyName;
  const char *Display;
  const char *Desc;
  std::vector<BenchmarkSpec> (*Suite)();
};

const WorkloadFamily &familyOf(const BenchmarkSpec &Spec) {
  return WorkloadRegistry::instance().require(Spec.Family, "BenchmarkSpec",
                                              Spec.Name);
}

} // namespace

const WorkloadRegistry &WorkloadRegistry::instance() {
  static const WorkloadRegistry R;
  return R;
}

WorkloadRegistry::WorkloadRegistry() {
  // Registration order is the presentation order of --list and every
  // "known: ..." diagnostic; the two paper suites stay first.
  static const GeneratorFamily SpecJvm98(
      "specjvm98", "SPECjvm98",
      "synthetic SPECjvm98 stand-ins (paper Tables 1-7)", specjvm98Suite);
  static const GeneratorFamily Fp(
      "fp", "FP suite",
      "floating-point-heavy companions (paper SPECjvm98 FP mix)", fpSuite);
  Families = {&SpecJvm98, &Fp, &serverLoopFamily(), &fpKernelFamily(),
              &ptrChaseFamily()};
  for (const WorkloadFamily *F : Families)
    for (BenchmarkSpec &S : F->makeBenchmarkSuite())
      Benchmarks.push_back(std::move(S));
}

const WorkloadFamily *WorkloadRegistry::find(const std::string &Name) const {
  for (const WorkloadFamily *F : Families)
    if (Name == F->name())
      return F;
  return nullptr;
}

const WorkloadFamily &
WorkloadRegistry::require(const std::string &Name, const char *Kind,
                          const std::string &Owner) const {
  if (const WorkloadFamily *F = find(Name))
    return *F;
  std::fprintf(stderr, "%s '%s': family '%s' is not registered (known: %s)\n",
               Kind, Owner.c_str(), Name.c_str(), knownFamilyNames().c_str());
  std::abort();
}

const WorkloadFamily *schedfilter::findWorkloadFamily(const std::string &Name) {
  return WorkloadRegistry::instance().find(Name);
}

std::string schedfilter::knownFamilyNames() {
  std::string Out;
  for (const WorkloadFamily *F : WorkloadRegistry::instance().families()) {
    if (!Out.empty())
      Out += ", ";
    Out += F->name();
  }
  return Out;
}

Program schedfilter::generateWorkloadProgram(const BenchmarkSpec &Spec) {
  return familyOf(Spec).load(Spec);
}

uint32_t schedfilter::workloadGeneratorVersion(const BenchmarkSpec &Spec) {
  return familyOf(Spec).version();
}

const BenchmarkSpec *schedfilter::findBenchmarkSpec(const std::string &Name) {
  for (const BenchmarkSpec &S : WorkloadRegistry::instance().benchmarks())
    if (S.Name == Name)
      return &S;
  return nullptr;
}
