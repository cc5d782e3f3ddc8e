//===- workloads/WorkloadFamily.cpp - Family registry + builtins ------------===//

#include "workloads/WorkloadFamily.h"

#include "workloads/ProgramGenerator.h"

#include <cassert>

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

void registerBuiltinFamilies(WorkloadRegistry &R) {
  // Registration order is the presentation order of --list and every
  // "known: ..." diagnostic; the two paper suites stay first.
  R.registerFamily(std::make_unique<GeneratorFamily>(
      "specjvm98", "SPECjvm98",
      "synthetic SPECjvm98 stand-ins (paper Tables 1-7)", specjvm98Suite));
  R.registerFamily(std::make_unique<GeneratorFamily>(
      "fp", "FP suite",
      "floating-point-heavy companions (paper SPECjvm98 FP mix)", fpSuite));
  R.registerFamily(makeServerLoopFamily());
  R.registerFamily(makeFpKernelFamily());
  R.registerFamily(makePtrChaseFamily());
}

} // namespace

WorkloadRegistry &WorkloadRegistry::instance() {
  // Function-local static: built-ins are registered exactly once, on
  // first access, before any parallel phase can look families up.
  static WorkloadRegistry *R = [] {
    auto *Reg = new WorkloadRegistry();
    registerBuiltinFamilies(*Reg);
    return Reg;
  }();
  return *R;
}

void WorkloadRegistry::registerFamily(std::unique_ptr<WorkloadFamily> F) {
  assert(F && "null family");
  assert(!find(F->name()) && "duplicate family name");
  Views.push_back(F.get());
  Owned.push_back(std::move(F));
}

const WorkloadFamily *WorkloadRegistry::find(const std::string &Name) const {
  for (const WorkloadFamily *F : Views)
    if (Name == F->name())
      return F;
  return nullptr;
}

const WorkloadFamily *schedfilter::findWorkloadFamily(const std::string &Name) {
  return WorkloadRegistry::instance().find(Name);
}

std::string schedfilter::familyDisplayName(const std::string &Name) {
  if (const WorkloadFamily *F = findWorkloadFamily(Name))
    return F->displayName();
  return Name;
}

Program schedfilter::generateWorkloadProgram(const BenchmarkSpec &Spec) {
  if (const WorkloadFamily *F = findWorkloadFamily(Spec.Family))
    return F->load(Spec);
  // Family-less specs (hand-built in tests, or predating the registry)
  // expand through the ProgramGenerator -- the same synthesis the
  // specjvm98/fp families run, so this branch can never diverge from a
  // registered path.
  return ProgramGenerator(Spec).generate();
}

uint32_t schedfilter::workloadGeneratorVersion(const BenchmarkSpec &Spec) {
  if (const WorkloadFamily *F = findWorkloadFamily(Spec.Family))
    return F->version();
  return GeneratorVersion;
}

const BenchmarkSpec *schedfilter::findBenchmarkSpec(const std::string &Name) {
  // One flat index over every registered family's suite, built on first
  // use.  Registration order makes the index deterministic; names are
  // globally unique across families (workloads_test pins this).
  static const std::vector<BenchmarkSpec> *All = [] {
    auto *V = new std::vector<BenchmarkSpec>();
    for (const WorkloadFamily *F : WorkloadRegistry::instance().families())
      for (BenchmarkSpec &S : F->makeBenchmarkSuite())
        V->push_back(std::move(S));
    return V;
  }();
  for (const BenchmarkSpec &S : *All)
    if (S.Name == Name)
      return &S;
  return nullptr;
}
