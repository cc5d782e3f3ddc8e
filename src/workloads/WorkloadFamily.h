//===- workloads/WorkloadFamily.h - Pluggable workload families -*- C++ -*-===//
///
/// \file
/// The workload-family method table: every program population the
/// experiments run over -- the synthetic SPECjvm98 stand-ins, the FP
/// suite, and the non-JVM-shaped families that stress the filter
/// differently -- is one WorkloadFamily registration.  A family owns its
/// benchmark suite (parameter profiles), its program synthesis (load), a
/// per-family generator version (its half of the corpus-cache key).
///
/// Registration is one file per family plus one line in
/// registerBuiltinFamilies(); everything downstream -- corpus-cache keys,
/// suite tracing, LOOCV folds, the interleaved multi-app serve streams,
/// the tools' --workload flags -- discovers families through the
/// registry and never names a generator directly.
///
/// Determinism: load() must be a pure function of the spec (all
/// randomness from Spec.Seed) -- the registry adds no state of its own,
/// so any family mix stays bit-identical at any --jobs and any cache
/// temperature.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_WORKLOADS_WORKLOADFAMILY_H
#define SCHEDFILTER_WORKLOADS_WORKLOADFAMILY_H

#include "mir/Program.h"
#include "support/Rng.h"
#include "workloads/BenchmarkSpec.h"

#include <memory>
#include <vector>

namespace schedfilter {

/// One registered program population.  Implementations must be
/// stateless: every method is const and every output a pure function of
/// its inputs, so families are shared freely across threads.
class WorkloadFamily {
public:
  virtual ~WorkloadFamily() = default;

  /// Registry key and the family component of every corpus-cache key;
  /// lowercase [a-z0-9-], unique across registered families.
  virtual const char *name() const = 0;

  /// One-line description for --list style output.
  virtual const char *description() const = 0;

  /// Short human-readable suite title for report headers, e.g.
  /// "SPECjvm98".  Defaults to name(); families whose registry key is
  /// not the publishable spelling override it.  Benches print suites
  /// through this accessor (via familyDisplayName) instead of
  /// hand-mapping registry keys.
  virtual const char *displayName() const { return name(); }

  /// Version of this family's program synthesis, the generator half of
  /// the corpus-cache key for this family's benchmarks.  MUST be bumped
  /// by any change that alters what load() emits for some spec; bumping
  /// it invalidates this family's cached corpora and nobody else's
  /// (tests/corpuscache_test.cpp pins that isolation).
  virtual uint32_t version() const = 0;

  /// The family's benchmark suite.  Every returned spec carries
  /// Family == name() and a globally unique Name and Seed.
  virtual std::vector<BenchmarkSpec> makeBenchmarkSuite() const = 0;

  /// Expands \p Params into its deterministic Program (all randomness
  /// derives from Params.Seed; calling twice returns identical
  /// programs).
  virtual Program load(const BenchmarkSpec &Params) const = 0;
};

/// The process-wide family registry, in registration order.  Built-in
/// families register lazily on first access, so lookups never race
/// static initialization; registration is not thread-safe and happens
/// before any parallel phase.
class WorkloadRegistry {
public:
  /// The singleton, with the built-in families already registered.
  static WorkloadRegistry &instance();

  /// Registers \p F; its name must not collide with a registered family.
  void registerFamily(std::unique_ptr<WorkloadFamily> F);

  /// Looks a family up by name; nullptr when absent.
  const WorkloadFamily *find(const std::string &Name) const;

  /// Every registered family, in registration order (deterministic:
  /// --list output and "known: ..." diagnostics iterate this).
  const std::vector<const WorkloadFamily *> &families() const {
    return Views;
  }

private:
  WorkloadRegistry() = default;
  std::vector<std::unique_ptr<WorkloadFamily>> Owned;
  std::vector<const WorkloadFamily *> Views;
};

/// Convenience: WorkloadRegistry::instance().find(Name).
const WorkloadFamily *findWorkloadFamily(const std::string &Name);

/// displayName() of the registered family \p Name, or \p Name itself
/// when unregistered.
std::string familyDisplayName(const std::string &Name);

/// Expands \p Spec through its family's load().  Specs without a Family
/// (hand-built test specs, pre-registry callers) fall back to the
/// ProgramGenerator, which is also what the specjvm98/fp families run --
/// so the fallback can never diverge from a registered path.
Program generateWorkloadProgram(const BenchmarkSpec &Spec);

/// The generator version the corpus-cache key carries for \p Spec: its
/// family's version(), or the ProgramGenerator's for family-less specs.
uint32_t workloadGeneratorVersion(const BenchmarkSpec &Spec);

/// Factories of the built-in non-JVM families, each defined in its own
/// translation unit (one file per family; one registry line below).
std::unique_ptr<WorkloadFamily> makeServerLoopFamily();
std::unique_ptr<WorkloadFamily> makeFpKernelFamily();
std::unique_ptr<WorkloadFamily> makePtrChaseFamily();

} // namespace schedfilter

#endif // SCHEDFILTER_WORKLOADS_WORKLOADFAMILY_H
