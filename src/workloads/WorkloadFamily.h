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
/// A family is one file plus one entry in the WorkloadRegistry's
/// constructor; everything downstream -- corpus-cache keys, suite
/// tracing, LOOCV folds, the interleaved multi-app serve streams, the
/// tools' --workload and --suite flags -- discovers families through the
/// registry and never names a generator directly.
///
/// Determinism: load() must be a pure function of the spec (all
/// randomness from Spec.Seed) and the registry is const once built, so
/// any family mix stays bit-identical at any --jobs and any cache
/// temperature.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_WORKLOADS_WORKLOADFAMILY_H
#define SCHEDFILTER_WORKLOADS_WORKLOADFAMILY_H

#include "mir/Program.h"
#include "support/Rng.h"
#include "workloads/BenchmarkSpec.h"

#include <string>
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
  /// through this accessor instead of hand-mapping registry keys.
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

/// The workload catalog: the built-in families, in presentation order,
/// and every benchmark of their suites.  It is built once, on first
/// access (a function-local static, so concurrent first accesses are
/// safe), and is const from then on.
class WorkloadRegistry {
public:
  /// The catalog.
  static const WorkloadRegistry &instance();

  /// Looks a family up by name; nullptr when absent.
  const WorkloadFamily *find(const std::string &Name) const;

  /// The family named \p Name, which the \p Kind named \p Owner (a spec
  /// or a mix) requires.  An unregistered name is a caller bug -- the
  /// tools validate user input first -- so it aborts in every build
  /// type, naming the owner.
  const WorkloadFamily &require(const std::string &Name, const char *Kind,
                                const std::string &Owner) const;

  /// Every family, in registration order (deterministic: --list output
  /// and "known: ..." diagnostics iterate this).
  const std::vector<const WorkloadFamily *> &families() const {
    return Families;
  }

  /// Every family's suite, concatenated in family order.  Benchmark
  /// names are unique across families (workloads_test pins this).
  const std::vector<BenchmarkSpec> &benchmarks() const { return Benchmarks; }

private:
  WorkloadRegistry();
  std::vector<const WorkloadFamily *> Families;
  std::vector<BenchmarkSpec> Benchmarks;
};

/// Convenience: WorkloadRegistry::instance().find(Name).
const WorkloadFamily *findWorkloadFamily(const std::string &Name);

/// Every registered family name, comma-joined in registry order -- the
/// "known: ..." tail of the selection diagnostics.
std::string knownFamilyNames();

/// Expands \p Spec through its family's load().  A spec whose Family is
/// empty or unregistered aborts, naming the spec.
Program generateWorkloadProgram(const BenchmarkSpec &Spec);

/// The generator version the corpus-cache key carries for \p Spec: its
/// family's version().  Aborts like generateWorkloadProgram.
uint32_t workloadGeneratorVersion(const BenchmarkSpec &Spec);

/// The built-in non-JVM families, each defined in its own translation
/// unit (one file per family; one registry entry).  Families are
/// stateless, so each is one immutable object.
const WorkloadFamily &serverLoopFamily();
const WorkloadFamily &fpKernelFamily();
const WorkloadFamily &ptrChaseFamily();

} // namespace schedfilter

#endif // SCHEDFILTER_WORKLOADS_WORKLOADFAMILY_H
