//===- perfbench/Workload.h - The benchmark workloads -----------*- C++ -*-===//
///
/// \file
/// A workload is one set of seed-derived inputs and the calls the benchmark
/// times on them.  The driver (main.cpp) runs every workload through the
/// same phases:
///
///   setup()   everything before the first timed call (repeated, median
///             reported as setup_s);
///   round()   one round of the timed phase, repeated for --seconds;
///   verify()  untimed: replays the L/N compiles through every layer and
///             checks the outputs; in the traced run it also records the
///             per-layer spans;
///   probe()   untimed by the round clock, tracing off: per-method compile
///             latency where round() cannot time it from outside.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "Bench.h"

#include "target/MachineModel.h"

#include <memory>

namespace perfbench {

/// What a workload borrows from the driver.
struct Env {
  const Options &Opt;
  const schedfilter::MachineModel &Model;
  Tracer &T;
  Checks &C;
};

/// The parts of one round that ran under each policy, in seconds.
struct RoundTimes {
  double LS = 0.0; ///< always schedule
  double LN = 0.0; ///< the filter decides
};

class Workload {
public:
  virtual ~Workload() = default;

  virtual void setup() = 0;
  virtual RoundTimes round() = 0;
  virtual void verify() = 0;
  virtual void probe() {}

  /// Deterministic results: scheduling work under L/N over LS, and SIM(P)
  /// under L/N over NS.
  virtual double effortRatio() const = 0;
  virtual double appTimeRatio() const = 0;

  /// Per-method L/N compile latencies, microseconds.
  const std::vector<double> &latencies() const { return LatencyUs; }
  /// Forgets the latencies of the warm-up round.
  void dropLatencies() { LatencyUs.clear(); }
  /// specFingerprint of every generated input, in generation order.
  const std::vector<uint64_t> &fingerprints() const { return Fingerprints; }

protected:
  std::vector<double> LatencyUs;
  std::vector<uint64_t> Fingerprints;
};

/// The workload named \p Name, or null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name, Env &E);

/// Every workload name, in the order `--workload all` runs them.
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
