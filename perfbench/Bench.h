//===- perfbench/Bench.h - Shared benchmark plumbing -------------*- C++ -*-===//
///
/// \file
/// What every perfbench workload shares: the run options, the output
/// checks that feed `failed` / `attempted`, the span recorder of the traced
/// run, and the metric list printed at the end.
///
/// Spans are recorded from the benchmark's own code, around its calls into
/// each layer's public functions -- nothing inside src/ is instrumented.
/// They are recorded from the main thread only: calls that fan out over a
/// TaskPool get one span around the whole call.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Command-line settings of one benchmark process (one workload).
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  unsigned Jobs = 1;
  /// Self-test size: a fraction of every population, one set-up.
  bool Small = false;
  /// Scratch directory inside the checkout (corpus caches).
  std::string TmpDir;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string TraceOut;
  /// Revision and source-tree hash, for the provenance line.
  std::string Revision;
  std::string SourceHash;
};

/// Output checks.  Every check counts as attempted; a failed one is
/// printed (the first few) and turns the run's result incorrect.
class Checks {
public:
  void expect(bool Ok, const char *What);

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// In-memory span recorder plus deterministic counters.  Spans record only
/// while enabled (the traced run); counters always accumulate, since they
/// are cheap and also back the deterministic self-test output.
class Tracer {
public:
  class Scope {
  public:
    Scope(Tracer *T, const char *Name, uint64_t Request);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T;
    int32_t Id = -1;
  };

  /// Opens a span closed at the end of the returned scope.  A zero
  /// \p Request inherits the enclosing span's request id, so every span of
  /// one compiled method or fold shares an identifier.
  [[nodiscard]] Scope span(const char *Name, uint64_t Request = 0) {
    return Scope(On ? this : nullptr, Name, Request);
  }

  void enable(bool Enabled) { On = Enabled; }
  bool enabled() const { return On; }
  /// Drops every span and counter (each set-up repetition starts clean).
  void reset();

  void add(const std::string &Counter, double Delta) {
    Counters[Counter] += Delta;
  }
  void set(const std::string &Counter, double Value) {
    Counters[Counter] = Value;
  }
  double counter(const std::string &Name) const;
  const std::map<std::string, double> &counters() const { return Counters; }

  /// Measured (wall-clock) per-layer values that are not one span's
  /// duration, such as the serve loop's dispatch time per tick.
  void note(const std::string &Name, double Value) { Measured[Name] = Value; }
  double measured(const std::string &Name) const;

  /// Aggregate of every span with one name.  Self time is a span's
  /// duration minus the part its child spans cover.
  struct Aggregate {
    uint64_t Count = 0;
    double Total = 0.0;
    double Self = 0.0;
    std::vector<double> Durations;
  };
  std::map<std::string, Aggregate> aggregate() const;
  size_t numSpans() const { return Spans.size(); }

  /// Writes every span as Chrome trace-event JSON; false on I/O error.
  bool writeChromeTrace(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    int64_t StartNs;
    int64_t EndNs;
    int32_t Parent;
    uint64_t Request;
  };
  int64_t nowNs() const;

  bool On = false;
  Clock::time_point Origin = Clock::now();
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
  std::map<std::string, double> Counters;
  std::map<std::string, double> Measured;
};

/// Runs \p Body inside span \p Name and returns its wall time in seconds
/// (measured whether or not spans are recording).
template <typename Fn>
double timed(Tracer &T, const char *Name, uint64_t Request, Fn &&Body) {
  auto S = T.span(Name, Request);
  Clock::time_point Start = Clock::now();
  Body();
  return secondsBetween(Start, Clock::now());
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Nearest-rank percentile (\p P in [0, 1]) of \p Values; 0 when empty.
double percentile(std::vector<double> Values, double P);
double medianOf(const std::vector<double> &Values);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
