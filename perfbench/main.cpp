//===- perfbench/main.cpp - The repository benchmark driver -----------------===//
//
// Runs one workload in this process and prints, last on stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  Untraced runs
// report the end-to-end metrics; traced runs (--trace 1) the per-layer
// ones.  perfbench/run.py builds this binary and is the documented entry
// point; see README.md beside this file.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR
//             [--jobs N] [--small] [--trace-out PATH]
//             [--revision STR] [--source-hash STR]
//
//===----------------------------------------------------------------------===//

#include "BuildInfo.h"
#include "Workload.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace perfbench;

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\') {
      Out += '\\';
      Out += Ch;
    } else if (static_cast<unsigned char>(Ch) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", Ch);
      Out += Buf;
    } else {
      Out += Ch;
    }
  }
  return Out + "\"";
}

/// Every digit of \p V; non-finite values (never expected) print as 0 so
/// the line stays valid JSON.
std::string number(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned I = 0; I != 3; ++I)
      __get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    std::string S(Brand);
    size_t B = S.find_first_not_of(' ');
    return B == std::string::npos ? "unknown" : S.substr(B);
  }
#endif
  return "unknown";
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

bool parseOptions(int Argc, char **Argv, Options &Opt) {
  unsigned HW = std::max(1u, std::thread::hardware_concurrency());
  Opt.Jobs = std::min(4u, HW);
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--small") {
      Opt.Small = true;
      continue;
    }
    if (I + 1 >= Argc) {
      std::cerr << "error: " << A << " expects a value\n";
      return false;
    }
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (A == "--workload") {
      Opt.Workload = V;
    } else if (A == "--seed" && parseUnsigned(V, N)) {
      Opt.Seed = N;
    } else if (A == "--seconds" && parseUnsigned(V, N) && N >= 1 &&
               N <= 3600) {
      Opt.Seconds = static_cast<double>(N);
    } else if (A == "--trace" && parseUnsigned(V, N) && N <= 1) {
      Opt.Trace = N == 1;
    } else if (A == "--jobs" && parseUnsigned(V, N) && N >= 1 && N <= 256) {
      Opt.Jobs = static_cast<unsigned>(N);
    } else if (A == "--tmp") {
      Opt.TmpDir = V;
    } else if (A == "--trace-out") {
      Opt.TraceOut = V;
    } else if (A == "--revision") {
      Opt.Revision = V;
    } else if (A == "--source-hash") {
      Opt.SourceHash = V;
    } else {
      std::cerr << "error: bad option " << A << ' ' << V << '\n';
      return false;
    }
  }
  if (Opt.TmpDir.empty()) {
    std::cerr << "error: --tmp DIR is required\n";
    return false;
  }
  return true;
}

/// The per-layer metrics of a traced run, from its spans and counters.
/// perfbench/BENCHMARK.json's per_layer list names the same metrics.
std::vector<Metric> layerMetrics(const Tracer &T, double SpanNs) {
  std::map<std::string, Tracer::Aggregate> A = T.aggregate();
  auto Total = [&](const char *Span) {
    auto It = A.find(Span);
    return It == A.end() ? 0.0 : It->second.Total;
  };
  auto Median = [&](const char *Span) {
    auto It = A.find(Span);
    return It == A.end() ? 0.0 : medianOf(It->second.Durations);
  };
  auto Max = [&](const char *Span) {
    auto It = A.find(Span);
    return It == A.end() ? 0.0 : percentile(It->second.Durations, 1.0);
  };
  auto Mean = [&](const char *Span) {
    auto It = A.find(Span);
    return It == A.end() ? 0.0 : It->second.Total / It->second.Count;
  };
  auto C = [&](const char *Name) { return T.counter(Name); };
  auto Per = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };
  auto NsPer = [&](const char *Span, const char *Count) {
    return Per(Total(Span) * 1e9, C(Count));
  };

  std::vector<Metric> M = {
      {"workloads.generate_s", Total("workloads.generate"), "s"},
      {"workloads.programs", C("workloads.programs"), "count"},
      {"workloads.methods", C("workloads.methods"), "count"},
      {"workloads.blocks", C("workloads.blocks"), "count"},
      {"workloads.insts", C("workloads.insts"), "count"},
      {"harness.trace_s", Total("harness.trace"), "s"},
      {"harness.traced_blocks", C("harness.traced_blocks"), "count"},
      {"harness.sweep_s", Median("harness.sweep"), "s"},
      {"harness.folds", C("harness.folds"), "count"},
      {"io.corpus_store_s", Total("io.corpus_store"), "s"},
      {"io.corpus_load_s", Total("io.corpus_load"), "s"},
      {"io.corpus_bytes", C("io.corpus_bytes"), "bytes"},
      {"io.corpus_hits", C("io.corpus_hits"), "count"},
      {"io.corpus_misses", C("io.corpus_misses"), "count"},
      {"io.corpus_invalid", C("io.corpus_invalid"), "count"},
      {"io.store_failures", C("io.store_failures"), "count"},
      {"features.extract_ns_per_block",
       NsPer("features.extract", "features.blocks"), "ns"},
      {"features.batch_ns_per_block", NsPer("features.batch", "features.blocks"),
       "ns"},
      {"features.blocks", C("features.blocks"), "count"},
      {"filter.eval_ns_per_decision", NsPer("filter.eval", "features.blocks"),
       "ns"},
      {"filter.batch_ns_per_decision", NsPer("filter.batch", "features.blocks"),
       "ns"},
      {"filter.decisions", C("filter.decisions"), "count"},
      {"filter.ls_frac", Per(C("filter.ls"), C("filter.decisions")), "ratio"},
      {"filter.ls_precision", Per(C("filter.ls_improved"), C("filter.ls")),
       "ratio"},
      {"filter.artifact_us", Mean("filter.artifact") * 1e6, "us"},
      {"filter.work_units", C("filter.work_units"), "count"},
      {"sched.dag_ns_per_block", NsPer("sched.dag", "sched.blocks_scheduled"),
       "ns"},
      {"sched.dag_edges", C("sched.dag_edges"), "count"},
      {"sched.list_ns_per_block", NsPer("sched.list", "sched.blocks_scheduled"),
       "ns"},
      {"sched.blocks_scheduled", C("sched.blocks_scheduled"), "count"},
      {"sched.work_units", C("sched.work_units"), "count"},
      {"sched.verify_failures", C("sched.verify_failures"), "count"},
      {"sim.ns_per_block", NsPer("sim", "sim.blocks"), "ns"},
      {"sim.blocks", C("sim.blocks"), "count"},
      {"ml.label_s", Total("ml.label"), "s"},
      {"ml.train_s", Total("ml.train"), "s"},
      {"ml.trainings", C("ml.trainings"), "count"},
      {"ml.train_instances", C("ml.train_instances"), "count"},
      {"ml.train_ms_p50", Median("ml.train") * 1e3, "ms"},
      {"ml.train_ms_max", Max("ml.train") * 1e3, "ms"},
      {"ml.rules", C("ml.rules"), "count"},
      {"ml.conditions", C("ml.conditions"), "count"},
      {"runtime.tick_ns", T.measured("runtime.tick_ns"), "ns"},
      {"runtime.ticks", C("runtime.ticks"), "count"},
      {"runtime.compiled_methods", C("runtime.compiled_methods"), "count"},
      {"runtime.promotions", C("runtime.promotions"), "count"},
      {"runtime.deferred", C("runtime.deferred"), "count"},
      {"runtime.max_queue_depth", C("runtime.max_queue_depth"), "count"},
      {"runtime.mean_queue_depth", C("runtime.mean_queue_depth"), "count"},
      {"runtime.baseline_cost_s", Total("runtime.baseline_cost"), "s"},
      {"trace.span_ns", SpanNs, "ns"},
      {"trace.overhead_s", SpanNs * 1e-9 * static_cast<double>(T.numSpans()),
       "s"},
      {"trace.spans", static_cast<double>(T.numSpans()), "count"},
  };
  return M;
}

/// The cost of recording one span, in nanoseconds: the median of five
/// batches of empty spans recorded into a scratch tracer.  A round records
/// only a handful of spans, so comparing traced and untraced rounds would
/// measure noise; the replay's spans are where tracing costs.
double spanCostNs() {
  constexpr int PerBatch = 100000;
  std::vector<double> Batches;
  for (int B = 0; B != 5; ++B) {
    Tracer Scratch;
    Scratch.enable(true);
    Clock::time_point Start = Clock::now();
    for (int I = 0; I != PerBatch; ++I) {
      auto S = Scratch.span("trace.cost");
    }
    Batches.push_back(secondsBetween(Start, Clock::now()) * 1e9 / PerBatch);
  }
  return medianOf(Batches);
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (size_t I = 0; I != Ms.size(); ++I)
    Out += (I ? ", " : "") + jsonString(Ms[I].Name) + ": {\"value\": " +
           number(Ms[I].Value) + ", \"unit\": " + jsonString(Ms[I].Unit) + "}";
  return Out + "}";
}

void printProvenance(const Options &Opt, const Tracer &T, size_t SetupRuns,
                     size_t Rounds, size_t Samples) {
  std::ostringstream OS;
  OS << "provenance {\"workload\": " << jsonString(Opt.Workload)
     << ", \"seed\": " << Opt.Seed << ", \"seconds\": " << Opt.Seconds
     << ", \"trace\": " << (Opt.Trace ? 1 : 0)
     << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
     << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
     << ", \"flags\": " << jsonString(PERFBENCH_FLAGS)
     << ", \"cpu\": " << jsonString(cpuModel())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"jobs\": " << Opt.Jobs
     << ", \"revision\": " << jsonString(Opt.Revision)
     << ", \"source_hash\": " << jsonString(Opt.SourceHash)
     << ", \"inputs\": {\"programs\": " << T.counter("workloads.programs")
     << ", \"methods\": " << T.counter("workloads.methods")
     << ", \"blocks\": " << T.counter("workloads.blocks")
     << ", \"insts\": " << T.counter("workloads.insts")
     << ", \"invocations\": " << T.counter("workloads.invocations")
     << "}, \"setup_runs\": " << SetupRuns << ", \"rounds\": " << Rounds
     << ", \"latency_samples\": " << Samples << "}";
  std::cout << OS.str() << '\n';
}

/// The deterministic results: identical for one seed at any --jobs, and
/// what the self-test compares byte for byte.
void printDeterministic(const Workload &W, const Tracer &T) {
  std::string Out = "deterministic {\"effort_ratio_work\": " +
                    number(W.effortRatio()) +
                    ", \"app_time_ratio\": " + number(W.appTimeRatio()) +
                    ", \"counters\": {";
  bool FirstC = true;
  for (const auto &[Name, V] : T.counters()) {
    Out += (FirstC ? "" : ", ") + jsonString(Name) + ": " + number(V);
    FirstC = false;
  }
  Out += "}, \"spec_fingerprints\": [";
  char Buf[24];
  for (size_t I = 0; I != W.fingerprints().size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "\"%016llx\"",
                  static_cast<unsigned long long>(W.fingerprints()[I]));
    Out += (I ? ", " : "") + std::string(Buf);
  }
  std::cout << Out << "]}\n";
}

} // namespace

int main(int Argc, char **Argv) {
  Clock::time_point ProcessStart = Clock::now();
  Options Opt;
  if (!parseOptions(Argc, Argv, Opt))
    return 2;
  schedfilter::MachineModel Model = schedfilter::MachineModel::ppc7410();
  Tracer T;
  Checks C;
  Env E{Opt, Model, T, C};

  // Set-up, repeated from scratch; setup_s is the median.  The first
  // repetition is timed from process start.  Only the last one keeps its
  // spans and counters.
  const unsigned SetupRuns = Opt.Small ? 1 : 3;
  std::vector<double> SetupS;
  std::unique_ptr<Workload> W;
  for (unsigned R = 0; R != SetupRuns; ++R) {
    Clock::time_point Start = R ? Clock::now() : ProcessStart;
    W.reset();
    T.reset();
    T.enable(Opt.Trace && R + 1 == SetupRuns);
    W = makeWorkload(Opt.Workload, E);
    if (!W) {
      std::cerr << "error: unknown workload '" << Opt.Workload << "'; known:";
      for (const std::string &N : workloadNames())
        std::cerr << ' ' << N;
      std::cerr << '\n';
      return 2;
    }
    W->setup();
    SetupS.push_back(secondsBetween(Start, Clock::now()));
  }

  // Untimed warm-up rounds for at least two seconds: thread start-up,
  // first-touch allocation, caches and the CPU's clock ramp would otherwise
  // land in the first timed rounds (the first process of a burst ran up to
  // 2x slower).
  T.enable(false);
  Clock::time_point WarmStart = Clock::now();
  do
    W->round();
  while (secondsBetween(WarmStart, Clock::now()) < 2.0);
  W->dropLatencies();

  // The timed phase: at least three rounds.  A traced run records their
  // spans.
  std::vector<double> Wall, LS, LN;
  T.enable(Opt.Trace);
  Clock::time_point TimedStart = Clock::now();
  do {
    Clock::time_point R0 = Clock::now();
    RoundTimes RT;
    {
      auto S = T.span("round");
      RT = W->round();
    }
    Wall.push_back(secondsBetween(R0, Clock::now()));
    LS.push_back(RT.LS);
    LN.push_back(RT.LN);
  } while (secondsBetween(TimedStart, Clock::now()) < Opt.Seconds ||
           Wall.size() < 3);

  T.enable(Opt.Trace);
  W->verify();
  T.enable(false);
  W->probe();

  std::vector<double> Lat = W->latencies();
  std::vector<Metric> E2E = {
      {"setup_s", medianOf(SetupS), "s"},
      {"wall_s", medianOf(Wall), "s"},
      {"ls_s", medianOf(LS), "s"},
      {"ln_s", medianOf(LN), "s"},
      {"compile_us_p50", percentile(Lat, 0.50), "us"},
      {"compile_us_p99", percentile(Lat, 0.99), "us"},
      {"effort_ratio_work", W->effortRatio(), "ratio"},
      {"app_time_ratio", W->appTimeRatio(), "ratio"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };

  std::vector<Metric> Out = E2E;
  if (Opt.Trace) {
    Out = layerMetrics(T, spanCostNs());
    for (const auto &[Name, A] : T.aggregate())
      std::printf("span %-28s count %8llu total_s %.6f self_s %.6f\n",
                  Name.c_str(), static_cast<unsigned long long>(A.Count),
                  A.Total, A.Self);
    if (!Opt.TraceOut.empty())
      C.expect(T.writeChromeTrace(Opt.TraceOut), "spans written out");
  }

  printProvenance(Opt, T, SetupRuns, Wall.size(), Lat.size());
  printDeterministic(*W, T);
  for (const Metric &M : E2E)
    std::printf("metric %-18s %.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("metric %-18s %.6g ratio (%llu of %llu checks failed)\n",
              "error_rate",
              C.attempted() ? static_cast<double>(C.failed()) /
                                  static_cast<double>(C.attempted())
                            : 0.0,
              static_cast<unsigned long long>(C.failed()),
              static_cast<unsigned long long>(C.attempted()));
  std::fflush(stdout);

  std::cout << "{\"correct\": " << (C.failed() ? "false" : "true")
            << ", \"attempted\": " << C.attempted()
            << ", \"failed\": " << C.failed()
            << ", \"metrics\": " << metricsJson(Out) << "}" << std::endl;
  return C.failed() ? 1 : 0;
}
