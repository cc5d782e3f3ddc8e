//===- tests/TestHelpers.h - Shared fixtures for the test suite -*- C++ -*-===//
///
/// \file
/// Block builders, shrunken benchmark suites and one-app serving shared
/// across test files.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_TESTS_TESTHELPERS_H
#define SCHEDFILTER_TESTS_TESTHELPERS_H

#include "mir/BasicBlock.h"
#include "runtime/MultiAppService.h"
#include "sched/SchedContext.h"
#include "workloads/BenchmarkSpec.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

namespace schedfilter {
namespace test {

/// A fresh, empty scratch directory per test, removed on scope exit --
/// RAII, so an early ASSERT return cannot leak it.
struct TempCacheDir {
  std::filesystem::path Path;
  explicit TempCacheDir(const std::string &Tag) {
    Path = std::filesystem::temp_directory_path() /
           ("schedfilter-" + Tag + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempCacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

/// Reads a whole file as bytes; empty on open failure.
inline std::string slurp(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  std::ostringstream OS;
  OS << IS.rdbuf();
  return OS.str();
}

/// Leaves next to \p Path what a writer killed inside
/// wire::writeFileAtomic leaves: a temp file named as the helper names its
/// own (<path>.tmp.<pid>.<thread>), holding the first half of \p Bytes.  Its
/// pid, 2^22, is above any pid Linux assigns, so no writer reuses the
/// name.  Returns the leftover's path.
inline std::string plantInterruptedWrite(const std::string &Path,
                                         const std::string &Bytes) {
  std::string Tmp = Path + ".tmp.4194304.0";
  std::ofstream(Tmp, std::ios::binary) << Bytes.substr(0, Bytes.size() / 2);
  return Tmp;
}

/// Two independent float multiply trees feeding an add and a store, in
/// naive (depth-first) order: the canonical block that benefits from
/// scheduling on a machine with load/FP latency.
inline BasicBlock makeIlpFloatBlock(uint64_t ExecCount = 1) {
  BasicBlock BB("ilp-float", ExecCount);
  BB.append(Instruction(Opcode::LoadFloat, {100}, {0}));
  BB.append(Instruction(Opcode::FMul, {101}, {100, 100}));
  BB.append(Instruction(Opcode::LoadFloat, {102}, {1}));
  BB.append(Instruction(Opcode::FMul, {103}, {102, 102}));
  BB.append(Instruction(Opcode::FAdd, {104}, {101, 103}));
  BB.append(Instruction(Opcode::StoreFloat, {}, {104, 2}));
  return BB;
}

/// A pure dependence chain: load -> add -> add -> store.  Only one legal
/// order, so scheduling cannot help.
inline BasicBlock makeChainBlock(uint64_t ExecCount = 1) {
  BasicBlock BB("chain", ExecCount);
  BB.append(Instruction(Opcode::LoadInt, {100}, {0}));
  BB.append(Instruction(Opcode::Add, {101}, {100, 1}));
  BB.append(Instruction(Opcode::Add, {102}, {101, 2}));
  BB.append(Instruction(Opcode::StoreInt, {}, {102, 3}));
  return BB;
}

/// A tiny block: one move and a return.
inline BasicBlock makeTrivialBlock(uint64_t ExecCount = 1) {
  BasicBlock BB("trivial", ExecCount);
  BB.append(Instruction(Opcode::Move, {100}, {0}));
  BB.append(Instruction(Opcode::Ret, {}, {}));
  return BB;
}

/// The dependence DAG of \p BB under \p Model, built in a fresh graph.
inline DependenceGraph buildDag(const BasicBlock &BB,
                                const MachineModel &Model) {
  DependenceGraph G;
  DagBuildScratch Scratch;
  G.build(BB, Model, Scratch);
  return G;
}

/// The list-scheduled order of \p BB under \p Model, from a fresh
/// SchedContext.
inline std::vector<int> scheduleBlock(const BasicBlock &BB,
                                      const MachineModel &Model) {
  SchedContext Ctx;
  std::vector<int> Order;
  ListScheduler(Model).schedule(BB, Ctx, Order);
  return Order;
}

/// Shrinks every spec of a suite so tests run in milliseconds.
inline std::vector<BenchmarkSpec>
shrinkSuite(std::vector<BenchmarkSpec> Suite, int NumMethods = 10) {
  for (BenchmarkSpec &S : Suite)
    S.NumMethods = NumMethods;
  return Suite;
}

/// Single-app serving: \p P as the lone app of a MultiAppService (the
/// service borrows its programs, so this keeps a copy for the run).
/// \p Reg, when given, receives the lineage stamped as workload "test".
inline MultiAppStats serveOneApp(const Program &P, const MachineModel &M,
                                 const ServiceConfig &Cfg,
                                 const RuleSet *Rules, TaskPool &Pool,
                                 double Weight = 1.0,
                                 FilterRegistry *Reg = nullptr) {
  std::vector<AppSpec> Apps(1);
  Apps[0].Spec.Name = P.getName();
  Apps[0].Weight = Weight;
  std::vector<Program> Programs{P};
  MultiAppService Svc(Apps, Programs, M, Cfg, Rules, Pool);
  if (Reg)
    Svc.setFilterRegistry(Reg, "test", M.getName());
  return Svc.run();
}

/// The LS-vs-L/N comparison of serveOneApp's single-app stream.
inline MultiAppComparison compareOneApp(const Program &P,
                                        const MachineModel &M,
                                        const ServiceConfig &Cfg,
                                        const RuleSet &Rules,
                                        TaskPool &Pool) {
  std::vector<AppSpec> Apps(1);
  Apps[0].Spec.Name = P.getName();
  std::vector<Program> Programs{P};
  return runMultiAppComparison(Apps, Programs, M, Cfg, Rules, Pool);
}

} // namespace test
} // namespace schedfilter

#endif // SCHEDFILTER_TESTS_TESTHELPERS_H
