//===- tools/VersionOption.h - Shared --help/--version/--list ---*- C++ -*-===//
///
/// \file
/// One place for every sf-* tool to answer its informational flags.
/// --version lets a support ticket name the exact artifact versions in
/// play: the two corpus-cache key versions (GeneratorVersion for program
/// synthesis, TracePipelineVersion for everything downstream of it) and
/// the on-disk format magics (SFTB1 traces, SFCC2 corpus entries, SFFR1
/// filter-registry entries).  Those values fully identify whether two
/// machines can exchange artifacts and whether a warm cache is still
/// valid -- which is exactly what a "my trace won't load" or "my numbers
/// differ" report needs to quote.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_TOOLS_VERSIONOPTION_H
#define SCHEDFILTER_TOOLS_VERSIONOPTION_H

#include "harness/Experiments.h"
#include "io/CorpusCache.h"
#include "io/FilterRegistry.h"
#include "io/TraceStore.h"
#include "support/CommandLine.h"
#include "workloads/ProgramGenerator.h"
#include "workloads/WorkloadFamily.h"

#include "WorkloadOption.h"

#include <iostream>

namespace schedfilter {

/// Answers the informational flags a tool declares, by priority: --help
/// (\p PrintUsage to stdout), else --version (\p Tool's version report),
/// else --list (every registered benchmark).  Returns true when one was
/// given; the caller exits 0.  Every sf-* tool calls it before any other
/// flag validation, so the answers are reachable even with otherwise
/// missing/invalid arguments.
inline bool handleInfoOptions(const CommandLine &CL, const char *Tool,
                              void (*PrintUsage)(std::ostream &)) {
  if (CL.has("help")) {
    PrintUsage(std::cout);
    return true;
  }
  if (!CL.has("version")) {
    if (CL.has("list"))
      printWorkloadList(std::cout);
    return CL.has("list");
  }
  std::cout << Tool << " (schedfilter)\n"
            << "  generator version:      " << GeneratorVersion
            << "   (workloads/ProgramGenerator.h)\n"
            << "  trace-pipeline version: " << TracePipelineVersion
            << "   (harness/Experiments.h)\n"
            << "  trace binary format:    " << TraceBinaryMagic
            << " (io/TraceStore.h)\n"
            << "  corpus entry format:    " << CorpusEntryMagic
            << " (io/CorpusCache.h)\n"
            << "  filter registry format: " << FilterRegistryMagic
            << " (io/FilterRegistry.h)\n"
            << "  family versions:       ";
  // Each family versions its own program synthesis (its half of the
  // corpus-cache key); a warm-cache mismatch report needs all of them.
  for (const WorkloadFamily *F : WorkloadRegistry::instance().families())
    std::cout << ' ' << F->name() << '=' << F->version();
  std::cout << "   (src/workloads/)\n";
  return true;
}

} // namespace schedfilter

#endif // SCHEDFILTER_TOOLS_VERSIONOPTION_H
