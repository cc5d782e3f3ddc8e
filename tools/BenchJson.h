//===- tools/BenchJson.h - Shared BENCH_*.json writing ----------*- C++ -*-===//
///
/// \file
/// One place for every bench driver that persists a BENCH_*.json file to
/// resolve its output path (--out, or the driver's default name) and
/// write it safely: the write is flushed and error-checked, so a full
/// disk or an unwritable directory fails the run loudly instead of
/// leaving a silent empty file behind.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_TOOLS_BENCHJSON_H
#define SCHEDFILTER_TOOLS_BENCHJSON_H

#include "support/CommandLine.h"

#include <fstream>
#include <iostream>
#include <string>

namespace schedfilter {

/// Resolves where a bench driver writes its JSON: the value of --out
/// when given, \p Default otherwise.
inline std::string benchOutPath(const CommandLine &CL,
                                const std::string &Default) {
  return CL.get("out", Default);
}

/// Writes \p Json to \p Path with an explicit flush and stream-state
/// check.  Returns true and prints "wrote PATH" to stdout on success;
/// prints an error to stderr and returns false otherwise (callers exit
/// non-zero -- a bench whose trajectory file did not land must not look
/// green).
inline bool writeBenchJson(const std::string &Path, const std::string &Json) {
  std::ofstream OS(Path);
  OS << Json;
  OS.flush();
  if (!OS) {
    std::cerr << "error: failed writing " << Path << '\n';
    return false;
  }
  std::cout << "wrote " << Path << '\n';
  return true;
}

} // namespace schedfilter

#endif // SCHEDFILTER_TOOLS_BENCHJSON_H
