//===- tools/CorpusOption.h - Shared --corpus-dir/--no-cache ----*- C++ -*-===//
///
/// \file
/// One place for the sf-* tools and the suite-level bench drivers to
/// resolve the corpus-cache flags, like JobsOption.h does for --jobs, so
/// the defaulting rules and error messages cannot drift between them:
///
///   (default)          cache under CorpusCache::defaultDirectory()
///                      ($SCHEDFILTER_CORPUS_DIR / XDG / ~/.cache); when
///                      no location resolves, caching is silently off
///   --corpus-dir DIR   cache under DIR (must be creatable: error if not)
///   --no-cache         caching off (always retrace)
///
/// Cached and uncached runs produce bit-identical results (the engine
/// guarantees it; tests/corpuscache_test.cpp pins it), so the flags are
/// purely wall-clock knobs -- which is why caching can default on.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_TOOLS_CORPUSOPTION_H
#define SCHEDFILTER_TOOLS_CORPUSOPTION_H

#include "io/CorpusCache.h"
#include "support/CommandLine.h"

#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>

namespace schedfilter {

/// Resolves the corpus-cache flags.  Outer nullopt = invalid flags (an
/// error was printed; exit non-zero).  Inner null = caching disabled.
/// Otherwise an owning cache handle: keep it alive for the engine's
/// lifetime and attach with ExperimentEngine::setCorpusCache(Ptr.get()).
inline std::optional<std::unique_ptr<CorpusCache>>
parseCorpusOption(const CommandLine &CL) {
  bool NoCache = CL.has("no-cache");
  std::string Dir = CL.get("corpus-dir");
  if (NoCache && !Dir.empty()) {
    std::cerr << "error: --no-cache and --corpus-dir are mutually "
                 "exclusive\n";
    return std::nullopt;
  }
  if (NoCache)
    return std::unique_ptr<CorpusCache>();

  bool Explicit = !Dir.empty();
  if (!Explicit) {
    Dir = CorpusCache::defaultDirectory();
    if (Dir.empty())
      return std::unique_ptr<CorpusCache>();
  }
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    if (Explicit) {
      std::cerr << "error: cannot create corpus directory '" << Dir
                << "': " << EC.message() << '\n';
      return std::nullopt;
    }
    std::cerr << "warning: corpus cache disabled (cannot create '" << Dir
              << "': " << EC.message() << ")\n";
    return std::unique_ptr<CorpusCache>();
  }
  return std::make_unique<CorpusCache>(Dir);
}

} // namespace schedfilter

#endif // SCHEDFILTER_TOOLS_CORPUSOPTION_H
