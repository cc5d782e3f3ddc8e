//===- io/CorpusCache.h - On-disk corpus of traced benchmarks ---*- C++ -*-===//
///
/// \file
/// The per-machine corpus cache: every suite-level driver traces each
/// benchmark once, then loads bit-identical records (and the two
/// fixed-policy compile reports) from disk thereafter.  Tracing dominates
/// the wall time of every bench driver -- the full SPECjvm98 stand-in is
/// 8,827 blocks, each scheduled and simulated twice -- and its output is a
/// pure function of the cache key, so a warm run skips the whole phase.
///
/// An entry is keyed by (benchmark name, machine-model name, workload
/// family, per-family generator version, trace-pipeline version,
/// benchmark-spec fingerprint):
///   - Family + GeneratorVersion come from the benchmark's registered
///     WorkloadFamily (workloads/WorkloadFamily.h): each family versions
///     its own program synthesis, so bumping one family's version
///     invalidates that family's corpora and leaves every other family
///     warm.  TracePipelineVersion (harness/Experiments.h) must be
///     bumped by any change to the scheduler, simulator or machine-model
///     tables the records are computed with, and invalidates every
///     cached corpus at once.
///   - The spec fingerprint hashes every BenchmarkSpec field, so a
///     modified spec (a shrunken test suite, an ablation variant) can
///     never collide with the stock benchmark of the same name.
///
/// Entries are single files in the SFCC1 format: after the magic line,
/// an FNV-1a checksum covering the whole remaining body -- the embedded
/// key (verified on load: a renamed file cannot lie about its contents),
/// the NS/LS compile reports, and the SFTB1-encoded record payload
/// (io/TraceStore.h).  Loads never trust a file: any mismatch -- magic,
/// checksum, key, feature count, size -- counts as a miss and the
/// benchmark is retraced and the entry rewritten.  Stores write to a
/// temporary file and rename, so concurrent drivers only ever observe
/// complete entries.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_IO_CORPUSCACHE_H
#define SCHEDFILTER_IO_CORPUSCACHE_H

#include "filter/Pipeline.h"
#include "ml/Labeler.h"

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace schedfilter {

/// Magic of the corpus-entry format, the first line of every SFCC1 entry
/// file.  Version bumps change this string (a new magic, never a silent
/// format change); the sf-* tools report it under --version so a support
/// ticket can name the exact artifact format in play.
inline constexpr char CorpusEntryMagic[] = "SFCC1";

/// Identity of one traced benchmark corpus.
struct CorpusKey {
  std::string Benchmark;        ///< BenchmarkSpec::Name
  std::string Model;            ///< MachineModel::getName()
  uint32_t GeneratorVersion = 0; ///< the family's version()
  uint32_t PipelineVersion = 0;  ///< harness/Experiments.h
  uint64_t SpecFingerprint = 0;  ///< specFingerprint(Spec)
  std::string Family;            ///< BenchmarkSpec::Family
};

/// What generateSuiteData produces per benchmark, minus the Program
/// (regenerated deterministically from the spec at load time).
struct CachedRun {
  std::vector<BlockRecord> Records;
  CompileReport NeverReport;
  CompileReport AlwaysReport;
};

/// Thread-safe on-disk cache of CachedRun entries.  Per-key file I/O is
/// lock-free (suite keys are distinct); only the counters share a mutex.
class CorpusCache {
public:
  explicit CorpusCache(std::string Directory);

  const std::string &directory() const { return Dir; }

  /// The entry file for \p K:
  /// <dir>/<bench>__<model>__<family>__g<gen>p<pipe>__<hash>.sfcc
  /// (the family segment is omitted for family-less keys, which keep
  /// their historical paths).
  std::string entryPath(const CorpusKey &K) const;

  /// Loads the entry for \p K.  nullopt on a cold miss or on any
  /// validation failure (counted separately as InvalidEntries) -- a hit
  /// is only ever reported for an entry that passed every check.  When
  /// \p ExpectedRecords is given, an entry with any other record count
  /// is invalid too (the engine passes the regenerated program's block
  /// count, catching stale entries that survived an un-bumped version).
  std::optional<CachedRun>
  load(const CorpusKey &K,
       std::optional<uint64_t> ExpectedRecords = std::nullopt);

  /// Writes the entry for \p K (temp file + rename).  Returns false --
  /// and leaves no partial entry behind -- when the directory or file is
  /// unwritable.  The reference overload serializes straight from the
  /// caller's storage (the cold path holds multi-megabyte record
  /// vectors; no copy into a CachedRun needed).
  bool store(const CorpusKey &K, const std::vector<BlockRecord> &Records,
             const CompileReport &NeverReport,
             const CompileReport &AlwaysReport);
  bool store(const CorpusKey &K, const CachedRun &Run) {
    return store(K, Run.Records, Run.NeverReport, Run.AlwaysReport);
  }

  /// Hit/miss accounting, for tests and for --verbose style reporting.
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;         ///< includes invalid entries
    uint64_t InvalidEntries = 0; ///< present but failed validation
    uint64_t Stores = 0;
    uint64_t StoreFailures = 0;
  };
  Stats stats() const;

  /// The per-machine default: $SCHEDFILTER_CORPUS_DIR if set (empty value
  /// = caching disabled), else $XDG_CACHE_HOME/schedfilter/corpus, else
  /// $HOME/.cache/schedfilter/corpus, else "" (no resolvable location).
  static std::string defaultDirectory();

private:
  std::string Dir;
  mutable std::mutex Mutex;
  Stats S;
};

} // namespace schedfilter

#endif // SCHEDFILTER_IO_CORPUSCACHE_H
