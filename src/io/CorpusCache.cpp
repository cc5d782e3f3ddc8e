//===- io/CorpusCache.cpp - On-disk corpus of traced benchmarks -------------===//

#include "io/CorpusCache.h"

#include "io/TraceStore.h"
#include "support/StringUtils.h"

#include <cctype>
#include <cstdlib>

using namespace schedfilter;

namespace {

/// Benchmark/model names are short identifiers, but never trust them as
/// path components: keep [A-Za-z0-9._-], replace the rest.
std::string sanitize(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    bool Safe = std::isalnum(static_cast<unsigned char>(C)) || C == '.' ||
                C == '_' || C == '-';
    Out.push_back(Safe ? C : '_');
  }
  return Out.empty() ? "unnamed" : Out;
}

void putReport(std::string &Out, const CompileReport &R) {
  wire::putU32(Out, static_cast<uint32_t>(R.Policy));
  wire::putU64(Out, R.NumBlocks);
  wire::putU64(Out, R.NumScheduled);
  wire::putF64(Out, R.SchedulingSeconds);
  wire::putU64(Out, R.SchedulingWork);
  wire::putU64(Out, R.FilterWork);
  wire::putF64(Out, R.SimulatedTime);
}

bool getReport(const char *&P, const char *End, CompileReport &R) {
  uint32_t Policy;
  if (!wire::getU32(P, End, Policy) || Policy > 2)
    return false;
  R.Policy = static_cast<SchedulingPolicy>(Policy);
  return wire::getU64(P, End, R.NumBlocks) &&
         wire::getU64(P, End, R.NumScheduled) &&
         wire::getF64(P, End, R.SchedulingSeconds) &&
         wire::getU64(P, End, R.SchedulingWork) &&
         wire::getU64(P, End, R.FilterWork) &&
         wire::getF64(P, End, R.SimulatedTime);
}

} // namespace

CorpusCache::CorpusCache(std::string Directory) : Dir(std::move(Directory)) {}

std::string CorpusCache::entryPath(const CorpusKey &K) const {
  return Dir + "/" + sanitize(K.Benchmark) + "__" + sanitize(K.Model) +
         "__" + sanitize(K.Family) + "__g" +
         std::to_string(K.GeneratorVersion) + "p" +
         std::to_string(K.PipelineVersion) + "__" +
         formatHex64(K.SpecFingerprint) + ".sfcc";
}

std::optional<CachedRun>
CorpusCache::load(const CorpusKey &K,
                  std::optional<uint64_t> ExpectedRecords) {
  // The envelope's checksum covers key, reports and records alike: a
  // flipped bit in the report block is as fatal as one in the payload.
  // A missing entry is a plain miss; one read but refused is invalid too.
  wire::SealedFile File = wire::unseal(entryPath(K), CorpusEntryMagic);
  auto Miss = [&]() -> std::optional<CachedRun> {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++S.Misses;
    S.InvalidEntries += File.Fault != wire::SealFault::Unreadable;
    return std::nullopt;
  };
  if (File.Fault != wire::SealFault::None)
    return Miss();
  const char *P = File.body();
  const char *End = File.end();

  // Header: the full key, embedded and verified -- an entry renamed onto
  // another key must not be believed.
  uint16_t FeatCount;
  uint32_t GenVersion, PipeVersion;
  uint64_t Fingerprint;
  std::string Bench, Model, Family;
  if (!wire::getU16(P, End, FeatCount) || FeatCount != NumFeatures ||
      !wire::getU32(P, End, GenVersion) ||
      !wire::getU32(P, End, PipeVersion) ||
      !wire::getU64(P, End, Fingerprint) ||
      !wire::getString(P, End, Bench) || !wire::getString(P, End, Model) ||
      !wire::getString(P, End, Family))
    return Miss();
  if (GenVersion != K.GeneratorVersion ||
      PipeVersion != K.PipelineVersion ||
      Fingerprint != K.SpecFingerprint || Bench != K.Benchmark ||
      Model != K.Model || Family != K.Family)
    return Miss();

  CachedRun Run;
  if (!getReport(P, End, Run.NeverReport) ||
      !getReport(P, End, Run.AlwaysReport))
    return Miss();

  uint64_t Count;
  if (!wire::getU64(P, End, Count))
    return Miss();
  if (ExpectedRecords && Count != *ExpectedRecords)
    return Miss();
  const uint64_t RecordSize = NumFeatures * 8 + 24;
  const uint64_t Avail = static_cast<uint64_t>(End - P);
  if (Count > Avail / RecordSize || Count * RecordSize != Avail)
    return Miss();
  ParseResult<std::vector<BlockRecord>> Records =
      wire::decodeRecords(P, End, Count);
  if (!Records)
    return Miss();
  Run.Records = std::move(*Records);

  std::lock_guard<std::mutex> Lock(Mutex);
  ++S.Hits;
  return Run;
}

bool CorpusCache::store(const CorpusKey &K,
                        const std::vector<BlockRecord> &Records,
                        const CompileReport &NeverReport,
                        const CompileReport &AlwaysReport) {
  std::string Body;
  wire::putU16(Body, NumFeatures);
  wire::putU32(Body, K.GeneratorVersion);
  wire::putU32(Body, K.PipelineVersion);
  wire::putU64(Body, K.SpecFingerprint);
  wire::putString(Body, K.Benchmark);
  wire::putString(Body, K.Model);
  wire::putString(Body, K.Family);
  putReport(Body, NeverReport);
  putReport(Body, AlwaysReport);
  wire::putU64(Body, Records.size());
  Body += wire::encodeRecords(Records);

  bool Ok =
      wire::writeFileAtomic(entryPath(K), wire::seal(CorpusEntryMagic, Body));
  std::lock_guard<std::mutex> Lock(Mutex);
  ++(Ok ? S.Stores : S.StoreFailures);
  return Ok;
}

CorpusCache::Stats CorpusCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return S;
}

std::string CorpusCache::defaultDirectory() {
  if (const char *E = std::getenv("SCHEDFILTER_CORPUS_DIR"))
    return E; // empty value = explicitly disabled
  if (const char *X = std::getenv("XDG_CACHE_HOME"))
    if (*X)
      return std::string(X) + "/schedfilter/corpus";
  if (const char *H = std::getenv("HOME"))
    if (*H)
      return std::string(H) + "/.cache/schedfilter/corpus";
  return "";
}
