//===- io/CorpusCache.cpp - On-disk corpus of traced benchmarks -------------===//

#include "io/CorpusCache.h"

#include "io/TraceStore.h"
#include "support/StringUtils.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iterator>

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
  std::string FamilySeg = K.Family.empty() ? "" : sanitize(K.Family) + "__";
  return Dir + "/" + sanitize(K.Benchmark) + "__" + sanitize(K.Model) +
         "__" + FamilySeg + "g" + std::to_string(K.GeneratorVersion) + "p" +
         std::to_string(K.PipelineVersion) + "__" +
         formatHex64(K.SpecFingerprint) + ".sfcc";
}

std::optional<CachedRun>
CorpusCache::load(const CorpusKey &K,
                  std::optional<uint64_t> ExpectedRecords) {
  std::ifstream IS(entryPath(K), std::ios::binary);
  if (!IS) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++S.Misses;
    return std::nullopt;
  }

  auto Invalid = [&]() -> std::optional<CachedRun> {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++S.Misses;
    ++S.InvalidEntries;
    return std::nullopt;
  };

  std::string Bytes((std::istreambuf_iterator<char>(IS)),
                    std::istreambuf_iterator<char>());
  const char *P = Bytes.data();
  const char *End = P + Bytes.size();

  // Magic line.
  const size_t MagicLen = sizeof(CorpusEntryMagic); // includes the '\n' slot
  if (Bytes.size() < MagicLen ||
      Bytes.compare(0, MagicLen - 1, CorpusEntryMagic) != 0 ||
      Bytes[MagicLen - 1] != '\n')
    return Invalid();
  P += MagicLen;

  // Whole-body checksum: everything after this field -- key, reports and
  // records alike.  A flipped bit in the report block must be as fatal
  // as one in the payload.
  uint64_t Checksum;
  if (!wire::getU64(P, End, Checksum) ||
      wire::fnv1a(P, static_cast<size_t>(End - P)) != Checksum)
    return Invalid();

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
    return Invalid();
  if (GenVersion != K.GeneratorVersion ||
      PipeVersion != K.PipelineVersion ||
      Fingerprint != K.SpecFingerprint || Bench != K.Benchmark ||
      Model != K.Model || Family != K.Family)
    return Invalid();

  CachedRun Run;
  if (!getReport(P, End, Run.NeverReport) ||
      !getReport(P, End, Run.AlwaysReport))
    return Invalid();

  uint64_t Count;
  if (!wire::getU64(P, End, Count))
    return Invalid();
  if (ExpectedRecords && Count != *ExpectedRecords)
    return Invalid();
  const uint64_t RecordSize = NumFeatures * 8 + 24;
  const uint64_t Avail = static_cast<uint64_t>(End - P);
  if (Count > Avail / RecordSize || Count * RecordSize != Avail)
    return Invalid();
  ParseResult<std::vector<BlockRecord>> Records =
      wire::decodeRecords(P, End, Count);
  if (!Records)
    return Invalid();
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

  std::string Bytes(CorpusEntryMagic);
  Bytes += '\n';
  wire::putU64(Bytes, wire::fnv1a(Body.data(), Body.size()));
  Bytes += Body;

  bool Ok = wire::writeFileAtomic(entryPath(K), Bytes);
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
