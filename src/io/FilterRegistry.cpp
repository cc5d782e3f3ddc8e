//===- io/FilterRegistry.cpp - On-disk filter-version lineage ---------------===//

#include "io/FilterRegistry.h"

#include "io/TraceStore.h"
#include "ml/Serialization.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

using namespace schedfilter;

FilterRegistry::FilterRegistry(std::string Directory)
    : Dir(std::move(Directory)) {}

std::string FilterRegistry::entryPath(uint32_t Version) const {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "v%06u.sffr", Version);
  return Dir + "/" + Name;
}

bool FilterRegistry::store(const FilterVersionMeta &Meta,
                           const RuleSet &Rules) {
  std::string RulesText;
  {
    std::ostringstream OS;
    writeRuleSet(Rules, OS);
    RulesText = OS.str();
  }

  std::string Body;
  wire::putU32(Body, Meta.Version);
  wire::putU32(Body, Meta.ParentVersion);
  wire::putU64(Body, Meta.TriggerTick);
  wire::putU64(Body, Meta.SessionSeed);
  wire::putU64(Body, Meta.CorpusRecords);
  wire::putF64(Body, Meta.ThresholdPct);
  wire::putString(Body, Meta.Model);
  wire::putString(Body, Meta.Workload);
  wire::putString(Body, RulesText);

  std::string Bytes(FilterRegistryMagic);
  Bytes += '\n';
  wire::putU64(Bytes, wire::fnv1a(Body.data(), Body.size()));
  Bytes += Body;

  bool Ok = wire::writeFileAtomic(entryPath(Meta.Version), Bytes);
  ++(Ok ? S.Stores : S.StoreFailures);
  return Ok;
}

ParseResult<RegistryEntry> FilterRegistry::load(uint32_t Version) const {
  std::string Path = entryPath(Version);
  auto Fail = [&](const std::string &Why) {
    return ParseResult<RegistryEntry>(ParseError{0, Path + ": " + Why});
  };

  std::ifstream IS(Path, std::ios::binary);
  if (!IS)
    return Fail("cannot open registry entry");

  std::string Bytes((std::istreambuf_iterator<char>(IS)),
                    std::istreambuf_iterator<char>());
  const char *P = Bytes.data();
  const char *End = P + Bytes.size();

  // Magic line.
  const size_t MagicLen = sizeof(FilterRegistryMagic); // includes '\n' slot
  if (Bytes.size() < MagicLen ||
      Bytes.compare(0, MagicLen - 1, FilterRegistryMagic) != 0 ||
      Bytes[MagicLen - 1] != '\n')
    return Fail("not an SFFR1 registry entry");
  P += MagicLen;

  // Whole-body checksum before believing a single field.
  uint64_t Checksum;
  if (!wire::getU64(P, End, Checksum))
    return Fail("truncated entry (no checksum)");
  if (wire::fnv1a(P, static_cast<size_t>(End - P)) != Checksum)
    return Fail("checksum mismatch (corrupt or truncated entry)");

  RegistryEntry E;
  std::string RulesText;
  if (!wire::getU32(P, End, E.Meta.Version) ||
      !wire::getU32(P, End, E.Meta.ParentVersion) ||
      !wire::getU64(P, End, E.Meta.TriggerTick) ||
      !wire::getU64(P, End, E.Meta.SessionSeed) ||
      !wire::getU64(P, End, E.Meta.CorpusRecords) ||
      !wire::getF64(P, End, E.Meta.ThresholdPct) ||
      !wire::getString(P, End, E.Meta.Model) ||
      !wire::getString(P, End, E.Meta.Workload) ||
      !wire::getString(P, End, RulesText))
    return Fail("truncated entry body");
  if (P != End)
    return Fail("trailing bytes after entry body");

  // Embedded version must match the filename's: an entry renamed onto
  // another version number must not be believed.
  if (E.Meta.Version != Version)
    return Fail("embedded version " + std::to_string(E.Meta.Version) +
                " does not match requested version " +
                std::to_string(Version));

  std::istringstream RS(RulesText);
  ParseResult<RuleSet> Rules = readRuleSet(RS);
  if (!Rules)
    return Fail("bad rule set in entry: " + Rules.error().str());
  E.Rules = std::move(*Rules);
  return ParseResult<RegistryEntry>(std::move(E));
}

std::vector<uint32_t> FilterRegistry::listVersions() const {
  std::vector<uint32_t> Versions;
  std::error_code EC;
  std::filesystem::directory_iterator It(Dir, EC);
  if (EC)
    return Versions;
  for (const auto &Entry : It) {
    std::string Name = Entry.path().filename().string();
    // v%06u.sffr and nothing else: 12 chars, digits in [1,7).
    if (Name.size() != 12 || Name[0] != 'v' ||
        Name.compare(7, 5, ".sffr") != 0)
      continue;
    uint32_t V = 0;
    bool AllDigits = true;
    for (size_t I = 1; I != 7; ++I) {
      if (Name[I] < '0' || Name[I] > '9') {
        AllDigits = false;
        break;
      }
      V = V * 10 + static_cast<uint32_t>(Name[I] - '0');
    }
    if (AllDigits)
      Versions.push_back(V);
  }
  std::sort(Versions.begin(), Versions.end());
  return Versions;
}
