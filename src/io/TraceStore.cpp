//===- io/TraceStore.cpp - Versioned trace formats (CSV + SFTB1) ------------===//

#include "io/TraceStore.h"

#include "features/Features.h"
#include "support/StringUtils.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <thread>

#include <unistd.h>

using namespace schedfilter;

//===----------------------------------------------------------------------===//
// Wire helpers
//===----------------------------------------------------------------------===//

void wire::putU16(std::string &Out, uint16_t V) {
  for (int I = 0; I != 2; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void wire::putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void wire::putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void wire::putF64(std::string &Out, double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V), "double must be 64-bit");
  std::memcpy(&Bits, &V, sizeof(Bits));
  putU64(Out, Bits);
}

void wire::putString(std::string &Out, const std::string &S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out.append(S);
}

bool wire::getU16(const char *&P, const char *End, uint16_t &V) {
  if (End - P < 2)
    return false;
  V = 0;
  for (int I = 0; I != 2; ++I)
    V = static_cast<uint16_t>(V | static_cast<uint16_t>(
                                      static_cast<unsigned char>(P[I]))
                                      << (8 * I));
  P += 2;
  return true;
}

bool wire::getU32(const char *&P, const char *End, uint32_t &V) {
  if (End - P < 4)
    return false;
  V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(static_cast<unsigned char>(P[I])) << (8 * I);
  P += 4;
  return true;
}

bool wire::getU64(const char *&P, const char *End, uint64_t &V) {
  if (End - P < 8)
    return false;
  V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(static_cast<unsigned char>(P[I])) << (8 * I);
  P += 8;
  return true;
}

bool wire::getF64(const char *&P, const char *End, double &V) {
  uint64_t Bits;
  if (!getU64(P, End, Bits))
    return false;
  std::memcpy(&V, &Bits, sizeof(V));
  return true;
}

bool wire::getString(const char *&P, const char *End, std::string &S) {
  uint32_t Len;
  if (!getU32(P, End, Len) || static_cast<size_t>(End - P) < Len)
    return false;
  S.assign(P, Len);
  P += Len;
  return true;
}

uint64_t wire::fnv1a(const char *Data, size_t Size) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I != Size; ++I) {
    H ^= static_cast<unsigned char>(Data[I]);
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string wire::encodeRecords(const std::vector<BlockRecord> &Records) {
  std::string Payload;
  Payload.reserve(Records.size() * (NumFeatures * 8 + 24));
  for (const BlockRecord &R : Records) {
    for (unsigned F = 0; F != NumFeatures; ++F)
      putF64(Payload, R.X[F]);
    putU64(Payload, R.CostNoSched);
    putU64(Payload, R.CostSched);
    putU64(Payload, R.ExecCount);
  }
  return Payload;
}

ParseResult<std::vector<BlockRecord>>
wire::decodeRecords(const char *P, const char *End, uint64_t Count) {
  std::vector<BlockRecord> Records;
  Records.reserve(Count);
  for (uint64_t I = 0; I != Count; ++I) {
    BlockRecord R;
    bool Ok = true;
    for (unsigned F = 0; F != NumFeatures && Ok; ++F)
      Ok = getF64(P, End, R.X[F]);
    Ok = Ok && getU64(P, End, R.CostNoSched) && getU64(P, End, R.CostSched) &&
         getU64(P, End, R.ExecCount);
    if (!Ok)
      return ParseError{static_cast<size_t>(I + 1),
                        "record payload truncated"};
    for (unsigned F = 0; F != NumFeatures; ++F)
      if (!std::isfinite(R.X[F]))
        return ParseError{static_cast<size_t>(I + 1),
                          "record " + std::to_string(I + 1) + " has " +
                              getFeatureName(F) + " = " +
                              formatDoubleShortest(R.X[F]) +
                              " (features must be finite)"};
    Records.push_back(R);
  }
  return Records;
}

bool wire::writeFileAtomic(const std::string &Path, const std::string &Bytes) {
  std::error_code EC;
  std::filesystem::create_directories(
      std::filesystem::path(Path).parent_path(), EC); // best effort

  // A temp name unique to the writing process and thread, then an atomic
  // rename: a concurrent reader sees the old file or the new one, never
  // torn bytes.  A thread's writes are sequential and each renames its
  // temp away before returning, so no two live writes share the name.
  std::string Tmp =
      Path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(std::hash<std::thread::id>()(std::this_thread::get_id()));
  {
    std::ofstream OS(Tmp, std::ios::binary | std::ios::trunc);
    if (!OS)
      return false;
    OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    OS.flush();
    if (!OS) {
      OS.close();
      std::filesystem::remove(Tmp, EC);
      return false;
    }
  }
  std::filesystem::rename(Tmp, Path, EC);
  if (EC) {
    std::filesystem::remove(Tmp, EC);
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Shared formatting
//===----------------------------------------------------------------------===//

std::string schedfilter::formatDoubleShortest(double V) {
  char Buf[40];
  for (int Prec = 15; Prec <= 17; ++Prec) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Prec, V);
    if (std::strtod(Buf, nullptr) == V)
      break;
  }
  return Buf;
}

//===----------------------------------------------------------------------===//
// CSV
//===----------------------------------------------------------------------===//

namespace {

/// First line of an SFTB1 stream (the header-exported constant, locally
/// named for the readers/writers below).
const char *const BinaryMagicLine = TraceBinaryMagic;

std::string expectedHeader() {
  std::string H;
  for (unsigned F = 0; F != NumFeatures; ++F) {
    H += getFeatureName(F);
    H += ',';
  }
  H += "costNoSched,costSched,execCount";
  return H;
}

void stripCR(std::string &Line) {
  if (!Line.empty() && Line.back() == '\r')
    Line.pop_back();
}

void splitCells(const std::string &Line, std::vector<std::string> &Cells) {
  Cells.clear();
  size_t Start = 0;
  while (true) {
    size_t Comma = Line.find(',', Start);
    if (Comma == std::string::npos) {
      Cells.push_back(Line.substr(Start));
      return;
    }
    Cells.push_back(Line.substr(Start, Comma - Start));
    Start = Comma + 1;
  }
}

/// Strict unsigned-integer cell parse: digits only (no sign, fraction or
/// exponent), must fit uint64_t.  Returns the reason on failure, "" on
/// success -- the silent-truncation fix: "7154.5" and 2^64 used to be
/// accepted and cast through strtod.
std::string parseU64Cell(const std::string &Cell, const char *ColName,
                         uint64_t &Out) {
  if (Cell.empty())
    return std::string(ColName) + " cell is empty";
  for (char C : Cell)
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return std::string(ColName) + " cell '" + Cell +
             "' is not an unsigned integer";
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Cell.c_str(), &End, 10);
  if (errno == ERANGE)
    return std::string(ColName) + " cell '" + Cell + "' overflows uint64_t";
  Out = V;
  return "";
}

ParseResult<std::vector<BlockRecord>> readTraceCsvBody(std::istream &IS,
                                                       std::string Header) {
  if (Header != expectedHeader())
    return ParseError{1, "bad trace header (expected '" + expectedHeader() +
                             "')"};

  std::vector<BlockRecord> Records;
  std::vector<std::string> Cells;
  std::string Line;
  size_t LineNo = 1;
  const size_t ExpectedCells = NumFeatures + 3;
  while (std::getline(IS, Line)) {
    ++LineNo;
    stripCR(Line);
    if (Line.empty())
      continue;
    splitCells(Line, Cells);
    if (Cells.size() != ExpectedCells)
      return ParseError{LineNo, "row has " + std::to_string(Cells.size()) +
                                    " cells, expected " +
                                    std::to_string(ExpectedCells)};
    BlockRecord R;
    // A non-finite feature ("nan", "1e999") must never reach the
    // trainer's rank table.
    for (unsigned F = 0; F != NumFeatures; ++F) {
      std::optional<double> V = parseDecimal(Cells[F]);
      if (!V || !std::isfinite(*V))
        return ParseError{LineNo, std::string(getFeatureName(F)) + " cell '" +
                                      Cells[F] + "' is not a finite number"};
      R.X[F] = *V;
    }
    const char *Cols[3] = {"costNoSched", "costSched", "execCount"};
    uint64_t *Dsts[3] = {&R.CostNoSched, &R.CostSched, &R.ExecCount};
    for (int I = 0; I != 3; ++I) {
      std::string Why = parseU64Cell(Cells[NumFeatures + I], Cols[I], *Dsts[I]);
      if (!Why.empty())
        return ParseError{LineNo, Why};
    }
    Records.push_back(R);
  }
  return Records;
}

//===----------------------------------------------------------------------===//
// SFTB1
//===----------------------------------------------------------------------===//

ParseResult<std::vector<BlockRecord>> readTraceBinaryBody(std::istream &IS) {
  std::string Rest((std::istreambuf_iterator<char>(IS)),
                   std::istreambuf_iterator<char>());
  const char *P = Rest.data();
  const char *End = P + Rest.size();

  uint16_t FeatCount;
  uint64_t Count, Checksum;
  if (!wire::getU16(P, End, FeatCount) || !wire::getU64(P, End, Count) ||
      !wire::getU64(P, End, Checksum))
    return ParseError{0, "truncated SFTB1 header"};
  if (FeatCount != NumFeatures)
    return ParseError{0, "SFTB1 trace has " + std::to_string(FeatCount) +
                             " features per record, this build expects " +
                             std::to_string(static_cast<unsigned>(
                                 NumFeatures))};

  const uint64_t RecordSize = NumFeatures * 8 + 24;
  const uint64_t Avail = static_cast<uint64_t>(End - P);
  if (Count > Avail / RecordSize || Count * RecordSize > Avail)
    return ParseError{0, "SFTB1 payload truncated: header promises " +
                             std::to_string(Count) + " records, only " +
                             std::to_string(Avail) + " payload bytes"};
  if (Count * RecordSize < Avail)
    return ParseError{0, "SFTB1 payload has " +
                             std::to_string(Avail - Count * RecordSize) +
                             " trailing bytes"};
  if (wire::fnv1a(P, static_cast<size_t>(Avail)) != Checksum)
    return ParseError{0, "SFTB1 checksum mismatch (corrupt payload)"};
  return wire::decodeRecords(P, End, Count);
}

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

void schedfilter::writeTrace(const std::vector<BlockRecord> &Records,
                             std::ostream &OS, TraceFormat Format) {
  if (Format == TraceFormat::Csv) {
    OS << expectedHeader() << '\n';
    for (const BlockRecord &R : Records) {
      for (unsigned F = 0; F != NumFeatures; ++F)
        OS << formatDoubleShortest(R.X[F]) << ',';
      OS << R.CostNoSched << ',' << R.CostSched << ',' << R.ExecCount << '\n';
    }
    return;
  }

  std::string Payload = wire::encodeRecords(Records);
  std::string Header(BinaryMagicLine);
  Header += '\n';
  wire::putU16(Header, NumFeatures);
  wire::putU64(Header, Records.size());
  wire::putU64(Header, wire::fnv1a(Payload.data(), Payload.size()));
  OS.write(Header.data(), static_cast<std::streamsize>(Header.size()));
  OS.write(Payload.data(), static_cast<std::streamsize>(Payload.size()));
}

ParseResult<std::vector<BlockRecord>> schedfilter::readTrace(std::istream &IS) {
  std::string First;
  if (!std::getline(IS, First))
    return ParseError{0, "empty input (expected a trace header or SFTB1 "
                         "magic)"};
  if (First == BinaryMagicLine)
    return readTraceBinaryBody(IS);
  stripCR(First);
  return readTraceCsvBody(IS, std::move(First));
}

ParseResult<std::vector<BlockRecord>>
schedfilter::readTraceFile(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS)
    return ParseError{0, "cannot open file"}; // callers prefix the path
  return readTrace(IS);
}
