//===- io/TraceStore.h - Versioned trace formats (CSV + SFTB1) --*- C++ -*-===//
///
/// \file
/// Reading and writing the raw trace the instrumented scheduler produces
/// (§2.2): one row per block with the Table 1 features, the simulated
/// cost without and with list scheduling, and the profile weight.  Having
/// the trace on disk decouples the (expensive) tracing run from the
/// (cheap, repeatable) labeling + learning experiments, exactly as the
/// paper's offline procedure does.
///
/// Two interchangeable encodings, auto-detected on read:
///
///   CSV (human readable)  -- a header row naming every column, then one
///   row per block.  Doubles are printed with the shortest decimal that
///   parses back bit-exactly, so CSV round-trips records exactly too.
///   CRLF line endings are accepted on every line.  Feature cells must be
///   finite numbers: "nan", "inf" and overflow such as "1e999" are
///   rejected with a line diagnostic.  Cost and exec-count
///   cells must be unsigned integers: fractional, negative, or
///   uint64_t-overflowing cells are rejected with a line diagnostic
///   rather than silently truncated.
///
///   SFTB1 (binary interchange) -- little-endian, for fast exact
///   round-trips between tools and the corpus cache:
///
///     bytes 0..5   magic "SFTB1\n"
///     u16          feature count (must equal NumFeatures)
///     u64          record count
///     u64          FNV-1a 64 checksum of the payload
///     payload      per record: NumFeatures f64 (IEEE-754 bit pattern),
///                  then costNoSched, costSched, execCount as u64;
///                  a NaN or infinite feature is rejected with its record
///                  ordinal
///
/// Bumping either format is a new magic/header ("SFTB2", a "v2" header
/// line), never a silent change: readers must keep rejecting what they
/// cannot parse, with a diagnostic.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_IO_TRACESTORE_H
#define SCHEDFILTER_IO_TRACESTORE_H

#include "io/ParseResult.h"
#include "ml/Labeler.h"

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace schedfilter {

/// Magic of the binary trace format, the first line of every SFTB1 stream.
/// Version bumps change this string (a new magic, never a silent format
/// change); the sf-* tools report it under --version so a support ticket
/// can name the exact artifact format in play.
inline constexpr char TraceBinaryMagic[] = "SFTB1";

/// On-disk trace encodings.  Every reader auto-detects; writers choose.
enum class TraceFormat {
  Csv,    ///< human-readable, header row + one CSV row per block
  Binary, ///< SFTB1: little-endian, checksummed, bit-exact
};

/// Writes \p Records to \p OS in \p Format.  For Binary, \p OS must have
/// been opened in binary mode.
void writeTrace(const std::vector<BlockRecord> &Records, std::ostream &OS,
                TraceFormat Format = TraceFormat::Csv);

/// Parses a trace written by writeTrace, auto-detecting the format from
/// the first line ("SFTB1" magic => binary, else the CSV header).  On
/// failure the ParseError pinpoints the offending line (CSV) or record /
/// header field (binary).
ParseResult<std::vector<BlockRecord>> readTrace(std::istream &IS);

/// Opens \p Path in binary mode and reads it with readTrace.  A file
/// that cannot be opened is a (non-positional) ParseError.
ParseResult<std::vector<BlockRecord>> readTraceFile(const std::string &Path);

/// The shortest decimal representation of \p V that strtod parses back
/// bit-exactly (tries %.15g, %.16g, %.17g).  Used for CSV cells and
/// anywhere else a double must survive a text round trip.
std::string formatDoubleShortest(double V);

/// Low-level little-endian wire helpers shared by the SFTB1 trace format,
/// the corpus cache's SFCC1 entries and the filter registry's SFFR1
/// entries.
namespace wire {

void putU16(std::string &Out, uint16_t V);
void putU32(std::string &Out, uint32_t V);
void putU64(std::string &Out, uint64_t V);
void putF64(std::string &Out, double V);
void putString(std::string &Out, const std::string &S); ///< u32 length + bytes

/// Cursor-based readers: advance \p P, fail (return false) on underrun.
bool getU16(const char *&P, const char *End, uint16_t &V);
bool getU32(const char *&P, const char *End, uint32_t &V);
bool getU64(const char *&P, const char *End, uint64_t &V);
bool getF64(const char *&P, const char *End, double &V);
bool getString(const char *&P, const char *End, std::string &S);

/// FNV-1a 64-bit over \p Size bytes.
uint64_t fnv1a(const char *Data, size_t Size);

/// Encodes \p Records as the SFTB1/SFCC1 record payload (no header).
std::string encodeRecords(const std::vector<BlockRecord> &Records);

/// Decodes \p Count records from a payload previously produced by
/// encodeRecords; the ParseError's Line is the 1-based record ordinal.
/// A truncated record or a non-finite feature (NaN, inf) is an error.
ParseResult<std::vector<BlockRecord>>
decodeRecords(const char *P, const char *End, uint64_t Count);

/// Replaces \p Path with \p Bytes atomically: writes a temp file named
/// from the process id and a hash of the thread id, then renames it over
/// \p Path, creating the directory first (best effort).  Readers see the
/// old file or the new one, never torn bytes.  On failure the temp file
/// is removed and false returned.
bool writeFileAtomic(const std::string &Path, const std::string &Bytes);

} // namespace wire

} // namespace schedfilter

#endif // SCHEDFILTER_IO_TRACESTORE_H
