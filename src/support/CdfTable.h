//===- support/CdfTable.h - Exact guide-table CDF sampling ------*- C++ -*-===//
///
/// \file
/// Constant-expected-time inverse-transform sampling over a cumulative
/// weight vector, exact to the bit: for every 53-bit draw \p Raw,
/// index(Raw) returns
///
///   min(upper_bound(Cum, double(Raw) * 0x1p-53 * Cum.back()), n - 1)
///
/// -- the index the std::upper_bound recipe returns for
/// Rng::uniform() * Total, because uniform() == next53() * 0x1p-53.
///
/// How: a guide table of K = 2^k >= 2n buckets, indexed by the top k bits
/// of the draw.  Bucket b starts at Guide[b] = upper_bound(Cum, U_min(b)),
/// where U_min(b) is the scaled value of the bucket's smallest draw,
/// computed with the same expression as the draw itself.  Scaling by a
/// positive total is monotone under rounding, so every draw in bucket b
/// has U >= U_min(b), its upper_bound index is >= Guide[b], and scanning
/// forward while Cum[i] <= U lands on it exactly.  Each bucket spans at
/// most n/K + 1 entries in expectation, so the scan averages <= 1.5
/// probes; an +inf sentinel after the last entry bounds it without an
/// index check.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SUPPORT_CDFTABLE_H
#define SCHEDFILTER_SUPPORT_CDFTABLE_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace schedfilter {

class CdfTable {
public:
  CdfTable() = default;
  explicit CdfTable(const std::vector<double> &Running) { rebuild(Running); }

  /// Rebuilds the table over \p Running: a non-decreasing running sum of
  /// finite, non-negative weights (duplicates -- zero weights -- allowed).
  /// Its last entry is the total the draws scale by; an empty sum gives
  /// an empty table of total 0, which must not be drawn from.  Reuses
  /// storage, so a per-epoch rebuild of a same-sized CDF does not
  /// allocate.
  void rebuild(const std::vector<double> &Running) {
    assert(Running.size() < (size_t(1) << 31) && "CdfTable index overflow");
    N = Running.size();
    Total = N ? Running.back() : 0.0;
    Cum.assign(Running.begin(), Running.end());
    Cum.push_back(std::numeric_limits<double>::infinity());

    unsigned K = 1; // log2 of the bucket count
    while ((size_t(1) << K) < 2 * N)
      ++K;
    Shift = 53 - K;
    Guide.resize(size_t(1) << K);
    // U_min rises with b, so one forward walk finds every upper_bound.
    uint32_t I = 0;
    for (size_t B = 0; B != Guide.size(); ++B) {
      double UMin = scaled(static_cast<uint64_t>(B) << Shift);
      while (Cum[I] <= UMin)
        ++I;
      Guide[B] = I;
    }
  }

  /// The index \p Raw (a 53-bit draw, e.g. Rng::next53()) selects.
  size_t index(uint64_t Raw) const {
    assert(N && "draw from an empty CdfTable");
    double U = scaled(Raw);
    uint32_t I = Guide[Raw >> Shift];
    // Two branch-free probes settle nearly every draw; the sentinel
    // stops them at n.  The loop finishes a long bucket.
    I += Cum[I] <= U;
    I += Cum[I] <= U;
    while (Cum[I] <= U)
      ++I;
    return std::min<size_t>(I, N - 1);
  }

  size_t size() const { return N; }
  double total() const { return Total; }

private:
  /// The draw's value on the CDF's scale: Rng::uniform() * Total, bit for
  /// bit (both products are evaluated left to right).
  double scaled(uint64_t Raw) const {
    return static_cast<double>(Raw) * 0x1p-53 * Total;
  }

  size_t N = 0;
  double Total = 0.0;
  unsigned Shift = 53;
  std::vector<double> Cum;     ///< the running sum, then an +inf sentinel
  std::vector<uint32_t> Guide; ///< first candidate index per bucket
};

} // namespace schedfilter

#endif // SCHEDFILTER_SUPPORT_CDFTABLE_H
