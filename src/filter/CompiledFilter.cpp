//===- filter/CompiledFilter.cpp - Branchless rule-set evaluator ------------===//

#include "filter/CompiledFilter.h"

#include "analysis/RuleAnalysis.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>
#include <tuple>

using namespace schedfilter;

namespace {

/// Exact-bit key for predicate-row deduplication: two cells share a row
/// iff feature, direction and threshold *bit pattern* all agree (bitwise,
/// so -0.0 and +0.0 -- which compare equal but are the same predicate
/// anyway -- and NaN payloads are handled without FP comparisons).
uint64_t bitsOf(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof B);
  return B;
}

} // namespace

CompiledFilter::CompiledFilter(const RuleSet &RS)
    : Default(RS.getDefaultClass()) {
  const std::vector<Rule> &Rules = RS.rules();
  size_t Total = RS.totalConditions();
  assert(Total < std::numeric_limits<uint32_t>::max() - 3 &&
         "rule set too large to index with 32-bit cells");
  NumCells = static_cast<uint32_t>(Total);
  Cells.reserve(Total);

  // Entry point of each rule: its first cell, or -- for a rule with an
  // empty antecedent, which matches everything -- directly the match
  // terminal of its conclusion.  RuleEntry[size()] is the default
  // terminal, so "fall past the last rule" needs no special case.
  std::vector<uint32_t> RuleEntry(Rules.size() + 1);
  uint32_t NextCell = 0;
  for (size_t R = 0; R != Rules.size(); ++R) {
    if (Rules[R].Conditions.empty())
      RuleEntry[R] = NumCells + (Rules[R].Conclusion == Label::LS
                                     ? TermMatchLS
                                     : TermMatchNS);
    else
      RuleEntry[R] = NextCell;
    NextCell += static_cast<uint32_t>(Rules[R].Conditions.size());
  }
  RuleEntry[Rules.size()] = NumCells + TermDefault;
  Entry = Rules.empty() ? NumCells + TermDefault : RuleEntry[0];

  // Predicate-row interning (batch mode): distinct (feature, sign,
  // threshold-bits) triples map to one compare sweep each.  A std::map
  // keyed on exact bits keeps the assignment deterministic (first
  // occurrence in cell order wins) without hash-order iteration.
  std::map<std::tuple<uint32_t, uint64_t, uint64_t>, uint32_t> Interned;

  for (size_t R = 0; R != Rules.size(); ++R) {
    const std::vector<Condition> &Conds = Rules[R].Conditions;
    for (size_t CI = 0; CI != Conds.size(); ++CI) {
      const Condition &C = Conds[CI];
      FilterCell L;
      L.Feature = C.Feature;
      // Canonicalize ">=" to "<=": x >= T  <=>  -x <= -T, exact for every
      // double (signed zeros, infinities, and NaN -- both sides are false
      // -- included), so one compare shape serves both directions.
      if (C.IsLessEqual) {
        L.Sign = 1.0;
        L.Threshold = C.Threshold;
      } else {
        L.Sign = -1.0;
        L.Threshold = -C.Threshold;
      }
      L.OnFail = RuleEntry[R + 1];
      L.OnPass = CI + 1 != Conds.size()
                     ? static_cast<uint32_t>(Cells.size()) + 1
                     : NumCells + (Rules[R].Conclusion == Label::LS
                                       ? TermMatchLS
                                       : TermMatchNS);

      auto Key = std::make_tuple(L.Feature, bitsOf(L.Sign), bitsOf(L.Threshold));
      auto It = Interned.find(Key);
      if (It == Interned.end())
        It = Interned
                 .emplace(Key, static_cast<uint32_t>(PredRows.size()))
                 .first,
        PredRows.push_back({L.Threshold, L.Sign, L.Feature});
      L.PredRow = It->second;
      Cells.push_back(L);
    }
  }

  // Batch fast-path tables (see the header): only when every cell bit,
  // one guard bit per rule, and the default bit fit one mask word.
  if (Total + Rules.size() + 1 <= 64) {
    BatchFastPath = true;
    // Sweep order: predicate rows grouped by feature (stable, so ties keep
    // first-occurrence order -- deterministic), letting consecutive sweeps
    // reuse the L1-resident column tile instead of re-streaming it.
    RowOrder.resize(PredRows.size());
    for (uint32_t J = 0; J != RowOrder.size(); ++J)
      RowOrder[J] = J;
    std::stable_sort(RowOrder.begin(), RowOrder.end(),
                     [&](uint32_t A, uint32_t B) {
                       return PredRows[A].Feature < PredRows[B].Feature;
                     });
    // Bit layout: each rule's cells in condition order, then its guard
    // bit; the default bit sits above the last guard.
    RowCellBits.assign(PredRows.size(), 0);
    unsigned Pos = 0;
    uint32_t Cell = 0;
    for (const Rule &R : Rules) {
      const unsigned Len = static_cast<unsigned>(R.Conditions.size());
      const uint64_t Prefix = (uint64_t{1} << Pos) - 1; // below this rule
      if (Len != 0)
        BaseBits |= uint64_t{1} << Pos;
      for (unsigned C = 0; C != Len; ++C, ++Pos, ++Cell) {
        CellBitsAll |= uint64_t{1} << Pos;
        RowCellBits[Cells[Cell].PredRow] |= uint64_t{1} << Pos;
      }
      GuardBits |= uint64_t{1} << Pos; // rule guard
      LenAtPos[Pos] = static_cast<unsigned char>(Len);
      LSAtPos[Pos] = R.Conclusion == Label::LS;
      PrefixMaskAtPos[Pos] = Prefix;
      ++Pos;
    }
    GuardBits |= uint64_t{1} << Pos; // default bit
    LenAtPos[Pos] = 1;               // predictionWork's default +1
    LSAtPos[Pos] = Default == Label::LS;
    PrefixMaskAtPos[Pos] = (uint64_t{1} << Pos) - 1;
  }
}

namespace {

/// Index of the lowest set bit; \p V must be nonzero.
unsigned lowestSetBit(uint64_t V) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<unsigned>(__builtin_ctzll(V));
#else
  unsigned I = 0;
  while (!(V & 1)) {
    V >>= 1;
    ++I;
  }
  return I;
#endif
}

/// Number of set bits.
unsigned popCount(uint64_t V) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<unsigned>(__builtin_popcountll(V));
#else
  unsigned N = 0;
  for (; V; V &= V - 1)
    ++N;
  return N;
#endif
}

// The two compare-sweep kernels, multi-versioned where the toolchain
// supports it: the build stays generic (no -march), but on x86-64 the
// loader picks an AVX2 clone when the CPU has it -- twice the lanes of
// the baseline SSE2 codegen.  Purely a codegen knob: double compares are
// exact at any vector width, so results are bit-identical across clones.
// ThreadSanitizer builds go without: the clones' ifunc resolver runs
// before the TSan runtime is initialized, and every binary linking this
// file crashed at startup.
#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones) && defined(__ELF__) &&                 \
    !defined(__SANITIZE_THREAD__)
#define SF_SWEEP_CLONES __attribute__((target_clones("default", "avx2")))
#endif
#endif
#ifndef SF_SWEEP_CLONES
#define SF_SWEEP_CLONES
#endif

/// Out[i] |= (Col[i] <= T) ? Bits : 0 over one tile.
SF_SWEEP_CLONES
void sweepLE(const double *Col, uint64_t *Out, size_t TN, double T,
             uint64_t Bits) {
  for (size_t I = 0; I != TN; ++I)
    Out[I] |= Col[I] <= T ? Bits : 0;
}

/// Out[i] |= (Col[i] >= T) ? Bits : 0 over one tile.
SF_SWEEP_CLONES
void sweepGE(const double *Col, uint64_t *Out, size_t TN, double T,
             uint64_t Bits) {
  for (size_t I = 0; I != TN; ++I)
    Out[I] |= Col[I] >= T ? Bits : 0;
}

} // namespace

void CompiledFilter::evaluateBatch(const FeatureMatrix &M,
                                   BatchScratch &Scratch, unsigned char *IsLS,
                                   uint64_t *Work) const {
  const size_t N = M.size();
  if (N == 0)
    return;

  if (BatchFastPath) {
    // Fast path: one mask word per block, one bit per cell (in guard-bit
    // layout; see the header).  Blocks are processed in L1-sized tiles;
    // within a tile, phase 1 sweeps every predicate row, then phase 2
    // resolves the tile while its masks are still cache-hot.  Without
    // tiling each sweep streams the full column set and the scratch
    // array through L2 once per row.
    Scratch.assign(N, 0);
    constexpr size_t Tile = 1024;
    for (size_t T0 = 0; T0 < N; T0 += Tile) {
      const size_t TN = N - T0 < Tile ? N - T0 : Tile;
      uint64_t *Out = Scratch.data() + T0;

      // Phase 1: one compare sweep per interned predicate row over its
      // SoA column tile -- the loop the compiler auto-vectorizes, and the
      // reason features are stored column-major -- fanned out to every
      // cell using that row with one OR of RowCellBits.  RowOrder groups
      // rows by feature so consecutive sweeps hit the same column tile.
      for (uint32_t J : RowOrder) {
        const PredRowInfo &R = PredRows[J];
        const double *Col = M.column(R.Feature) + T0;
        const uint64_t Bits = RowCellBits[J];
        // Specialize the sign outside the loop: -x <= T <=> x >= -T
        // (exact, NaN included -- both compares are false), sparing the
        // sweep a vector multiply per element.
        if (R.Sign > 0.0)
          sweepLE(Col, Out, TN, R.Threshold, Bits);
        else
          sweepGE(Col, Out, TN, -R.Threshold, Bits);
      }

      // Phase 2: first-match resolution in ~15 straight-line ops per
      // block -- no per-rule loop, no data-dependent branch.  Adding
      // CellBitsAll to the failed-cell mask carries into a rule's guard
      // bit iff any of its cells failed (the sum of a field and its own
      // mask overflows the field iff the field is nonzero, and the carry
      // stops at the guard bit, so adjacent rules never interfere); the
      // first clear guard is therefore the first matching rule, with the
      // always-clear default bit as the fall-through sentinel.  The
      // interpreter's short-circuit work is recovered exactly: every
      // rule strictly before the match fails, PrefixMaskAtPos cuts the
      // mask to exactly those rules' cells, and XB ^ (XB - base-bits)
      // flips, per failing rule, the cells from its first condition
      // through its first failed one -- precisely the conditions the
      // interpreter tests -- so one popcount sums the whole prefix, and
      // LenAtPos adds the matched rule's full condition count (or the
      // default's +1).
      for (size_t I = 0; I != TN; ++I) {
        const uint64_t Fail = ~Out[I] & CellBitsAll;
        const uint64_t Clear = ~(Fail + CellBitsAll) & GuardBits;
        const unsigned WinPos = lowestSetBit(Clear);
        const uint64_t Prefix = PrefixMaskAtPos[WinPos];
        const uint64_t XB = Fail & Prefix;
        const uint64_t Visited = XB ^ (XB - (BaseBits & Prefix));
        IsLS[T0 + I] = LSAtPos[WinPos];
        Work[T0 + I] = popCount(Visited) + LenAtPos[WinPos];
      }
    }
    return;
  }

  // General path (> 64 cells): predicate-row-major mask words, resolved
  // with the same cursor walk as evaluate() -- identical Work counting by
  // construction -- but each step is a bit test instead of a double
  // multiply-compare.
  const size_t Rows = PredRows.size();
  const size_t Words = (Rows + 63) / 64;
  Scratch.assign(Words * N, 0);
  for (size_t J = 0; J != Rows; ++J) {
    const PredRowInfo &R = PredRows[J];
    const double *Col = M.column(R.Feature);
    const double S = R.Sign;
    const double T = R.Threshold;
    const uint64_t Bit = uint64_t{1} << (J & 63);
    uint64_t *Out = Scratch.data() + (J >> 6) * N;
    for (size_t I = 0; I != N; ++I)
      Out[I] |= S * Col[I] <= T ? Bit : 0;
  }
  const uint32_t End = NumCells;
  const FilterCell *Cs = Cells.data();
  const uint64_t *Pred = Scratch.data();
  for (size_t I = 0; I != N; ++I) {
    uint32_t C = Entry;
    uint64_t W = 0;
    while (C < End) {
      const FilterCell &L = Cs[C];
      ++W;
      uint64_t WordV = Pred[static_cast<size_t>(L.PredRow >> 6) * N + I];
      C = (WordV >> (L.PredRow & 63)) & 1 ? L.OnPass : L.OnFail;
    }
    Decision D = terminalDecision(C, W);
    IsLS[I] = D.ScheduleLS;
    Work[I] = D.Work;
  }
}

RuleSet CompiledFilter::canonicalRules(const RuleSet &RS) {
  RuleSet Out(RS.getDefaultClass());
  for (const Rule &R : RS.rules()) {
    std::vector<char> Drop = redundantConditionMask(R);
    Rule Kept;
    Kept.Conclusion = R.Conclusion;
    Kept.NumCorrect = R.NumCorrect;
    Kept.NumIncorrect = R.NumIncorrect;
    for (size_t C = 0; C != R.Conditions.size(); ++C)
      if (!Drop[C])
        Kept.Conditions.push_back(R.Conditions[C]);
    Out.addRule(std::move(Kept));
  }
  return Out;
}
