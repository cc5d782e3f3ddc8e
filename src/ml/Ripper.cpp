//===- ml/Ripper.cpp - RIPPER rule induction --------------------------------===//
//
// The indexed training engine.  The naive trainer re-sorted every feature
// column for every candidate condition of every grown rule; this one
// never sorts during training:
//
//  - Every training set is a view of a RankTable (ml/Dataset.h): each
//    instance carries its dense rank among its feature's distinct values
//    (the Table 1 features have a few dozen to a few hundred), so a
//    value-order sweep is a walk over ranks.  Datasets labeled from one
//    suite share one table -- all 77 folds of sf-report's sweep -- and
//    train() just gathers its rows and labels; every dataset sits on a
//    table (the labeler ranks what it labels, ml/Labeler.h).  One key
//    per (feature, instance), rank << 1 | label, is its histogram slot
//    and what conditions test; the trainer keeps no copy of the values.
//  - Finding the best FOIL condition counts the covered instances' (P, N)
//    into a rank-indexed histogram per feature and walks its non-empty
//    bins in ascending order -- O(features x (covered + distinct)) per
//    condition -- with an FP-sound upper bound (gain <= P * -BaseInfo)
//    skipping provably-losing candidates.
//  - A fresh rule's first search fills by subtraction: the trainer keeps
//    a histogram of the universe the grow/prune split is drawn from (the
//    uncovered instances, or an optimization pass's reach set), takes
//    claimed instances out of it, and subtracts the prune split (a third)
//    from a copy instead of counting the grow split (two thirds).
//  - The split shuffles only as far as it settles the prune positions;
//    the other steps draw without swapping, so the Rng stream and both
//    sets are the full shuffle's.
//  - The covered set is one instance list, filtered per condition.
//  - The MDL bookkeeping is incremental: each rule's coverage bitmask is
//    an AND of its conditions' masks, each computed once per training and
//    cached, and is kept beside the rule for the rest of training
//    (replacement, revision, mop-up, deletion, the final coverage
//    counts); exception counts are popcounts against per-call class
//    masks; rule deletion bit-slices the cover count into "covered >= 1"
//    and "covered >= 2" masks, so each candidate costs one pass over the
//    words.  Theory bits are still summed in list order, so every DL
//    double is the one the per-instance computation produced.
//
// Per-feature sweeps optionally fan out across a shared TaskPool; the
// argmax is reduced in feature order with the exact strict-greater tie
// policy of the serial sweep, so the induced RuleSet is bit-for-bit
// identical at any job count and to the pre-index implementation
// (tests/ripper_engine_test.cpp pins both; perfbench's report_sweep
// tracks training cost as ml.train_s).
//
//===----------------------------------------------------------------------===//

#include "ml/Ripper.h"

#include "support/TaskPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <map>
#include <tuple>

using namespace schedfilter;

namespace {

/// Index-based view: all algorithms below manipulate vectors of instance
/// indices into one Dataset.
using IndexList = std::vector<int>;

/// Thread-safe lgamma: the C lgamma() stores the gamma function's sign
/// in the global `signgam`, which is a data race when pool workers train
/// concurrently (ThreadSanitizer flags it).  lgamma_r returns the same
/// bits with the sign in an out-parameter instead.  All call sites pass
/// arguments >= 1, so the discarded sign is always +1.
double logGamma(double X) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int Sign;
  return lgamma_r(X, &Sign);
#else
  return std::lgamma(X);
#endif
}

/// log2 of the binomial coefficient C(n, k), via lgamma for stability.
double log2Binomial(size_t N, size_t K) {
  if (K > N)
    return 0.0;
  double L = logGamma(static_cast<double>(N) + 1.0) -
             logGamma(static_cast<double>(K) + 1.0) -
             logGamma(static_cast<double>(N - K) + 1.0);
  return L / std::log(2.0);
}

/// Bits to identify which K of N elements are exceptions (Quinlan-style
/// two-part exception code).
double subsetDL(size_t N, size_t K) {
  if (N == 0)
    return 0.0;
  return std::log2(static_cast<double>(N) + 1.0) + log2Binomial(N, K);
}

/// Fisher-Yates over \p V, but swapping only while a step settles a
/// position at or past \p Keep: those positions end up exactly as the full
/// shuffle leaves them, and so does the set in [0, Keep).  The remaining
/// steps consume the Rng exactly as Rng::below would (same rejection
/// test) without the swap.
void shuffleTail(IndexList &V, size_t Keep, Rng &R) {
  size_t I = V.size();
  for (; I > 1 && I > Keep; --I)
    std::swap(V[I - 1], V[R.below(static_cast<uint32_t>(I))]);
  for (; I > 1; --I) {
    uint32_t B = static_cast<uint32_t>(I), X;
    do
      X = R.next32();
    while (X < B && X < (0u - B) % B);
  }
}

/// One feature's best candidate from a value-order sweep; reduced across
/// features in index order.
struct FeatureBest {
  double Gain = 0.0;
  double Value = 0.0;
  bool IsLessEqual = true;
  bool Found = false;
  size_t P = 0, N = 0; // covered instances the condition keeps
};

/// One call's instances as class bitmasks, one bit per training instance:
/// exception counts for the MDL are popcounts against them.
struct ClassMasks {
  std::vector<uint64_t> Pos, Neg;
  size_t NumPos = 0, NumNeg = 0;
};

/// Covered instances of each class.
struct Coverage {
  size_t Pos = 0, Neg = 0;
};

/// A rule list plus each rule's coverage mask over the training set: the
/// masks ride along through every pass (replacement, revision, mop-up,
/// deletion), so the MDL bookkeeping never re-evaluates a settled rule.
struct RuleList {
  std::vector<Rule> Rules;
  std::vector<std::vector<uint64_t>> Masks;
};

/// The whole learning state threaded through the helper routines: the
/// training set's view of its rank table, gathered once per train() call,
/// plus reusable coverage, histogram and mask scratch.
struct Trainer {
  const RipperOptions &Opts;
  Label Target;
  TaskPool *Pool; // may be null: run every feature loop inline
  double CondSpaceBits; // log2(#possible conditions), for the theory DL
  size_t N;             // training instances
  size_t Words;         // 64-bit words per instance bitmask

  // --- The immutable per-train() view, gathered from the rank table. ---
  /// IsPos[i]: instance i's label equals the target class.
  std::vector<uint8_t> IsPos;
  /// Key[F * N + i]: (r << 1) | IsPos[i] for instance i's rank r in the
  /// table's feature F -- its slot in feature F's histograms.
  std::vector<uint32_t> Key;
  /// RankValue[F][r]: the value of rank r, bit for bit as the
  /// lowest-index training instance holding it (ranks no instance holds
  /// are never read).
  std::vector<std::vector<double>> RankValue;
  /// Per feature: the histogram (as Hist) of every training instance.
  std::vector<std::vector<uint32_t>> AllHist;

  // --- Scratch (reused across every grown rule; no steady-state
  // --- allocations). ---
  /// The covered grow instances, filtered in place per condition.
  std::vector<int32_t> CovList;
  /// Per feature: (N, P) counts of the covered instances at slots
  /// (2r, 2r + 1) for rank r.  All zero between sweeps.
  std::vector<std::vector<uint32_t>> Hist;
  /// Per feature: the histogram of the universe the next grow/prune split
  /// is drawn from, holding UnivSize instances.
  std::vector<std::vector<uint32_t>> Univ;
  size_t UnivSize = 0;
  /// The current grow/prune split.
  IndexList GrowPos, GrowNeg, PrunePos, PruneNeg;
  /// Each condition's coverage bitmask, keyed by (feature, direction,
  /// threshold bits) and computed at most once per training.
  std::map<std::tuple<unsigned, bool, uint64_t>, std::vector<uint64_t>>
      CondMasks;
  /// Per-feature sweep results (index-owned slots for the pool).
  std::vector<FeatureBest> FeatureResults;
  /// Prune-split instances still matched by the rule prefix under
  /// evaluation (incremental pruneRule).
  std::vector<int32_t> PrunePosCur, PruneNegCur;

  /// Fan per-feature work out only when each feature has enough covered
  /// instances to amortize the fork; below this, inline is faster.  A
  /// wall-clock knob only: results are identical either way.
  static constexpr size_t ParallelMinCovered = 2048;

  /// Gathers \p Data's rows of its rank table: O(instances x features),
  /// no sort.
  Trainer(const Dataset &Data, const RipperOptions &O, Label Tgt, TaskPool *P)
      : Opts(O), Target(Tgt), Pool(P), N(Data.size()), Words((N + 63) / 64) {
    IsPos.resize(N);
    for (size_t I = 0; I != N; ++I)
      IsPos[I] = Data.label(I) == Target;
    Key.resize(static_cast<size_t>(NumFeatures) * N);
    RankValue.resize(NumFeatures);
    AllHist.resize(NumFeatures);
    Hist.resize(NumFeatures);
    FeatureResults.resize(NumFeatures);
    std::vector<size_t> Present(NumFeatures);
    forEachFeature(N, [&](unsigned F) {
      Present[F] = gatherFeature(F, *Data.rankTable(), Data.rowIds().data());
    });
    // The condition space is two operators per distinct (feature, value)
    // pair present in the training set: the ranks its instances hold.
    size_t NumConds = 0;
    for (size_t P : Present)
      NumConds += 2 * P;
    CondSpaceBits =
        std::log2(std::max<double>(2.0, static_cast<double>(NumConds)));
    Univ = AllHist;
    UnivSize = N;
  }

  /// Fills feature \p F's Key, RankValue and AllHist from \p Table
  /// and returns how many of its ranks the training set holds.  A mixed
  /// rank (-0.0 and +0.0) takes the bits of its lowest-index holder here,
  /// which need not be the table's.
  size_t gatherFeature(unsigned F, const RankTable &Table,
                       const uint32_t *Rows) {
    const double *TV = Table.values(F);
    const uint32_t *TR = Table.ranks(F);
    uint32_t *KeyF = Key.data() + static_cast<size_t>(F) * N;
    std::vector<double> &RV = RankValue[F];
    RV = Table.rankValues(F);
    std::vector<uint32_t> &All = AllHist[F];
    All.assign(2 * RV.size(), 0);
    Hist[F].assign(2 * RV.size(), 0);
    for (size_t I = 0; I != N; ++I) {
      KeyF[I] = (TR[Rows[I]] << 1) | IsPos[I];
      ++All[KeyF[I]];
    }
    size_t Held = 0;
    for (size_t R = 0; R != RV.size(); ++R)
      Held += All[2 * R] + All[2 * R + 1] != 0;
    for (uint32_t M : Table.mixedRanks(F))
      for (size_t I = 0; I != N; ++I)
        if (KeyF[I] >> 1 == M) {
          RV[M] = TV[Rows[I]];
          break;
        }
    return Held;
  }

  /// Runs \p Body(F) for every feature, on the pool when one is attached
  /// and \p PerFeatureWork is large enough to pay for the fan-out.  Bodies
  /// write only feature-owned state and the reduction happens at the call
  /// site in feature order, so job count never changes results.
  template <typename Fn>
  void forEachFeature(size_t PerFeatureWork, const Fn &Body) {
    if (Pool && Pool->jobs() > 1 && PerFeatureWork >= ParallelMinCovered) {
      Pool->parallelFor(NumFeatures,
                        [&](size_t F) { Body(static_cast<unsigned>(F)); });
      return;
    }
    for (unsigned F = 0; F != NumFeatures; ++F)
      Body(F);
  }

  const uint32_t *keys(unsigned F) const {
    return Key.data() + static_cast<size_t>(F) * N;
  }

  /// The keys in [Lo, Hi]: the instances satisfying a condition.
  struct KeyRange {
    uint32_t Lo, Hi;
    bool holds(uint32_t K) const { return K - Lo <= Hi - Lo; }
  };

  /// \p C's keys.  C's threshold is the value of a rank the training set
  /// holds, and ranks order the values (equal values, -0.0 and +0.0
  /// included, share one), so an instance satisfies C exactly when its
  /// rank is on C's side of the threshold's: Condition::matches's
  /// memberships, without the values.
  KeyRange keyRange(const Condition &C) const {
    const std::vector<double> &RV = RankValue[C.Feature];
    uint32_t R = static_cast<uint32_t>(
        std::lower_bound(RV.begin(), RV.end(), C.Threshold) - RV.begin());
    assert(R < RV.size() && RV[R] == C.Threshold && "a rank's value");
    return C.IsLessEqual ? KeyRange{0, 2 * R + 1} : KeyRange{2 * R, ~0u};
  }

  /// Theory cost of one rule (Cohen's redundancy-adjusted encoding).
  double ruleDL(const Rule &R) const {
    double K = static_cast<double>(R.size());
    return 0.5 * (std::log2(K + 1.0) + K * CondSpaceBits);
  }

  /// One bit per instance: set iff the instance satisfies \p C, from the
  /// cache.  A miss is a branchless sequential scan of the feature's keys.
  const std::vector<uint64_t> &condMask(const Condition &C) {
    uint64_t Bits;
    std::memcpy(&Bits, &C.Threshold, sizeof Bits);
    std::vector<uint64_t> &Mask = CondMasks[{C.Feature, C.IsLessEqual, Bits}];
    if (!Mask.empty())
      return Mask;
    Mask.resize(Words);
    const uint32_t *KeyF = keys(C.Feature);
    KeyRange KR = keyRange(C);
    for (size_t W = 0; W != Words; ++W) {
      size_t Base = W * 64;
      size_t End = std::min<size_t>(64, N - Base);
      uint64_t M = 0;
      for (size_t B = 0; B != End; ++B)
        M |= static_cast<uint64_t>(KR.holds(KeyF[Base + B])) << B;
      Mask[W] = M;
    }
    return Mask;
  }

  /// One bit per instance: set iff the instance satisfies every condition
  /// of \p R -- the AND of the conditions' masks.  Bits past the instance
  /// count may be set and must not be read (the class masks are zero
  /// there).
  std::vector<uint64_t> ruleMask(const Rule &R) {
    std::vector<uint64_t> Mask(Words, ~0ull);
    for (const Condition &C : R.Conditions) {
      const std::vector<uint64_t> &M = condMask(C);
      for (size_t W = 0; W != Words; ++W)
        Mask[W] &= M[W];
    }
    return Mask;
  }

  static bool maskBit(const std::vector<uint64_t> &Mask, int I) {
    return (Mask[static_cast<size_t>(I) >> 6] >>
            (static_cast<size_t>(I) & 63)) &
           1;
  }

  static void orInto(std::vector<uint64_t> &Dst,
                     const std::vector<uint64_t> &Src) {
    for (size_t W = 0; W != Dst.size(); ++W)
      Dst[W] |= Src[W];
  }

  /// How many of \p L's instances \p Mask covers.
  static size_t countIn(const std::vector<uint64_t> &Mask,
                        const IndexList &L) {
    size_t C = 0;
    for (int I : L)
      C += maskBit(Mask, I);
    return C;
  }

  ClassMasks classMasks(const IndexList &Pos, const IndexList &Neg) const {
    ClassMasks CM;
    CM.Pos.assign(Words, 0);
    CM.Neg.assign(Words, 0);
    for (int I : Pos)
      CM.Pos[static_cast<size_t>(I) >> 6] |= 1ull << (I & 63);
    for (int I : Neg)
      CM.Neg[static_cast<size_t>(I) >> 6] |= 1ull << (I & 63);
    CM.NumPos = Pos.size();
    CM.NumNeg = Neg.size();
    return CM;
  }

  /// The instances of \p CM's classes in the mask \p Word(W) yields.
  template <typename WordFn>
  Coverage covered(const ClassMasks &CM, const WordFn &Word) const {
    Coverage C;
    for (size_t W = 0; W != Words; ++W) {
      uint64_t M = Word(W);
      C.Pos += static_cast<size_t>(__builtin_popcountll(M & CM.Pos[W]));
      C.Neg += static_cast<size_t>(__builtin_popcountll(M & CM.Neg[W]));
    }
    return C;
  }

  /// Exception bits of a rule list whose union covers \p C of \p CM's
  /// instances.
  static double exceptionDL(const ClassMasks &CM, Coverage C) {
    size_t Covered = C.Pos + C.Neg, FP = C.Neg, FN = CM.NumPos - C.Pos;
    size_t Total = CM.NumPos + CM.NumNeg;
    return subsetDL(Covered, FP) + subsetDL(Total - Covered, FN);
  }

  /// \p DL plus the theory bits of \p Rules, accumulated in list order
  /// (the order that keeps every DL double bit-identical), with the rule
  /// at \p At replaced by \p *Sub -- or left out when \p Sub is null.
  /// \p At == Rules.size() takes every rule as is.
  double withTheory(double DL, const std::vector<Rule> &Rules, size_t At,
                    const Rule *Sub) const {
    for (size_t R = 0; R != Rules.size(); ++R) {
      if (R != At)
        DL += ruleDL(Rules[R]);
      else if (Sub)
        DL += ruleDL(*Sub);
    }
    return DL;
  }

  /// Stratified grow/prune split of (Pos, Neg): each class is
  /// shuffled, its first ceil(GrowFraction x size) instances grow and the
  /// rest prune.  (Pos, Neg) must be the universe.
  void splitGrowPrune(const IndexList &Pos, const IndexList &Neg, Rng &R) {
    assert(Pos.size() + Neg.size() == UnivSize &&
           "the split is drawn from the universe");
    auto Cut = [&](const IndexList &L, IndexList &Grow, IndexList &Prune) {
      size_t G = static_cast<size_t>(
          std::ceil(Opts.GrowFraction * static_cast<double>(L.size())));
      Grow = L;
      shuffleTail(Grow, G, R);
      Prune.assign(Grow.begin() + static_cast<long>(G), Grow.end());
      Grow.resize(G);
    };
    Cut(Pos, GrowPos, PrunePos);
    Cut(Neg, GrowNeg, PruneNeg);
  }

  /// Takes the universe instances \p Word(W) selects out of it.
  template <typename WordFn> void leaveUniverse(const WordFn &Word) {
    std::vector<uint64_t> Leaving(Words);
    size_t Count = 0;
    for (size_t W = 0; W != Words; ++W) {
      Leaving[W] = Word(W);
      Count += static_cast<size_t>(__builtin_popcountll(Leaving[W]));
    }
    UnivSize -= Count;
    forEachFeature(Count, [&](unsigned F) {
      uint32_t *U = Univ[F].data();
      const uint32_t *KeyF = keys(F);
      for (size_t W = 0; W != Words; ++W)
        for (uint64_t B = Leaving[W]; B != 0; B &= B - 1)
          --U[KeyF[W * 64 + static_cast<size_t>(__builtin_ctzll(B))]];
    });
  }

  /// Sweeps feature \p F's covered instances in ascending value order and
  /// records the best candidate threshold by FOIL information gain.  The
  /// covered (P, N) counts are gathered into the feature's rank-indexed
  /// histogram -- from CovList, or, when \p Subtract, as the universe's
  /// histogram minus the prune split -- and its non-empty bins (the
  /// distinct-value groups) are then visited in rank order.  The prefix
  /// counts (P, N with value <= v) are exactly what the old
  /// sort-per-condition sweep counted; the gain expression and the
  /// strict-greater tie policy are unchanged, so the winner is too.
  ///
  /// \p Hint carries the largest gain any feature's sweep has *exactly*
  /// achieved so far (monotone; updated as features finish).  Since
  /// log2(P/(P+N)) <= 0 and FP subtraction/multiplication are
  /// rounding-monotone, P * (0 - BaseInfo) is a true upper bound on a
  /// candidate's gain -- so a candidate whose bound cannot strictly beat
  /// this feature's best, nor strictly reach the hint, is skipped without
  /// evaluating the log.  Skipped candidates are strictly below some
  /// exactly-achieved gain, so no reported winner (and no tie-break)
  /// ever changes: results are bit-identical with the hint arriving in
  /// any order, including not at all.
  void scanFeature(unsigned F, size_t P0, size_t N0, double BaseInfo,
                   bool Subtract, std::atomic<double> &Hint,
                   FeatureBest &Out) {
    const uint32_t *KeyF = keys(F);
    const std::vector<double> &Values = RankValue[F];
    double BestGain = 1e-9;
    double HintGain = Hint.load(std::memory_order_relaxed);
    double NegBase = 0.0 - BaseInfo; // >= 0: BaseInfo = log2(ratio <= 1)
    FeatureBest Best;
    size_t PrefP = 0, PrefN = 0;
    uint32_t *H = Hist[F].data();
    if (Subtract) {
      std::copy(Univ[F].begin(), Univ[F].end(), H);
      for (int I : PrunePos)
        --H[KeyF[I]];
      for (int I : PruneNeg)
        --H[KeyF[I]];
    } else {
      for (int32_t I : CovList)
        ++H[KeyF[I]];
    }
    // Bins past the last covered rank are empty: stop once the prefix
    // holds the whole covered set.
    for (uint32_t R = 0; PrefP + PrefN != P0 + N0; ++R) {
      size_t GN = H[2 * R], GP = H[2 * R + 1];
      if (GN + GP == 0)
        continue;
      H[2 * R] = H[2 * R + 1] = 0;
      double V = Values[R];
      PrefP += GP;
      PrefN += GN;
      auto Consider = [&](bool IsLE, size_t P, size_t N) {
        if (P == 0)
          return;
        if (P + N == P0 + N0)
          return; // excludes nothing; useless condition
        double Bound = static_cast<double>(P) * NegBase;
        if (Bound <= BestGain || Bound < HintGain)
          return; // provably cannot beat a winner
        double Gain =
            static_cast<double>(P) *
            (std::log2(static_cast<double>(P) / static_cast<double>(P + N)) -
             BaseInfo);
        if (Gain > BestGain) {
          BestGain = Gain;
          Best = {Gain, V, IsLE, true, P, N};
        }
      };
      // X[F] <= V keeps the prefix (group included).
      Consider(true, PrefP, PrefN);
      // X[F] >= V keeps this value group and the suffix.
      Consider(false, P0 - (PrefP - GP), N0 - (PrefN - GN));
    }
    Out = Best;
    // Publish this feature's exactly-achieved gain for later sweeps.
    double Cur = Hint.load(std::memory_order_relaxed);
    while (BestGain > Cur &&
           !Hint.compare_exchange_weak(Cur, BestGain,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Finds the single condition with the highest FOIL information gain
  /// over the covered grow instances (\p CovP positives, \p CovN
  /// negatives).  Per-feature sweeps run independently -- on the pool when
  /// attached -- and the argmax is reduced in feature order with the
  /// serial sweep's strict-greater policy (lowest feature index wins
  /// ties).  \p KeepP / \p KeepN receive the covered positives and
  /// negatives the winner keeps.  \p Subtract says the covered set is the
  /// whole grow split.  Returns false when no condition has positive gain
  /// (or none excludes anything).
  bool findBestCondition(size_t CovP, size_t CovN, bool Subtract,
                         Condition &Best, size_t &KeepP, size_t &KeepN) {
    size_t P0 = CovP, N0 = CovN;
    if (P0 == 0)
      return false;
    double BaseInfo = std::log2(static_cast<double>(P0) /
                                static_cast<double>(P0 + N0));
    std::atomic<double> Hint{1e-9};
    forEachFeature(P0 + N0, [&](unsigned F) {
      scanFeature(F, P0, N0, BaseInfo, Subtract, Hint, FeatureResults[F]);
    });
    double BestGain = 1e-9;
    bool Found = false;
    for (unsigned F = 0; F != NumFeatures; ++F) {
      const FeatureBest &FB = FeatureResults[F];
      if (FB.Found && FB.Gain > BestGain) {
        BestGain = FB.Gain;
        Best = {F, FB.IsLessEqual, FB.Value};
        KeepP = FB.P;
        KeepN = FB.N;
        Found = true;
      }
    }
    return Found;
  }

  /// Restricts the covered set to instances satisfying \p C.
  void applyCondition(const Condition &C, size_t &CovP, size_t &CovN) {
    const uint32_t *KeyF = keys(C.Feature);
    KeyRange KR = keyRange(C);
    CovP = 0;
    size_t W = 0;
    for (int32_t I : CovList) {
      uint32_t K = KeyF[I];
      if (!KR.holds(K))
        continue;
      CovList[W++] = I;
      CovP += K & 1;
    }
    CovList.resize(W);
    CovN = W - CovP;
  }

  /// Grows \p R on the grow split by adding best-gain conditions until no
  /// negatives remain covered.  \p Covers is R's coverage mask when R
  /// already has conditions (a revision); null when it has none, and then
  /// the first search fills by subtraction.
  void growRule(Rule &R, const std::vector<uint64_t> *Covers) {
    assert((Covers != nullptr) == !R.Conditions.empty() &&
           "a mask exactly for rules that already have conditions");
    // Seed the covered set with the grow instances the rule already
    // matches.
    CovList.clear();
    size_t CovP = 0, CovN = 0;
    for (int I : GrowPos)
      if (!Covers || maskBit(*Covers, I)) {
        CovList.push_back(I);
        ++CovP;
      }
    for (int I : GrowNeg)
      if (!Covers || maskBit(*Covers, I)) {
        CovList.push_back(I);
        ++CovN;
      }
    bool Subtract = !Covers;
    while (CovN != 0 && R.size() < Opts.MaxConditionsPerRule) {
      Condition C;
      size_t KeepP = 0, KeepN = 0;
      if (!findBestCondition(CovP, CovN, Subtract, C, KeepP, KeepN))
        break;
      Subtract = false;
      R.Conditions.push_back(C);
      applyCondition(C, CovP, CovN);
      assert(CovP == KeepP && CovN == KeepN &&
             "the sweep's counts must be the condition's coverage");
    }
  }

  /// Prunes \p R against the prune split: keeps the prefix of conditions
  /// maximizing (p - n) / (p + n).  May prune to the empty rule, which the
  /// caller must treat as "stop".  Prefix coverage is tracked
  /// incrementally -- each condition filters the surviving prune
  /// instances -- producing the exact counts of the old per-prefix
  /// recount.
  void pruneRule(Rule &R) {
    if (R.Conditions.empty())
      return;
    double BestWorth = -2.0;
    size_t BestLen = R.size();
    PrunePosCur.assign(PrunePos.begin(), PrunePos.end());
    PruneNegCur.assign(PruneNeg.begin(), PruneNeg.end());
    // Evaluate every prefix length, shortest to longest; strictly-better
    // keeps the shorter (simpler) rule on ties.
    for (size_t Len = 0; Len <= R.size(); ++Len) {
      if (Len > 0) {
        const Condition &C = R.Conditions[Len - 1];
        const uint32_t *KeyF = keys(C.Feature);
        KeyRange KR = keyRange(C);
        auto Filter = [&](std::vector<int32_t> &L) {
          size_t W = 0;
          for (int32_t I : L)
            if (KR.holds(KeyF[I]))
              L[W++] = I;
          L.resize(W);
        };
        Filter(PrunePosCur);
        Filter(PruneNegCur);
      }
      size_t P = PrunePosCur.size(), N = PruneNegCur.size();
      double Worth = (P + N) == 0
                         ? 0.0
                         : (static_cast<double>(P) - static_cast<double>(N)) /
                               static_cast<double>(P + N);
      if (Worth > BestWorth + 1e-12) {
        BestWorth = Worth;
        BestLen = Len;
      }
    }
    R.Conditions.resize(BestLen);
  }

  /// IREP* main loop: returns an ordered list of rules for the target
  /// class covering \p Pos against \p Neg, which must be the universe,
  /// with their masks.  The MDL
  /// check after each accepted rule ORs the new rule's mask into the
  /// union and counts exceptions by popcount against the call's class
  /// masks -- the same memberships, so the same description lengths.
  RuleList buildRuleList(IndexList Pos, IndexList Neg, Rng &R) {
    RuleList Out;
    if (Pos.empty())
      return Out;
    ClassMasks CM = classMasks(Pos, Neg);
    std::vector<uint64_t> AccumMask(Words, 0);
    auto DLOf = [&](const auto &Word) {
      return withTheory(exceptionDL(CM, covered(CM, Word)), Out.Rules,
                        Out.Rules.size(), nullptr);
    };
    double BestDL = DLOf([&](size_t W) { return AccumMask[W]; });

    while (!Pos.empty() && Out.Rules.size() < Opts.MaxRules) {
      splitGrowPrune(Pos, Neg, R);

      Rule NewRule;
      NewRule.Conclusion = Target;
      growRule(NewRule, nullptr);
      pruneRule(NewRule);
      if (NewRule.Conditions.empty())
        break;
      std::vector<uint64_t> Mask = ruleMask(NewRule);

      // Reject rules that are wrong more often than right on prune data.
      size_t P = countIn(Mask, PrunePos), N = countIn(Mask, PruneNeg);
      if (P + N > 0 && N > P)
        break;

      // The rule must make progress on the remaining positives.
      if (countIn(Mask, Pos) == 0)
        break;

      Out.Rules.push_back(std::move(NewRule));
      double DL = DLOf([&](size_t W) { return AccumMask[W] | Mask[W]; });
      if (DL < BestDL)
        BestDL = DL;
      if (DL > BestDL + Opts.MdlSlackBits) {
        Out.Rules.pop_back();
        break;
      }
      leaveUniverse([&](size_t W) {
        return Mask[W] & ~AccumMask[W] & (CM.Pos[W] | CM.Neg[W]);
      });
      orInto(AccumMask, Mask);

      auto RemoveCovered = [&](IndexList &L) {
        size_t Kept = 0;
        for (int I : L) {
          L[Kept] = I;
          Kept += !maskBit(Mask, I);
        }
        L.resize(Kept);
      };
      RemoveCovered(Pos);
      RemoveCovered(Neg);
      Out.Masks.push_back(std::move(Mask));
    }
    return Out;
  }

  /// One optimization pass over \p L (replacement / revision / keep by
  /// minimum description length), followed by mop-up and rule deletion.
  /// \p CM holds (\p AllPos, \p AllNeg), every training instance, as
  /// class masks.
  void optimizePass(RuleList &L, const IndexList &AllPos,
                    const IndexList &AllNeg, const ClassMasks &CM, Rng &R) {
    std::vector<Rule> &Rules = L.Rules;
    std::vector<std::vector<uint64_t>> &Masks = L.Masks;
    // Prev accumulates the union of rules before RI, in their *final*
    // (possibly replaced) form -- exactly what per-instance re-evaluation
    // saw, since rule RI-1 is settled before iteration RI.  Suff[K] is the
    // union of the *original* rules K..end; at iteration RI only indices
    // > RI are consulted, which the pass has not touched yet, so the
    // precomputation stays valid throughout.
    std::vector<uint64_t> Prev(Words, 0);
    std::vector<std::vector<uint64_t>> Suff(Rules.size() + 1);
    Suff[Rules.size()].assign(Words, 0);
    for (size_t K = Rules.size(); K-- > 0;) {
      Suff[K] = Suff[K + 1];
      orInto(Suff[K], Masks[K]);
    }
    // The universe is the reach set: it loses what Prev gains.
    Univ = AllHist;
    UnivSize = N;
    auto Claim = [&](const std::vector<uint64_t> &M) {
      leaveUniverse([&](size_t W) {
        return M[W] & ~Prev[W] & (CM.Pos[W] | CM.Neg[W]);
      });
      orInto(Prev, M);
    };
    for (size_t RI = 0; RI != Rules.size(); ++RI) {
      if (RI > 0)
        Claim(Masks[RI - 1]);
      // Instances that reach rule RI (not claimed by an earlier rule).
      IndexList ReachPos, ReachNeg;
      for (int I : AllPos)
        if (!maskBit(Prev, I))
          ReachPos.push_back(I);
      for (int I : AllNeg)
        if (!maskBit(Prev, I))
          ReachNeg.push_back(I);
      if (ReachPos.empty())
        continue;

      splitGrowPrune(ReachPos, ReachNeg, R);

      // Replacement: grown from scratch.
      Rule Replacement;
      Replacement.Conclusion = Target;
      growRule(Replacement, nullptr);
      pruneRule(Replacement);

      // Revision: grown from the current rule.
      Rule Revision = Rules[RI];
      Revision.NumCorrect = Revision.NumIncorrect = 0;
      growRule(Revision, &Masks[RI]);
      pruneRule(Revision);

      // Keep whichever of {original, replacement, revision} minimizes the
      // description length of the whole rule set.  Every variant differs
      // from the current list only at RI, so each DL is prefix-union |
      // variant's mask | suffix-union -- no other rule is re-evaluated.
      std::vector<uint64_t> Base = Prev;
      orInto(Base, Suff[RI + 1]);
      auto VariantDL = [&](const Rule &At, const std::vector<uint64_t> &M) {
        Coverage C =
            covered(CM, [&](size_t W) { return Base[W] | M[W]; });
        return withTheory(exceptionDL(CM, C), Rules, RI, &At);
      };
      double DLOrig = VariantDL(Rules[RI], Masks[RI]);
      double DLRepl = 1e300, DLRev = 1e300;
      std::vector<uint64_t> ReplMask, RevMask;
      if (!Replacement.Conditions.empty()) {
        ReplMask = ruleMask(Replacement);
        DLRepl = VariantDL(Replacement, ReplMask);
      }
      if (!Revision.Conditions.empty()) {
        RevMask = ruleMask(Revision);
        DLRev = VariantDL(Revision, RevMask);
      }
      if (DLRepl < DLOrig && DLRepl <= DLRev) {
        Rules[RI] = std::move(Replacement);
        Masks[RI] = std::move(ReplMask);
      } else if (DLRev < DLOrig) {
        Rules[RI] = std::move(Revision);
        Masks[RI] = std::move(RevMask);
      }
    }

    // Mop-up: cover positives the optimized rules no longer cover.  The
    // universe is now the uncovered set.
    if (!Rules.empty())
      Claim(Masks.back());
    IndexList UncovPos, UncovNeg;
    for (int I : AllPos)
      if (!maskBit(Prev, I))
        UncovPos.push_back(I);
    for (int I : AllNeg)
      if (!maskBit(Prev, I))
        UncovNeg.push_back(I);
    RuleList Extra = buildRuleList(UncovPos, UncovNeg, R);
    for (size_t E = 0; E != Extra.Rules.size(); ++E)
      if (Rules.size() < Opts.MaxRules) {
        Rules.push_back(std::move(Extra.Rules[E]));
        Masks.push_back(std::move(Extra.Masks[E]));
      }

    // Deletion: drop rules whose removal shrinks the description length.
    // Each round bit-slices the per-instance cover count into "covered
    // >= 1" (Ones) and "covered >= 2" (Twos); dropping rule r uncovers
    // exactly Masks[r] & ~Twos (within Ones), so a candidate costs one
    // pass over the words.
    std::vector<uint64_t> Ones, Twos;
    bool Changed = true;
    while (Changed && !Rules.empty()) {
      Changed = false;
      Ones.assign(Words, 0);
      Twos.assign(Words, 0);
      for (const std::vector<uint64_t> &M : Masks)
        for (size_t W = 0; W != Words; ++W) {
          Twos[W] |= Ones[W] & M[W];
          Ones[W] |= M[W];
        }
      Coverage All = covered(CM, [&](size_t W) { return Ones[W]; });
      double BestDL =
          withTheory(exceptionDL(CM, All), Rules, Rules.size(), nullptr);
      size_t BestIdx = Rules.size();
      for (size_t RI = 0; RI != Rules.size(); ++RI) {
        const std::vector<uint64_t> &M = Masks[RI];
        Coverage Lost = covered(CM, [&](size_t W) { return M[W] & ~Twos[W]; });
        Coverage Left{All.Pos - Lost.Pos, All.Neg - Lost.Neg};
        double DL = withTheory(exceptionDL(CM, Left), Rules, RI, nullptr);
        if (DL < BestDL) {
          BestDL = DL;
          BestIdx = RI;
        }
      }
      if (BestIdx != Rules.size()) {
        Rules.erase(Rules.begin() + static_cast<long>(BestIdx));
        Masks.erase(Masks.begin() + static_cast<long>(BestIdx));
        Changed = true;
      }
    }
  }
};

RuleSet trainImpl(const Dataset &Data, const RipperOptions &Opts,
                  TaskPool *Pool) {
  size_t NumLS = Data.countLabel(Label::LS);
  size_t NumNS = Data.size() - NumLS;

  // Degenerate cases: empty or single-class data.
  if (Data.empty())
    return RuleSet(Label::NS);
  if (NumLS == 0)
    return RuleSet(Label::NS);
  if (NumNS == 0)
    return RuleSet(Label::LS);

  // RIPPER orders classes by frequency: induce rules for the minority
  // class; the majority is the default.  Ties break toward LS rules with
  // NS default, matching the paper's filters.
  Label Target = NumLS <= NumNS ? Label::LS : Label::NS;
  Label Default = Target == Label::LS ? Label::NS : Label::LS;

  // Train on a view of the dataset's rank table (a non-empty dataset
  // always sits on one).
  Trainer T(Data, Opts, Target, Pool);
  IndexList Pos, Neg;
  for (int I = 0, E = static_cast<int>(Data.size()); I != E; ++I)
    (T.IsPos[static_cast<size_t>(I)] ? Pos : Neg).push_back(I);
  ClassMasks CM = T.classMasks(Pos, Neg);

  Rng R(Opts.Seed);
  RuleList L = T.buildRuleList(Pos, Neg, R);
  for (unsigned Pass = 0; Pass != Opts.OptimizePasses; ++Pass)
    T.optimizePass(L, Pos, Neg, CM, R);

  // Figure 4 coverage, RuleSet::annotateCoverage's first-match counts
  // read off the masks: rule K claims what it covers and no earlier rule
  // did.
  RuleSet RS(Default);
  std::vector<uint64_t> Claimed(T.Words, 0);
  for (size_t K = 0; K != L.Rules.size(); ++K) {
    Rule &Rl = L.Rules[K];
    const std::vector<uint64_t> &M = L.Masks[K];
    Coverage C =
        T.covered(CM, [&](size_t W) { return M[W] & ~Claimed[W]; });
    T.orInto(Claimed, M);
    Rl.Conclusion = Target;
    Rl.NumCorrect = C.Pos;
    Rl.NumIncorrect = C.Neg;
    RS.addRule(std::move(Rl));
  }
  return RS;
}

} // namespace

Ripper::Ripper(RipperOptions O) : Opts(O) {}

RuleSet Ripper::train(const Dataset &Data) const {
  return trainImpl(Data, Opts, nullptr);
}

RuleSet Ripper::train(const Dataset &Data, TaskPool &Pool) const {
  return trainImpl(Data, Opts, &Pool);
}
