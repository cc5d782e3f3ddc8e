//===- ml/Ripper.cpp - RIPPER rule induction --------------------------------===//
//
// The indexed training engine.  The naive trainer re-sorted every feature
// column for every candidate condition of every grown rule; this one ranks
// each feature column once per train() call and never sorts a column
// again:
//
//  - Every instance carries its dense rank among its column's distinct
//    values (the Table 1 features have a few dozen to a few hundred per
//    training set), so a value-order sweep is a walk over ranks.
//  - Finding the best FOIL condition counts the covered instances' (P, N)
//    into a rank-indexed histogram per feature and walks its non-empty
//    bins in ascending order -- O(features x (covered + distinct)) per
//    condition -- with an FP-sound upper bound (gain <= P * -BaseInfo)
//    skipping provably-losing candidates.
//  - The covered set is one instance list, filtered per condition.
//  - Rule-set coverage for the MDL bookkeeping (totalDL, optimizePass,
//    rule deletion) is computed through per-rule coverage bitmasks that
//    the call sites OR incrementally instead of re-evaluating every rule
//    per instance.
//
// Per-feature sweeps optionally fan out across a shared TaskPool; the
// argmax is reduced in feature order with the exact strict-greater tie
// policy of the serial sweep, so the induced RuleSet is bit-for-bit
// identical at any job count and to the pre-index implementation
// (tests/ripper_engine_test.cpp pins both; bench_train_scale tracks the
// speedup in BENCH_train_scale.json).
//
//===----------------------------------------------------------------------===//

#include "ml/Ripper.h"

#include "support/TaskPool.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cassert>

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

/// Deterministic Fisher-Yates shuffle.
void shuffle(IndexList &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(static_cast<uint32_t>(I))]);
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

/// A strict weak order on doubles that agrees with operator< on non-NaN
/// values and ranks every NaN last.  Training data must be finite
/// (Dataset::readCsv rejects anything else); this only keeps a NaN from
/// breaking the rank sort.
bool valueLess(double A, double B) {
  return A < B || (!std::isnan(A) && std::isnan(B));
}

/// The whole learning state threaded through the helper routines: the
/// immutable rank indexes built once per train() call, plus reusable
/// coverage, histogram and mask scratch.
struct Trainer {
  const RipperOptions &Opts;
  Label Target;
  TaskPool *Pool; // may be null: run every feature loop inline
  double CondSpaceBits; // log2(#possible conditions), for the theory DL

  // --- Immutable per-train() indexes. ---
  ColumnView Cols;
  /// IsPos[i]: instance i's label equals the target class.
  std::vector<uint8_t> IsPos;
  /// Rank[F * n + i]: instance i's dense rank among feature F's distinct
  /// values (0 = smallest; equal values under operator== share a rank).
  std::vector<uint32_t> Rank;
  /// RankValue[F][r]: the value of rank r, bit for bit as the
  /// lowest-index instance holding it.
  std::vector<std::vector<double>> RankValue;

  // --- Scratch (reused across every grown rule; no steady-state
  // --- allocations). ---
  /// The covered grow instances, filtered in place per condition.
  std::vector<int32_t> CovList;
  /// Per feature: (N, P) counts of the covered instances at slots
  /// (2r, 2r + 1) for rank r.  All zero between sweeps.
  std::vector<std::vector<uint32_t>> Hist;
  /// Per-feature sweep results (index-owned slots for the pool).
  std::vector<FeatureBest> FeatureResults;
  /// Prune-split instances still matched by the rule prefix under
  /// evaluation (incremental pruneRule).
  std::vector<int32_t> PrunePosCur, PruneNegCur;
  /// Bitmask scratch for rule-coverage counting (totalDL, optimizePass):
  /// one bit per instance, branchless column scans instead of per-instance
  /// rule evaluation.  The counted memberships are identical.
  std::vector<uint64_t> RuleMaskScratch, AnyMaskScratch, PrevMaskScratch;

  /// Fan per-feature work out only when each feature has enough covered
  /// instances to amortize the fork; below this, inline is faster.  A
  /// wall-clock knob only: results are identical either way.
  static constexpr size_t ParallelMinCovered = 2048;

  Trainer(const Dataset &Data, const RipperOptions &O, Label Tgt,
          TaskPool *P)
      : Opts(O), Target(Tgt), Pool(P), Cols(Data.columns()) {
    size_t N = Cols.NumInstances;
    IsPos.resize(N);
    for (size_t I = 0; I != N; ++I)
      IsPos[I] = Cols.Labels[I] == Target;
    Rank.resize(static_cast<size_t>(NumFeatures) * N);
    RankValue.resize(NumFeatures);
    Hist.resize(NumFeatures);
    FeatureResults.resize(NumFeatures);
    forEachFeature(N, [&](unsigned F) {
      rankColumn(F);
      Hist[F].assign(2 * RankValue[F].size(), 0);
    });
    // The condition space is two operators per distinct (feature, value)
    // pair present in the data, exactly the count the old per-feature
    // std::set produced.
    size_t NumConds = 0;
    for (const std::vector<double> &Values : RankValue)
      NumConds += 2 * Values.size();
    CondSpaceBits =
        std::log2(std::max<double>(2.0, static_cast<double>(NumConds)));
  }

  /// Fills feature \p F's Rank column and RankValue: sorts the column's
  /// distinct values once, then finds each instance's rank by binary
  /// search.  Each rank keeps the bits of the lowest-index instance
  /// holding it (of finite values, only -0.0 and +0.0 compare equal with
  /// different bits).
  void rankColumn(unsigned F) {
    size_t N = Cols.NumInstances;
    const double *Col = Cols.col(F);
    uint32_t *RankF = Rank.data() + static_cast<size_t>(F) * N;
    std::vector<double> &Values = RankValue[F];
    Values.assign(Col, Col + N);
    std::sort(Values.begin(), Values.end(), valueLess);
    auto Same = [](double A, double B) { return !valueLess(A, B); };
    Values.erase(std::unique(Values.begin(), Values.end(), Same), Values.end());
    // Walk down so the last write to each rank is its lowest-index holder.
    for (size_t I = N; I-- != 0;) {
      size_t R = static_cast<size_t>(
          std::lower_bound(Values.begin(), Values.end(), Col[I], valueLess) -
          Values.begin());
      RankF[I] = static_cast<uint32_t>(R);
      Values[R] = Col[I];
    }
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

  /// Does instance \p I satisfy \p C?  Compares the same doubles as
  /// Condition::matches against the row-major FeatureVector.
  bool condMatches(const Condition &C, int32_t I) const {
    double V = Cols.col(C.Feature)[static_cast<size_t>(I)];
    return C.IsLessEqual ? V <= C.Threshold : V >= C.Threshold;
  }

  /// Does instance \p I satisfy every condition of \p R?
  bool ruleMatches(const Rule &R, int32_t I) const {
    for (const Condition &C : R.Conditions)
      if (!condMatches(C, I))
        return false;
    return true;
  }

  /// Counts how many of (\p Pos, \p Neg) the rule matches, split by class.
  void countCoverage(const Rule &R, const IndexList &Pos,
                     const IndexList &Neg, size_t &P, size_t &N) const {
    P = N = 0;
    for (int I : Pos)
      if (ruleMatches(R, I))
        ++P;
    for (int I : Neg)
      if (ruleMatches(R, I))
        ++N;
  }

  /// Theory cost of one rule (Cohen's redundancy-adjusted encoding).
  double ruleDL(const Rule &R) const {
    double K = static_cast<double>(R.size());
    return 0.5 * (std::log2(K + 1.0) + K * CondSpaceBits);
  }

  /// Fills \p Mask with one bit per instance: set iff the instance
  /// satisfies every condition of \p R.  Each condition is a branchless
  /// sequential scan of its column; the memberships are exactly those of
  /// per-instance rule evaluation.  Bits past the instance count may be
  /// set and must not be read.
  void ruleMask(const Rule &R, std::vector<uint64_t> &Mask) const {
    size_t N = Cols.NumInstances;
    size_t Words = (N + 63) / 64;
    Mask.assign(Words, ~0ull);
    for (const Condition &C : R.Conditions) {
      const double *Col = Cols.col(C.Feature);
      double T = C.Threshold;
      for (size_t W = 0; W != Words; ++W) {
        size_t Base = W * 64;
        size_t End = std::min<size_t>(64, N - Base);
        uint64_t M = 0;
        if (C.IsLessEqual) {
          for (size_t B = 0; B != End; ++B)
            M |= static_cast<uint64_t>(Col[Base + B] <= T) << B;
        } else {
          for (size_t B = 0; B != End; ++B)
            M |= static_cast<uint64_t>(Col[Base + B] >= T) << B;
        }
        Mask[W] &= M;
      }
    }
  }

  /// Fills \p Any with the union of every rule's coverage mask.
  void anyRuleMask(const std::vector<Rule> &Rules,
                   std::vector<uint64_t> &Any) {
    size_t Words = (Cols.NumInstances + 63) / 64;
    Any.assign(Words, 0);
    for (const Rule &R : Rules) {
      ruleMask(R, RuleMaskScratch);
      for (size_t W = 0; W != Words; ++W)
        Any[W] |= RuleMaskScratch[W];
    }
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

  /// Description length given a precomputed covered-by-any mask: exception
  /// bits from the coverage counts over (\p Pos, \p Neg) plus theory bits
  /// for every rule of \p Rules except index \p Skip (pass
  /// Rules.size() to include all) -- accumulated in list order, exactly as
  /// the direct computation would.
  double dlFromMask(const std::vector<uint64_t> &Any,
                    const std::vector<Rule> &Rules, size_t Skip,
                    const IndexList &Pos, const IndexList &Neg) const {
    size_t Covered = 0, FP = 0, FN = 0;
    for (int I : Pos) {
      if (maskBit(Any, I))
        ++Covered;
      else
        ++FN;
    }
    for (int I : Neg) {
      if (maskBit(Any, I)) {
        ++Covered;
        ++FP;
      }
    }
    size_t Total = Pos.size() + Neg.size();
    double DL = subsetDL(Covered, FP) + subsetDL(Total - Covered, FN);
    for (size_t R = 0; R != Rules.size(); ++R)
      if (R != Skip)
        DL += ruleDL(Rules[R]);
    return DL;
  }

  /// Stratified grow/prune split of (Pos, Neg).
  void splitGrowPrune(const IndexList &Pos, const IndexList &Neg, Rng &R,
                      IndexList &GrowPos, IndexList &GrowNeg,
                      IndexList &PrunePos, IndexList &PruneNeg) const {
    IndexList P = Pos, N = Neg;
    shuffle(P, R);
    shuffle(N, R);
    size_t PG = static_cast<size_t>(
        std::ceil(Opts.GrowFraction * static_cast<double>(P.size())));
    size_t NG = static_cast<size_t>(
        std::ceil(Opts.GrowFraction * static_cast<double>(N.size())));
    GrowPos.assign(P.begin(), P.begin() + static_cast<long>(PG));
    PrunePos.assign(P.begin() + static_cast<long>(PG), P.end());
    GrowNeg.assign(N.begin(), N.begin() + static_cast<long>(NG));
    PruneNeg.assign(N.begin() + static_cast<long>(NG), N.end());
  }

  /// Sweeps feature \p F's covered instances in ascending value order and
  /// records the best candidate threshold by FOIL information gain.  The
  /// covered (P, N) counts are gathered into the feature's rank-indexed
  /// histogram, whose non-empty bins -- the distinct-value groups -- are
  /// then visited in rank order.  The prefix counts (P, N with value <= v)
  /// are exactly what the old sort-per-condition sweep counted; the gain
  /// expression and the strict-greater tie policy are unchanged, so the
  /// winner is too.
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
                   std::atomic<double> &Hint, FeatureBest &Out) {
    const uint32_t *RankF =
        Rank.data() + static_cast<size_t>(F) * Cols.NumInstances;
    const std::vector<double> &Values = RankValue[F];
    double BestGain = 1e-9;
    double HintGain = Hint.load(std::memory_order_relaxed);
    double NegBase = 0.0 - BaseInfo; // >= 0: BaseInfo = log2(ratio <= 1)
    FeatureBest Best;
    size_t PrefP = 0, PrefN = 0;
    uint32_t *H = Hist[F].data();
    for (int32_t I : CovList)
      ++H[(RankF[I] << 1) | IsPos[static_cast<size_t>(I)]];
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
  /// negatives the winner keeps.  Returns false when no condition has
  /// positive gain (or none excludes anything).
  bool findBestCondition(size_t CovP, size_t CovN, Condition &Best,
                         size_t &KeepP, size_t &KeepN) {
    size_t P0 = CovP, N0 = CovN;
    if (P0 == 0)
      return false;
    double BaseInfo = std::log2(static_cast<double>(P0) /
                                static_cast<double>(P0 + N0));
    std::atomic<double> Hint{1e-9};
    forEachFeature(P0 + N0, [&](unsigned F) {
      scanFeature(F, P0, N0, BaseInfo, Hint, FeatureResults[F]);
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
    CovP = CovN = 0;
    size_t W = 0;
    for (int32_t I : CovList) {
      if (!condMatches(C, I))
        continue;
      CovList[W++] = I;
      if (IsPos[static_cast<size_t>(I)])
        ++CovP;
      else
        ++CovN;
    }
    CovList.resize(W);
  }

  /// Grows \p R (possibly already containing conditions, for revisions) by
  /// adding best-gain conditions until no negatives remain covered.
  void growRule(Rule &R, const IndexList &GrowPos,
                const IndexList &GrowNeg) {
    // Seed the covered set with the grow instances the rule already
    // matches.
    CovList.clear();
    size_t CovP = 0, CovN = 0;
    for (int I : GrowPos)
      if (ruleMatches(R, I)) {
        CovList.push_back(I);
        ++CovP;
      }
    for (int I : GrowNeg)
      if (ruleMatches(R, I)) {
        CovList.push_back(I);
        ++CovN;
      }
    while (CovN != 0 && R.size() < Opts.MaxConditionsPerRule) {
      Condition C;
      size_t KeepP = 0, KeepN = 0;
      if (!findBestCondition(CovP, CovN, C, KeepP, KeepN))
        break;
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
  void pruneRule(Rule &R, const IndexList &PrunePos,
                 const IndexList &PruneNeg) {
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
        auto Filter = [&](std::vector<int32_t> &L) {
          size_t W = 0;
          for (int32_t I : L)
            if (condMatches(C, I))
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
  /// class covering \p Pos against \p Neg.  The MDL check after each
  /// accepted rule ORs the new rule's coverage mask into an accumulator
  /// instead of re-evaluating every prior rule -- same memberships, same
  /// description lengths.
  std::vector<Rule> buildRuleList(IndexList Pos, IndexList Neg, Rng &R) {
    std::vector<Rule> Rules;
    if (Pos.empty())
      return Rules;
    size_t Words = (Cols.NumInstances + 63) / 64;
    std::vector<uint64_t> AccumMask(Words, 0), CandMask;
    IndexList AllPos = Pos, AllNeg = Neg;
    double BestDL = dlFromMask(AccumMask, Rules, Rules.size(), Pos, Neg);

    while (!Pos.empty() && Rules.size() < Opts.MaxRules) {
      IndexList GP, GN, PP, PN;
      splitGrowPrune(Pos, Neg, R, GP, GN, PP, PN);

      Rule NewRule;
      NewRule.Conclusion = Target;
      growRule(NewRule, GP, GN);
      pruneRule(NewRule, PP, PN);
      if (NewRule.Conditions.empty())
        break;

      // Reject rules that are wrong more often than right on prune data.
      size_t P, N;
      countCoverage(NewRule, PP, PN, P, N);
      if (P + N > 0 && N > P)
        break;

      // The rule must make progress on the remaining positives.
      size_t CovP, CovN;
      countCoverage(NewRule, Pos, Neg, CovP, CovN);
      if (CovP == 0)
        break;

      Rules.push_back(NewRule);
      ruleMask(NewRule, RuleMaskScratch);
      CandMask = AccumMask;
      orInto(CandMask, RuleMaskScratch);
      double DL = dlFromMask(CandMask, Rules, Rules.size(), AllPos, AllNeg);
      if (DL < BestDL)
        BestDL = DL;
      if (DL > BestDL + Opts.MdlSlackBits) {
        Rules.pop_back();
        break;
      }
      AccumMask.swap(CandMask);

      auto RemoveCovered = [&](IndexList &L) {
        IndexList Out;
        Out.reserve(L.size());
        for (int I : L)
          if (!maskBit(RuleMaskScratch, I))
            Out.push_back(I);
        L = std::move(Out);
      };
      RemoveCovered(Pos);
      RemoveCovered(Neg);
    }
    return Rules;
  }

  /// One optimization pass over \p Rules (replacement / revision / keep by
  /// minimum description length), followed by mop-up and rule deletion.
  void optimizePass(std::vector<Rule> &Rules, const IndexList &AllPos,
                    const IndexList &AllNeg, Rng &R) {
    // PrevMaskScratch accumulates the union of rules before RI, in their
    // *final* (possibly replaced) form -- exactly what per-instance
    // re-evaluation saw, since rule RI-1 is settled before iteration RI.
    // SuffMask[K] is the union of the *original* rules K..end; at
    // iteration RI only indices > RI are consulted, which the pass has
    // not touched yet, so the precomputation stays valid throughout.
    size_t Words = (Cols.NumInstances + 63) / 64;
    PrevMaskScratch.assign(Words, 0);
    std::vector<std::vector<uint64_t>> SuffMask(Rules.size() + 1);
    SuffMask[Rules.size()].assign(Words, 0);
    for (size_t K = Rules.size(); K-- > 0;) {
      ruleMask(Rules[K], RuleMaskScratch);
      SuffMask[K] = SuffMask[K + 1];
      orInto(SuffMask[K], RuleMaskScratch);
    }
    for (size_t RI = 0; RI != Rules.size(); ++RI) {
      if (RI > 0) {
        ruleMask(Rules[RI - 1], RuleMaskScratch);
        orInto(PrevMaskScratch, RuleMaskScratch);
      }
      // Instances that reach rule RI (not claimed by an earlier rule).
      IndexList ReachPos, ReachNeg;
      for (int I : AllPos)
        if (!maskBit(PrevMaskScratch, I))
          ReachPos.push_back(I);
      for (int I : AllNeg)
        if (!maskBit(PrevMaskScratch, I))
          ReachNeg.push_back(I);
      if (ReachPos.empty())
        continue;

      IndexList GP, GN, PP, PN;
      splitGrowPrune(ReachPos, ReachNeg, R, GP, GN, PP, PN);

      // Replacement: grown from scratch.
      Rule Replacement;
      Replacement.Conclusion = Target;
      growRule(Replacement, GP, GN);
      pruneRule(Replacement, PP, PN);

      // Revision: grown from the current rule.
      Rule Revision = Rules[RI];
      Revision.NumCorrect = Revision.NumIncorrect = 0;
      growRule(Revision, GP, GN);
      pruneRule(Revision, PP, PN);

      // Keep whichever of {original, replacement, revision} minimizes the
      // description length of the whole rule set.  Every variant differs
      // from the current list only at RI, so each DL is prefix-union |
      // variant's mask | suffix-union -- no other rule is re-evaluated.
      std::vector<Rule> Variant = Rules;
      auto VariantDL = [&](const Rule &At) {
        Variant[RI] = At;
        std::vector<uint64_t> Any = PrevMaskScratch;
        orInto(Any, SuffMask[RI + 1]);
        ruleMask(At, RuleMaskScratch);
        orInto(Any, RuleMaskScratch);
        return dlFromMask(Any, Variant, Variant.size(), AllPos, AllNeg);
      };
      double DLOrig = VariantDL(Rules[RI]);
      double DLRepl = 1e300, DLRev = 1e300;
      if (!Replacement.Conditions.empty())
        DLRepl = VariantDL(Replacement);
      if (!Revision.Conditions.empty())
        DLRev = VariantDL(Revision);
      if (DLRepl < DLOrig && DLRepl <= DLRev)
        Rules[RI] = Replacement;
      else if (DLRev < DLOrig)
        Rules[RI] = Revision;
    }

    // Mop-up: cover positives the optimized rules no longer cover.
    IndexList UncovPos, UncovNeg;
    anyRuleMask(Rules, AnyMaskScratch);
    for (int I : AllPos)
      if (!maskBit(AnyMaskScratch, I))
        UncovPos.push_back(I);
    for (int I : AllNeg)
      if (!maskBit(AnyMaskScratch, I))
        UncovNeg.push_back(I);
    std::vector<Rule> Extra = buildRuleList(UncovPos, UncovNeg, R);
    for (Rule &E : Extra)
      if (Rules.size() < Opts.MaxRules)
        Rules.push_back(std::move(E));

    // Deletion: drop rules whose removal shrinks the description length.
    // Each round computes every rule's coverage mask once; a
    // leave-one-out union is then cheap bit algebra instead of a full
    // re-evaluation per candidate.
    std::vector<std::vector<uint64_t>> PerRule;
    std::vector<uint64_t> Any;
    bool Changed = true;
    while (Changed && !Rules.empty()) {
      Changed = false;
      PerRule.resize(Rules.size());
      Any.assign(Words, 0);
      for (size_t RI = 0; RI != Rules.size(); ++RI) {
        ruleMask(Rules[RI], PerRule[RI]);
        orInto(Any, PerRule[RI]);
      }
      double CurDL = dlFromMask(Any, Rules, Rules.size(), AllPos, AllNeg);
      double BestDL = CurDL;
      size_t BestIdx = Rules.size();
      for (size_t RI = 0; RI != Rules.size(); ++RI) {
        Any.assign(Words, 0);
        for (size_t J = 0; J != Rules.size(); ++J)
          if (J != RI)
            orInto(Any, PerRule[J]);
        double DL = dlFromMask(Any, Rules, RI, AllPos, AllNeg);
        if (DL < BestDL) {
          BestDL = DL;
          BestIdx = RI;
        }
      }
      if (BestIdx != Rules.size()) {
        Rules.erase(Rules.begin() + static_cast<long>(BestIdx));
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

  Trainer T(Data, Opts, Target, Pool);
  IndexList Pos, Neg;
  for (int I = 0, E = static_cast<int>(Data.size()); I != E; ++I)
    (T.IsPos[static_cast<size_t>(I)] ? Pos : Neg).push_back(I);

  Rng R(Opts.Seed);
  std::vector<Rule> Rules = T.buildRuleList(Pos, Neg, R);
  for (unsigned Pass = 0; Pass != Opts.OptimizePasses; ++Pass)
    T.optimizePass(Rules, Pos, Neg, R);

  RuleSet RS(Default);
  for (Rule &Rl : Rules) {
    Rl.Conclusion = Target;
    RS.addRule(std::move(Rl));
  }
  size_t DC, DI;
  RS.annotateCoverage(Data, DC, DI);
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
