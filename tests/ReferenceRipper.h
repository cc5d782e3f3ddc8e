//===- tests/ReferenceRipper.h - The pre-index RIPPER trainer ----*- C++ -*-===//
//
// A faithful copy of the repository's original RIPPER implementation (the
// one that re-sorted every feature column for every candidate condition),
// kept as the reference the indexed engine is pinned against.
// tests/ripper_engine_test.cpp asserts Ripper::train produces bit-for-bit
// this trainer's RuleSet on every dataset/seed/options combination it
// throws at both, and bench/bench_train_scale.cpp uses it as the
// throughput baseline.
//
// Do not "improve" this file: its value is being exactly the old
// algorithm, FP expression for FP expression.
//
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_TESTS_REFERENCERIPPER_H
#define SCHEDFILTER_TESTS_REFERENCERIPPER_H

#include "ml/Ripper.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace schedfilter {
namespace reference {

using IndexList = std::vector<int>;

inline double log2Binomial(size_t N, size_t K) {
  if (K > N)
    return 0.0;
  double L = std::lgamma(static_cast<double>(N) + 1.0) -
             std::lgamma(static_cast<double>(K) + 1.0) -
             std::lgamma(static_cast<double>(N - K) + 1.0);
  return L / std::log(2.0);
}

inline double subsetDL(size_t N, size_t K) {
  if (N == 0)
    return 0.0;
  return std::log2(static_cast<double>(N) + 1.0) + log2Binomial(N, K);
}

inline void shuffle(IndexList &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(static_cast<uint32_t>(I))]);
}

/// \p D's instances, built once: the trainer below reads features in its
/// innermost loops.
inline std::vector<Instance> instancesOf(const Dataset &D) {
  std::vector<Instance> Is;
  Is.reserve(D.size());
  for (size_t I = 0; I != D.size(); ++I)
    Is.push_back(D[I]);
  return Is;
}

inline void countCoverage(const std::vector<Instance> &D, const Rule &R,
                          const IndexList &Pos, const IndexList &Neg,
                          size_t &P, size_t &N) {
  P = N = 0;
  for (int I : Pos)
    if (R.matches(D[static_cast<size_t>(I)].X))
      ++P;
  for (int I : Neg)
    if (R.matches(D[static_cast<size_t>(I)].X))
      ++N;
}

/// The whole learning state threaded through the helper routines.
struct Trainer {
  const std::vector<Instance> D;
  const RipperOptions &Opts;
  Label Target;
  double CondSpaceBits;

  Trainer(const Dataset &Data, const RipperOptions &O, Label Tgt)
      : D(instancesOf(Data)), Opts(O), Target(Tgt) {
    size_t NumConds = 0;
    for (unsigned F = 0; F != NumFeatures; ++F) {
      std::set<double> Distinct;
      for (const Instance &I : D)
        Distinct.insert(I.X[F]);
      NumConds += 2 * Distinct.size();
    }
    CondSpaceBits =
        std::log2(std::max<double>(2.0, static_cast<double>(NumConds)));
  }

  bool isPos(int I) const { return D[static_cast<size_t>(I)].Y == Target; }

  double ruleDL(const Rule &R) const {
    double K = static_cast<double>(R.size());
    return 0.5 * (std::log2(K + 1.0) + K * CondSpaceBits);
  }

  double totalDL(const std::vector<Rule> &Rules, const IndexList &Pos,
                 const IndexList &Neg) const {
    auto CoveredByAny = [&](int I) {
      for (const Rule &R : Rules)
        if (R.matches(D[static_cast<size_t>(I)].X))
          return true;
      return false;
    };
    size_t Covered = 0, FP = 0, FN = 0;
    for (int I : Pos) {
      if (CoveredByAny(I))
        ++Covered;
      else
        ++FN;
    }
    for (int I : Neg) {
      if (CoveredByAny(I)) {
        ++Covered;
        ++FP;
      }
    }
    size_t Total = Pos.size() + Neg.size();
    double DL = subsetDL(Covered, FP) + subsetDL(Total - Covered, FN);
    for (const Rule &R : Rules)
      DL += ruleDL(R);
    return DL;
  }

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

  bool findBestCondition(const IndexList &CovPos, const IndexList &CovNeg,
                         Condition &Best) const {
    size_t P0 = CovPos.size(), N0 = CovNeg.size();
    if (P0 == 0)
      return false;
    double BaseInfo = std::log2(static_cast<double>(P0) /
                                static_cast<double>(P0 + N0));
    double BestGain = 1e-9;
    bool Found = false;

    std::vector<std::pair<double, bool>> Vals;
    Vals.reserve(P0 + N0);
    for (unsigned F = 0; F != NumFeatures; ++F) {
      Vals.clear();
      for (int I : CovPos)
        Vals.push_back({D[static_cast<size_t>(I)].X[F], true});
      for (int I : CovNeg)
        Vals.push_back({D[static_cast<size_t>(I)].X[F], false});
      std::sort(Vals.begin(), Vals.end(),
                [](const auto &A, const auto &B) { return A.first < B.first; });

      size_t PrefP = 0, PrefN = 0;
      for (size_t I = 0; I != Vals.size();) {
        double V = Vals[I].first;
        while (I != Vals.size() && Vals[I].first == V) {
          if (Vals[I].second)
            ++PrefP;
          else
            ++PrefN;
          ++I;
        }
        auto Consider = [&](bool IsLE, size_t P, size_t N) {
          if (P == 0)
            return;
          if (P + N == P0 + N0)
            return;
          double Gain =
              static_cast<double>(P) *
              (std::log2(static_cast<double>(P) / static_cast<double>(P + N)) -
               BaseInfo);
          if (Gain > BestGain) {
            BestGain = Gain;
            Best = {F, IsLE, V};
            Found = true;
          }
        };
        Consider(true, PrefP, PrefN);
        size_t SuffP = P0 - PrefP, SuffN = N0 - PrefN;
        size_t GP = 0, GN = 0;
        for (size_t J = I; J-- > 0 && Vals[J].first == V;) {
          if (Vals[J].second)
            ++GP;
          else
            ++GN;
        }
        Consider(false, SuffP + GP, SuffN + GN);
      }
    }
    return Found;
  }

  void growRule(Rule &R, const IndexList &GrowPos,
                const IndexList &GrowNeg) const {
    IndexList CovPos, CovNeg;
    for (int I : GrowPos)
      if (R.matches(D[static_cast<size_t>(I)].X))
        CovPos.push_back(I);
    for (int I : GrowNeg)
      if (R.matches(D[static_cast<size_t>(I)].X))
        CovNeg.push_back(I);

    while (!CovNeg.empty() && R.size() < Opts.MaxConditionsPerRule) {
      Condition C;
      if (!findBestCondition(CovPos, CovNeg, C))
        break;
      R.Conditions.push_back(C);
      auto Keep = [&](IndexList &L) {
        IndexList Out;
        Out.reserve(L.size());
        for (int I : L)
          if (C.matches(D[static_cast<size_t>(I)].X))
            Out.push_back(I);
        L = std::move(Out);
      };
      Keep(CovPos);
      Keep(CovNeg);
    }
  }

  void pruneRule(Rule &R, const IndexList &PrunePos,
                 const IndexList &PruneNeg) const {
    if (R.Conditions.empty())
      return;
    double BestWorth = -2.0;
    size_t BestLen = R.size();
    Rule Prefix;
    Prefix.Conclusion = R.Conclusion;
    for (size_t Len = 0; Len <= R.size(); ++Len) {
      if (Len > 0)
        Prefix.Conditions.push_back(R.Conditions[Len - 1]);
      size_t P, N;
      countCoverage(D, Prefix, PrunePos, PruneNeg, P, N);
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

  std::vector<Rule> buildRuleList(IndexList Pos, IndexList Neg,
                                  Rng &R) const {
    std::vector<Rule> Rules;
    if (Pos.empty())
      return Rules;
    double BestDL = totalDL(Rules, Pos, Neg);
    IndexList AllPos = Pos, AllNeg = Neg;

    while (!Pos.empty() && Rules.size() < Opts.MaxRules) {
      IndexList GP, GN, PP, PN;
      splitGrowPrune(Pos, Neg, R, GP, GN, PP, PN);

      Rule NewRule;
      NewRule.Conclusion = Target;
      growRule(NewRule, GP, GN);
      pruneRule(NewRule, PP, PN);
      if (NewRule.Conditions.empty())
        break;

      size_t P, N;
      countCoverage(D, NewRule, PP, PN, P, N);
      if (P + N > 0 && N > P)
        break;

      size_t CovP, CovN;
      countCoverage(D, NewRule, Pos, Neg, CovP, CovN);
      if (CovP == 0)
        break;

      Rules.push_back(NewRule);
      double DL = totalDL(Rules, AllPos, AllNeg);
      if (DL < BestDL)
        BestDL = DL;
      if (DL > BestDL + Opts.MdlSlackBits) {
        Rules.pop_back();
        break;
      }

      auto RemoveCovered = [&](IndexList &L) {
        IndexList Out;
        Out.reserve(L.size());
        for (int I : L)
          if (!NewRule.matches(D[static_cast<size_t>(I)].X))
            Out.push_back(I);
        L = std::move(Out);
      };
      RemoveCovered(Pos);
      RemoveCovered(Neg);
    }
    return Rules;
  }

  void optimizePass(std::vector<Rule> &Rules, const IndexList &AllPos,
                    const IndexList &AllNeg, Rng &R) const {
    for (size_t RI = 0; RI != Rules.size(); ++RI) {
      IndexList ReachPos, ReachNeg;
      auto Reaches = [&](int I) {
        for (size_t J = 0; J != RI; ++J)
          if (Rules[J].matches(D[static_cast<size_t>(I)].X))
            return false;
        return true;
      };
      for (int I : AllPos)
        if (Reaches(I))
          ReachPos.push_back(I);
      for (int I : AllNeg)
        if (Reaches(I))
          ReachNeg.push_back(I);
      if (ReachPos.empty())
        continue;

      IndexList GP, GN, PP, PN;
      splitGrowPrune(ReachPos, ReachNeg, R, GP, GN, PP, PN);

      Rule Replacement;
      Replacement.Conclusion = Target;
      growRule(Replacement, GP, GN);
      pruneRule(Replacement, PP, PN);

      Rule Revision = Rules[RI];
      Revision.NumCorrect = Revision.NumIncorrect = 0;
      growRule(Revision, GP, GN);
      pruneRule(Revision, PP, PN);

      double DLOrig = totalDL(Rules, AllPos, AllNeg);
      std::vector<Rule> Variant = Rules;
      double DLRepl = 1e300, DLRev = 1e300;
      if (!Replacement.Conditions.empty()) {
        Variant[RI] = Replacement;
        DLRepl = totalDL(Variant, AllPos, AllNeg);
      }
      if (!Revision.Conditions.empty()) {
        Variant[RI] = Revision;
        DLRev = totalDL(Variant, AllPos, AllNeg);
      }
      if (DLRepl < DLOrig && DLRepl <= DLRev)
        Rules[RI] = Replacement;
      else if (DLRev < DLOrig)
        Rules[RI] = Revision;
    }

    IndexList UncovPos, UncovNeg;
    auto CoveredByAny = [&](int I) {
      for (const Rule &Rl : Rules)
        if (Rl.matches(D[static_cast<size_t>(I)].X))
          return true;
      return false;
    };
    for (int I : AllPos)
      if (!CoveredByAny(I))
        UncovPos.push_back(I);
    for (int I : AllNeg)
      if (!CoveredByAny(I))
        UncovNeg.push_back(I);
    std::vector<Rule> Extra = buildRuleList(UncovPos, UncovNeg, R);
    for (Rule &E : Extra)
      if (Rules.size() < Opts.MaxRules)
        Rules.push_back(std::move(E));

    bool Changed = true;
    while (Changed && !Rules.empty()) {
      Changed = false;
      double CurDL = totalDL(Rules, AllPos, AllNeg);
      double BestDL = CurDL;
      size_t BestIdx = Rules.size();
      for (size_t RI = 0; RI != Rules.size(); ++RI) {
        std::vector<Rule> Without = Rules;
        Without.erase(Without.begin() + static_cast<long>(RI));
        double DL = totalDL(Without, AllPos, AllNeg);
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

/// The original Ripper::train, verbatim.
inline RuleSet trainReference(const Dataset &Data,
                              const RipperOptions &Opts = RipperOptions()) {
  size_t NumLS = Data.countLabel(Label::LS);
  size_t NumNS = Data.size() - NumLS;

  if (Data.empty())
    return RuleSet(Label::NS);
  if (NumLS == 0)
    return RuleSet(Label::NS);
  if (NumNS == 0)
    return RuleSet(Label::LS);

  Label Target = NumLS <= NumNS ? Label::LS : Label::NS;
  Label Default = Target == Label::LS ? Label::NS : Label::LS;

  Trainer T(Data, Opts, Target);
  IndexList Pos, Neg;
  for (int I = 0, E = static_cast<int>(Data.size()); I != E; ++I)
    (T.isPos(I) ? Pos : Neg).push_back(I);

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

} // namespace reference
} // namespace schedfilter

#endif // SCHEDFILTER_TESTS_REFERENCERIPPER_H
