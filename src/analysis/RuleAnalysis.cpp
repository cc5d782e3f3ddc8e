//===- analysis/RuleAnalysis.cpp - Static analysis of rule sets ------------===//

#include "analysis/RuleAnalysis.h"

#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>

using namespace schedfilter;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// Shortest-round-trip rendering for diagnostics: %g is compact for the
/// common thresholds and precise enough to paste back into a rules file.
std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%g", V);
  return Buf;
}

std::string ruleRef(size_t I) { return "rule #" + std::to_string(I + 1); }

/// The axis-aligned box a rule's antecedent denotes: one closed interval
/// per feature, [-inf, +inf] when unconstrained.  NeverMatches records a
/// NaN threshold (x <= NaN and x >= NaN are false for every x, so the
/// rule cannot fire no matter what the other conditions say).
struct Box {
  double Lo[NumFeatures];
  double Hi[NumFeatures];
  bool NeverMatches = false;

  Box() {
    for (unsigned F = 0; F != NumFeatures; ++F) {
      Lo[F] = -Inf;
      Hi[F] = Inf;
    }
  }

  /// The feature whose interval is empty, or NumFeatures when the box is
  /// nonempty.  NaN-threshold boxes report NumFeatures here; callers
  /// check NeverMatches first.
  unsigned emptyFeature() const {
    for (unsigned F = 0; F != NumFeatures; ++F)
      if (Lo[F] > Hi[F])
        return F;
    return NumFeatures;
  }

  bool empty() const { return NeverMatches || emptyFeature() != NumFeatures; }

  /// True when every point of \p B lies in this box (both nonempty;
  /// callers skip empty boxes).
  bool contains(const Box &B) const {
    for (unsigned F = 0; F != NumFeatures; ++F)
      if (B.Lo[F] < Lo[F] || B.Hi[F] > Hi[F])
        return false;
    return true;
  }
};

Box buildBox(const Rule &R) {
  Box B;
  for (const Condition &C : R.Conditions) {
    if (std::isnan(C.Threshold)) {
      B.NeverMatches = true;
      continue;
    }
    if (C.IsLessEqual)
      B.Hi[C.Feature] = std::min(B.Hi[C.Feature], C.Threshold);
    else
      B.Lo[C.Feature] = std::max(B.Lo[C.Feature], C.Threshold);
  }
  return B;
}

/// The corner grid of a condition set: per feature, one representative
/// per behaviorally distinct cell.  Every condition is an axis-aligned
/// threshold test, so along feature F the outcome vector of all
/// conditions on F is constant between consecutive thresholds; the
/// thresholds themselves plus their neighboring doubles hit every cell
/// that contains a double.  WithNaN additionally appends a NaN
/// coordinate per used feature (all comparisons false), which extends
/// completeness from real-valued inputs to every possible double input.
struct CornerGrid {
  std::vector<std::vector<double>> Values; // per feature, nonempty

  explicit CornerGrid(const std::vector<const RuleSet *> &Sets, bool WithNaN) {
    Values.resize(NumFeatures);
    for (const RuleSet *RS : Sets)
      for (const Rule &R : RS->rules())
        for (const Condition &C : R.Conditions) {
          if (std::isnan(C.Threshold))
            continue;
          double T = C.Threshold;
          Values[C.Feature].push_back(std::nextafter(T, -Inf));
          Values[C.Feature].push_back(T);
          Values[C.Feature].push_back(std::nextafter(T, Inf));
        }
    for (unsigned F = 0; F != NumFeatures; ++F) {
      std::vector<double> &V = Values[F];
      if (V.empty()) {
        V.push_back(0.0);
        continue;
      }
      std::sort(V.begin(), V.end());
      V.erase(std::unique(V.begin(), V.end()), V.end());
      if (WithNaN)
        V.push_back(std::numeric_limits<double>::quiet_NaN());
    }
  }

  /// Grid cardinality, saturated at UINT64_MAX.
  uint64_t size() const {
    uint64_t N = 1;
    for (const std::vector<double> &V : Values) {
      uint64_t K = V.size();
      if (N > std::numeric_limits<uint64_t>::max() / K)
        return std::numeric_limits<uint64_t>::max();
      N *= K;
    }
    return N;
  }

  /// Calls \p Visit on every grid point until it returns false (early
  /// exit) or the grid is exhausted.  Returns the number of points
  /// visited.
  template <typename Fn> uint64_t forEachPoint(Fn Visit) const {
    size_t Idx[NumFeatures] = {};
    FeatureVector X{};
    for (unsigned F = 0; F != NumFeatures; ++F)
      X[F] = Values[F][0];
    uint64_t Visited = 0;
    for (;;) {
      ++Visited;
      if (!Visit(const_cast<const FeatureVector &>(X)))
        return Visited;
      unsigned F = 0;
      for (; F != NumFeatures; ++F) {
        if (++Idx[F] < Values[F].size()) {
          X[F] = Values[F][Idx[F]];
          break;
        }
        Idx[F] = 0;
        X[F] = Values[F][0];
      }
      if (F == NumFeatures)
        return Visited;
    }
  }
};

/// Per-feature observed [min, max] over a dataset.
struct ObservedRange {
  double Min[NumFeatures];
  double Max[NumFeatures];
  bool Valid = false;

  explicit ObservedRange(const Dataset *Data) {
    if (!Data || Data->empty())
      return;
    Valid = true;
    for (unsigned F = 0; F != NumFeatures; ++F) {
      const double *Col = Data->rankTable()->values(F);
      Min[F] = Inf;
      Max[F] = -Inf;
      for (uint32_t Row : Data->rowIds()) {
        Min[F] = std::min(Min[F], Col[Row]);
        Max[F] = std::max(Max[F], Col[Row]);
      }
    }
  }
};

/// The analyzer's within-rule keep-tightest pass: Mask[c] != 0 iff
/// condition c of \p R is subsumed by a tighter (or earlier duplicate)
/// same-feature, same-direction test in the same rule, so dropping it is
/// predict()-equivalent.  \p Subsumer receives, per condition, the index
/// of the subsuming condition (LintFinding::npos when it is kept).
std::vector<char> redundantConditionMask(const Rule &R,
                                         std::vector<size_t> &Subsumer) {
  // Keep the tightest test per (feature, direction); every looser or
  // later-duplicate same-direction test is subsumed.  NaN thresholds are
  // excluded (the rule is dead regardless; the analyzer reports that as
  // its own finding).
  std::vector<char> Mask(R.Conditions.size(), 0);
  Subsumer.assign(R.Conditions.size(), LintFinding::npos);
  for (size_t C = 0; C != R.Conditions.size(); ++C) {
    const Condition &Cond = R.Conditions[C];
    if (std::isnan(Cond.Threshold))
      continue;
    size_t Tightest = LintFinding::npos;
    for (size_t D = 0; D != R.Conditions.size(); ++D) {
      const Condition &Other = R.Conditions[D];
      if (D == C || Other.Feature != Cond.Feature ||
          Other.IsLessEqual != Cond.IsLessEqual ||
          std::isnan(Other.Threshold))
        continue;
      bool OtherTighter = Cond.IsLessEqual
                              ? Other.Threshold < Cond.Threshold
                              : Other.Threshold > Cond.Threshold;
      bool Duplicate = Other.Threshold == Cond.Threshold && D < C;
      if (OtherTighter || Duplicate) {
        Tightest = D;
        break;
      }
    }
    if (Tightest != LintFinding::npos) {
      Mask[C] = 1;
      Subsumer[C] = Tightest;
    }
  }
  return Mask;
}

} // namespace

const char *schedfilter::getSeverityName(LintSeverity S) {
  switch (S) {
  case LintSeverity::Note:
    return "note";
  case LintSeverity::Warning:
    return "warning";
  case LintSeverity::Error:
    return "error";
  }
  return "unknown";
}

size_t RuleAnalysis::numFindings(LintSeverity S) const {
  size_t N = 0;
  for (const LintFinding &F : Findings)
    N += F.Severity == S;
  return N;
}

size_t RuleAnalysis::removedRules() const {
  size_t N = 0;
  for (char R : RemoveRule)
    N += R != 0;
  return N;
}

size_t RuleAnalysis::removedConditions() const {
  size_t N = 0;
  for (size_t I = 0; I != RemoveCondition.size(); ++I) {
    if (I < RemoveRule.size() && RemoveRule[I])
      continue;
    for (char C : RemoveCondition[I])
      N += C != 0;
  }
  return N;
}

RuleAnalysis schedfilter::analyzeRuleSet(const RuleSet &RS,
                                         const Dataset *Observed,
                                         uint64_t MaxGridPoints) {
  RuleAnalysis A;
  const std::vector<Rule> &Rules = RS.rules();
  A.RemoveRule.assign(Rules.size(), 0);
  A.RemoveCondition.resize(Rules.size());

  ObservedRange Range(Observed);
  std::vector<Box> Boxes;
  Boxes.reserve(Rules.size());

  auto Emit = [&A](LintKind Kind, LintSeverity Sev, size_t RuleI, size_t CondI,
                   size_t Other, std::string Msg) {
    A.Findings.push_back(
        {Kind, Sev, RuleI, CondI, Other, std::move(Msg)});
  };

  // --- Per-rule pass: threshold hygiene, within-rule redundancy, and
  // feasibility of the interval box. ---
  for (size_t I = 0; I != Rules.size(); ++I) {
    const Rule &R = Rules[I];
    A.RemoveCondition[I].assign(R.Conditions.size(), 0);

    for (size_t C = 0; C != R.Conditions.size(); ++C) {
      const Condition &Cond = R.Conditions[C];
      unsigned F = Cond.Feature;
      double T = Cond.Threshold;
      std::string CondStr = "condition '" + Cond.toString() + "'";

      if (!std::isfinite(T)) {
        Emit(LintKind::NonFiniteThreshold, LintSeverity::Error, I, C,
             LintFinding::npos,
             ruleRef(I) + ": " + CondStr + " has a non-finite threshold" +
                 (std::isnan(T) ? " (NaN can never compare true)"
                                : " (no real block reaches infinity)"));
        continue;
      }

      // Domain hygiene: every Table 1 feature is nonnegative, and all but
      // bbLen are fractions in [0, 1].
      bool Mismatch = false;
      const char *Domain = F == FeatBBLen ? "a nonnegative instruction count"
                                          : "a fraction in [0, 1]";
      if (T < 0.0) {
        Mismatch = true;
        Emit(LintKind::DomainMismatch, LintSeverity::Warning, I, C,
             LintFinding::npos,
             ruleRef(I) + ": " + CondStr +
                 (Cond.IsLessEqual
                      ? " can never match a real block ('" +
                            std::string(getFeatureName(F)) + "' is " + Domain +
                            ", never below " + fmt(T) + ")"
                      : " is vacuous ('" + std::string(getFeatureName(F)) +
                            "' is " + Domain + ", always above " + fmt(T) +
                            ")"));
      } else if (F != FeatBBLen && T > 1.0) {
        Mismatch = true;
        Emit(LintKind::DomainMismatch, LintSeverity::Warning, I, C,
             LintFinding::npos,
             ruleRef(I) + ": " + CondStr +
                 (Cond.IsLessEqual
                      ? " is vacuous ('" + std::string(getFeatureName(F)) +
                            "' is a fraction in [0, 1], always below " +
                            fmt(T) + ")"
                      : " can never match a real block ('" +
                            std::string(getFeatureName(F)) +
                            "' is a fraction in [0, 1], never above " +
                            fmt(T) + ")"));
      }

      // Observed-training-range hygiene (only when the static domain was
      // fine -- a negative threshold is already reported above).
      if (Range.Valid && !Mismatch &&
          (T < Range.Min[F] || T > Range.Max[F]))
        Emit(LintKind::OutOfObservedRange, LintSeverity::Note, I, C,
             LintFinding::npos,
             ruleRef(I) + ": threshold " + fmt(T) + " on '" +
                 getFeatureName(F) + "' lies outside the observed training "
                 "range [" + fmt(Range.Min[F]) + ", " + fmt(Range.Max[F]) +
                 "]");
    }

    // Within-rule redundancy via the keep-tightest pass.
    {
      std::vector<size_t> Subsumer;
      A.RemoveCondition[I] = redundantConditionMask(R, Subsumer);
      for (size_t C = 0; C != R.Conditions.size(); ++C)
        if (A.RemoveCondition[I][C])
          Emit(LintKind::RedundantCondition, LintSeverity::Warning, I, C,
               Subsumer[C],
               ruleRef(I) + ": condition '" + R.Conditions[C].toString() +
                   "' is redundant (subsumed by '" +
                   R.Conditions[Subsumer[C]].toString() + "')");
    }

    // Feasibility of the box.
    Box B = buildBox(R);
    if (B.NeverMatches) {
      A.RemoveRule[I] = 1;
      Emit(LintKind::DeadRule, LintSeverity::Error, I, LintFinding::npos,
           LintFinding::npos,
           ruleRef(I) + " is dead: a NaN threshold makes its antecedent "
                        "unsatisfiable");
    } else if (unsigned F = B.emptyFeature(); F != NumFeatures) {
      A.RemoveRule[I] = 1;
      Emit(LintKind::DeadRule, LintSeverity::Error, I, LintFinding::npos,
           LintFinding::npos,
           ruleRef(I) + " is dead: it requires '" + getFeatureName(F) +
               "' >= " + fmt(B.Lo[F]) + " and <= " + fmt(B.Hi[F]) +
               ", which no value satisfies");
    }
    Boxes.push_back(B);
  }

  // --- Cross-rule pass: shadowing.  First-match semantics: any input
  // matching rule J also matches the containing earlier rule I, so I
  // always claims it and J can never fire.  Containment is transitive,
  // so a rule shadowed by an already-shadowed rule is itself reported
  // against the earliest container found. ---
  for (size_t J = 0; J != Rules.size(); ++J) {
    if (A.RemoveRule[J] || Boxes[J].empty())
      continue;
    for (size_t I = 0; I != J; ++I) {
      if (Boxes[I].empty() || !Boxes[I].contains(Boxes[J]))
        continue;
      bool SameConclusion = Rules[I].Conclusion == Rules[J].Conclusion;
      A.RemoveRule[J] = 1;
      Emit(LintKind::ShadowedRule,
           SameConclusion ? LintSeverity::Warning : LintSeverity::Error, J,
           LintFinding::npos, I,
           ruleRef(J) + " is shadowed: every block it matches is claimed "
                        "first by " +
               ruleRef(I) +
               (SameConclusion
                    ? " (same conclusion; the rule is redundant)"
                    : ", which concludes the opposite class"));
      break;
    }
  }

  // --- Default-class reachability, decided exactly on the corner grid
  // of the rule set's own thresholds (real-valued inputs; feature
  // vectors of real blocks are never NaN). ---
  {
    CornerGrid Grid({&RS}, /*WithNaN=*/false);
    uint64_t Size = Grid.size();
    if (Size > MaxGridPoints) {
      Emit(LintKind::UnreachableDefault, LintSeverity::Note,
           LintFinding::npos, LintFinding::npos, LintFinding::npos,
           "default-class reachability left undecided: the threshold corner "
           "grid has " + std::to_string(Size) + " points (cap " +
               std::to_string(MaxGridPoints) + ")");
    } else {
      bool Reachable = false;
      Grid.forEachPoint([&](const FeatureVector &X) {
        bool Covered = false;
        for (const Rule &R : Rules)
          if (R.matches(X)) {
            Covered = true;
            break;
          }
        Reachable = !Covered;
        return Covered; // stop at the first fall-through point
      });
      if (!Reachable)
        Emit(LintKind::UnreachableDefault, LintSeverity::Warning,
             LintFinding::npos, LintFinding::npos, LintFinding::npos,
             "the default class '" +
                 std::string(getLabelName(RS.getDefaultClass())) +
                 "' can never apply: the rules jointly cover every "
                 "real-valued input");
    }
  }

  // Present findings in source order (set-level findings last); passes
  // above already emit conditions in order within each rule.
  std::stable_sort(A.Findings.begin(), A.Findings.end(),
                   [](const LintFinding &L, const LintFinding &R) {
                     return L.RuleIndex < R.RuleIndex;
                   });
  return A;
}

RuleSet schedfilter::normalizeRuleSet(const RuleSet &RS,
                                      const RuleAnalysis &A) {
  RuleSet Out(RS.getDefaultClass());
  const std::vector<Rule> &Rules = RS.rules();
  for (size_t I = 0; I != Rules.size(); ++I) {
    if (I < A.RemoveRule.size() && A.RemoveRule[I])
      continue;
    const Rule &R = Rules[I];
    Rule Kept;
    Kept.Conclusion = R.Conclusion;
    Kept.NumCorrect = R.NumCorrect;
    Kept.NumIncorrect = R.NumIncorrect;
    for (size_t C = 0; C != R.Conditions.size(); ++C) {
      bool Drop = I < A.RemoveCondition.size() &&
                  C < A.RemoveCondition[I].size() && A.RemoveCondition[I][C];
      if (!Drop)
        Kept.Conditions.push_back(R.Conditions[C]);
    }
    Out.addRule(std::move(Kept));
  }
  return Out;
}

CornerGridWalk schedfilter::forEachCornerPoint(
    const std::vector<const RuleSet *> &Sets, bool WithNaN,
    uint64_t MaxPoints,
    const std::function<bool(const FeatureVector &)> &Visit) {
  CornerGridWalk Walk;
  CornerGrid Grid(Sets, WithNaN);
  Walk.GridSize = Grid.size();

  if (Walk.GridSize <= MaxPoints) {
    Walk.PointsVisited = Grid.forEachPoint(Visit);
    return Walk;
  }

  // Grid too large to enumerate: visit a deterministic sample of grid
  // points instead.  Conclusions are then evidence, not a proof.
  Walk.Exhaustive = false;
  Rng R(0x5f11e7);
  FeatureVector X{};
  for (uint64_t P = 0; P != MaxPoints; ++P) {
    for (unsigned F = 0; F != NumFeatures; ++F) {
      const std::vector<double> &V = Grid.Values[F];
      X[F] = V[R.below(static_cast<uint32_t>(V.size()))];
    }
    ++Walk.PointsVisited;
    if (!Visit(X))
      return Walk;
  }
  return Walk;
}

EquivalenceCheck schedfilter::checkPredictEquivalence(const RuleSet &A,
                                                      const RuleSet &B,
                                                      uint64_t MaxPoints) {
  EquivalenceCheck Result;
  CornerGridWalk Walk = forEachCornerPoint(
      {&A, &B}, /*WithNaN=*/true, MaxPoints, [&](const FeatureVector &X) {
        if (A.predict(X) == B.predict(X))
          return true;
        Result.Equivalent = false;
        Result.Counterexample = X;
        return false;
      });
  Result.Exhaustive = Walk.Exhaustive;
  Result.GridSize = Walk.GridSize;
  Result.PointsChecked = Walk.PointsVisited;
  return Result;
}

size_t schedfilter::printFindings(const RuleAnalysis &A, std::ostream &OS,
                                  const std::string &Path,
                                  const std::vector<size_t> *RuleLines) {
  for (const LintFinding &F : A.Findings) {
    if (!Path.empty()) {
      OS << Path;
      if (RuleLines && F.RuleIndex != LintFinding::npos &&
          F.RuleIndex < RuleLines->size())
        OS << ':' << (*RuleLines)[F.RuleIndex];
      OS << ": ";
    }
    OS << getSeverityName(F.Severity) << ": " << F.Message << '\n';
  }
  return A.Findings.size();
}
