//===- ml/Rule.cpp - If-then rules over block features ---------------------===//

#include "ml/Rule.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace schedfilter;

std::string Condition::toString() const {
  std::string S = getFeatureName(Feature);
  S += IsLessEqual ? " <= " : " >= ";
  // bbLen is integral; fractions print with 4 decimals like the paper.
  if (Feature == FeatBBLen)
    S += formatDouble(Threshold, 0);
  else
    S += formatDouble(Threshold, 4);
  return S;
}

std::string Rule::toString() const {
  std::string S = "(" + padLeft(std::to_string(NumCorrect), 5) + "/" +
                  padLeft(std::to_string(NumIncorrect), 4) + ") ";
  S += Conclusion == Label::LS ? "list :- " : "orig :- ";
  for (size_t I = 0; I != Conditions.size(); ++I) {
    if (I)
      S += ", ";
    S += Conditions[I].toString();
  }
  if (Conditions.empty())
    S += "true";
  return S;
}

uint64_t RuleSet::predictionWork(const FeatureVector &X) const {
  uint64_t Work = 0;
  for (const Rule &R : Rules) {
    bool Matched = true;
    for (const Condition &C : R.Conditions) {
      ++Work;
      if (!C.matches(X)) {
        Matched = false;
        break;
      }
    }
    if (Matched)
      return Work;
  }
  return Work + 1;
}

double RuleSet::minMatchableBBLen() const {
  double Gate = 1e308;
  for (const Rule &R : Rules) {
    double RuleBound = 0.0;
    for (const Condition &C : R.Conditions)
      if (C.Feature == FeatBBLen && !C.IsLessEqual)
        RuleBound = std::max(RuleBound, C.Threshold);
    Gate = std::min(Gate, RuleBound);
  }
  return Rules.empty() ? 1e308 : Gate;
}

size_t RuleSet::totalConditions() const {
  size_t N = 0;
  for (const Rule &R : Rules)
    N += R.size();
  return N;
}

void RuleSet::annotateCoverage(const Dataset &Data, size_t &DefaultCorrect,
                               size_t &DefaultIncorrect) {
  for (Rule &R : Rules) {
    R.NumCorrect = 0;
    R.NumIncorrect = 0;
  }
  DefaultCorrect = 0;
  DefaultIncorrect = 0;
  for (size_t K = 0; K != Data.size(); ++K) {
    const Instance I = Data[K];
    bool Claimed = false;
    for (Rule &R : Rules) {
      if (!R.matches(I.X))
        continue;
      if (R.Conclusion == I.Y)
        ++R.NumCorrect;
      else
        ++R.NumIncorrect;
      Claimed = true;
      break;
    }
    if (!Claimed) {
      if (DefaultClass == I.Y)
        ++DefaultCorrect;
      else
        ++DefaultIncorrect;
    }
  }
}

std::string RuleSet::toString() const {
  std::string S;
  for (const Rule &R : Rules)
    S += R.toString() + "\n";
  S += "(default) " + std::string(DefaultClass == Label::LS ? "list" : "orig") +
       "\n";
  return S;
}
