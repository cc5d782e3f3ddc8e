//===- ml/Serialization.cpp - Persisting induced filters --------------------===//

#include "ml/Serialization.h"

#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>

using namespace schedfilter;

unsigned schedfilter::findFeatureByName(const std::string &Name) {
  for (unsigned F = 0; F != NumFeatures; ++F)
    if (Name == getFeatureName(F))
      return F;
  return NumFeatures;
}

void schedfilter::writeRuleSet(const RuleSet &RS, std::ostream &OS) {
  OS << "schedfilter-rules v1\n";
  OS << "default " << getLabelName(RS.getDefaultClass()) << '\n';
  for (const Rule &R : RS.rules()) {
    OS << "rule " << getLabelName(R.Conclusion) << " :- ";
    for (size_t I = 0; I != R.Conditions.size(); ++I) {
      const Condition &C = R.Conditions[I];
      if (I)
        OS << ", ";
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.17g", C.Threshold);
      OS << getFeatureName(C.Feature) << (C.IsLessEqual ? " <= " : " >= ")
         << Buf;
    }
    if (R.Conditions.empty())
      OS << "true";
    OS << '\n';
  }
}

namespace {

/// Strips leading/trailing spaces.
std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t\r");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t\r");
  return S.substr(B, E - B + 1);
}

std::optional<Label> parseLabel(const std::string &S) {
  if (S == "LS")
    return Label::LS;
  if (S == "NS")
    return Label::NS;
  return std::nullopt;
}

/// Parses one "<feature> <= <value>" condition; on failure \p Why says
/// what was wrong with \p Text.
std::optional<Condition> parseCondition(const std::string &Text,
                                        std::string &Why) {
  size_t OpPos = Text.find("<=");
  bool IsLE = true;
  if (OpPos == std::string::npos) {
    OpPos = Text.find(">=");
    IsLE = false;
  }
  if (OpPos == std::string::npos) {
    Why = "condition '" + Text + "' has no '<=' or '>=' operator";
    return std::nullopt;
  }
  std::string FeatName = trim(Text.substr(0, OpPos));
  std::string ValText = trim(Text.substr(OpPos + 2));
  unsigned Feature = findFeatureByName(FeatName);
  if (Feature == NumFeatures) {
    Why = "unknown feature '" + FeatName + "'";
    return std::nullopt;
  }
  if (ValText.empty()) {
    Why = "condition on '" + FeatName + "' is missing its threshold";
    return std::nullopt;
  }
  // parseDecimal still reads "nan" and "inf", which must be rejected too:
  // a NaN threshold creates a never-matching condition and poisons
  // RuleSet::minMatchableBBLen.
  std::optional<double> Threshold = parseDecimal(ValText);
  if (!Threshold) {
    Why = "threshold '" + ValText + "' is not a number";
    return std::nullopt;
  }
  if (!std::isfinite(*Threshold)) {
    Why = "threshold '" + ValText + "' is not finite (NaN and infinite "
          "thresholds create never-matching conditions)";
    return std::nullopt;
  }
  return Condition{Feature, IsLE, *Threshold};
}

} // namespace

ParseResult<RuleSetFile> schedfilter::readRuleSetFile(std::istream &IS) {
  std::string Line;
  size_t LineNo = 0;

  if (!std::getline(IS, Line) || trim(Line) != "schedfilter-rules v1")
    return ParseError{1, "expected the header 'schedfilter-rules v1'"};
  ++LineNo;

  if (!std::getline(IS, Line))
    return ParseError{2, "missing 'default LS|NS' line"};
  ++LineNo;
  std::string DefaultLine = trim(Line);
  std::optional<Label> Default;
  if (DefaultLine.rfind("default ", 0) == 0)
    Default = parseLabel(trim(DefaultLine.substr(8)));
  if (!Default)
    return ParseError{LineNo,
                      "expected 'default LS' or 'default NS', got '" +
                          DefaultLine + "'"};

  RuleSetFile File;
  File.Rules.setDefaultClass(*Default);
  while (std::getline(IS, Line)) {
    ++LineNo;
    std::string T = trim(Line);
    if (T.empty() || T[0] == '#')
      continue;
    if (T.rfind("rule ", 0) != 0)
      return ParseError{LineNo, "expected a 'rule LS|NS :- ...' line, got '" +
                                    T + "'"};
    size_t Sep = T.find(" :- ");
    if (Sep == std::string::npos)
      return ParseError{LineNo, "rule line has no ' :- ' separator"};
    std::optional<Label> Concl = parseLabel(trim(T.substr(5, Sep - 5)));
    if (!Concl)
      return ParseError{LineNo, "rule conclusion '" +
                                    trim(T.substr(5, Sep - 5)) +
                                    "' is not LS or NS"};
    Rule R;
    R.Conclusion = *Concl;
    std::string Body = trim(T.substr(Sep + 4));
    if (Body != "true") {
      std::stringstream SS(Body);
      std::string Part;
      std::string Why;
      while (std::getline(SS, Part, ',')) {
        std::optional<Condition> C = parseCondition(trim(Part), Why);
        if (!C)
          return ParseError{LineNo, Why};
        R.Conditions.push_back(*C);
      }
      if (R.Conditions.empty())
        return ParseError{LineNo, "rule body is empty (use 'true' for a "
                                  "match-all rule)"};
    }
    File.Rules.addRule(std::move(R));
    File.RuleLines.push_back(LineNo);
  }
  return File;
}

ParseResult<RuleSet> schedfilter::readRuleSet(std::istream &IS) {
  ParseResult<RuleSetFile> File = readRuleSetFile(IS);
  if (!File)
    return File.error();
  return std::move(File->Rules);
}
