//===- tests/rule_test.cpp - ml/Rule unit tests ------------------------------===//

#include "ml/Rule.h"

#include <gtest/gtest.h>

using namespace schedfilter;

namespace {

FeatureVector fv(double BBLen, double Loads = 0.0, double Calls = 0.0) {
  FeatureVector X{};
  X[FeatBBLen] = BBLen;
  X[FeatLoad] = Loads;
  X[FeatCall] = Calls;
  return X;
}

Rule lsRule(std::vector<Condition> Conds) {
  Rule R;
  R.Conclusion = Label::LS;
  R.Conditions = std::move(Conds);
  return R;
}

} // namespace

TEST(Condition, LessEqualAndGreaterEqual) {
  Condition LE{FeatBBLen, /*IsLessEqual=*/true, 7.0};
  EXPECT_TRUE(LE.matches(fv(7)));
  EXPECT_TRUE(LE.matches(fv(3)));
  EXPECT_FALSE(LE.matches(fv(8)));

  Condition GE{FeatBBLen, /*IsLessEqual=*/false, 7.0};
  EXPECT_TRUE(GE.matches(fv(7)));
  EXPECT_TRUE(GE.matches(fv(12)));
  EXPECT_FALSE(GE.matches(fv(6)));
}

TEST(Condition, ToStringFormats) {
  Condition C{FeatBBLen, false, 7.0};
  EXPECT_EQ(C.toString(), "bbLen >= 7");
  Condition D{FeatCall, true, 0.0857};
  EXPECT_EQ(D.toString(), "calls <= 0.0857");
}

TEST(Rule, ConjunctionSemantics) {
  Rule R = lsRule({{FeatBBLen, false, 7.0}, {FeatLoad, false, 0.3}});
  EXPECT_TRUE(R.matches(fv(8, 0.4)));
  EXPECT_FALSE(R.matches(fv(8, 0.2)));
  EXPECT_FALSE(R.matches(fv(5, 0.4)));
}

TEST(Rule, EmptyAntecedentMatchesEverything) {
  Rule R = lsRule({});
  EXPECT_TRUE(R.matches(fv(0)));
  EXPECT_TRUE(R.matches(fv(100, 1.0, 1.0)));
}

TEST(Rule, ToStringShowsCountsAndClass) {
  Rule R = lsRule({{FeatBBLen, false, 7.0}});
  R.NumCorrect = 924;
  R.NumIncorrect = 12;
  std::string S = R.toString();
  EXPECT_NE(S.find("924"), std::string::npos);
  EXPECT_NE(S.find("12"), std::string::npos);
  EXPECT_NE(S.find("list :-"), std::string::npos);
  EXPECT_NE(S.find("bbLen >= 7"), std::string::npos);
}

TEST(RuleSet, FirstMatchWins) {
  RuleSet RS(Label::NS);
  RS.addRule(lsRule({{FeatBBLen, false, 10.0}}));
  RS.addRule(lsRule({{FeatLoad, false, 0.5}}));
  EXPECT_EQ(RS.predict(fv(12, 0.0)), Label::LS); // first rule
  EXPECT_EQ(RS.predict(fv(4, 0.6)), Label::LS);  // second rule
  EXPECT_EQ(RS.predict(fv(4, 0.1)), Label::NS);  // default
}

TEST(RuleSet, EmptyPredictsDefault) {
  EXPECT_EQ(RuleSet(Label::NS).predict(fv(50)), Label::NS);
  EXPECT_EQ(RuleSet(Label::LS).predict(fv(50)), Label::LS);
}

TEST(RuleSet, PredictionWorkCountsEvaluatedConditions) {
  RuleSet RS(Label::NS);
  RS.addRule(lsRule({{FeatBBLen, false, 10.0}, {FeatLoad, false, 0.5}}));
  // First condition fails: 1 evaluation + 1 default step.
  EXPECT_EQ(RS.predictionWork(fv(4)), 2u);
  // Both pass: 2 evaluations, no default step.
  EXPECT_EQ(RS.predictionWork(fv(12, 0.6)), 2u);
  // First passes, second fails: 2 + default.
  EXPECT_EQ(RS.predictionWork(fv(12, 0.1)), 3u);
}

TEST(RuleSet, TotalConditions) {
  RuleSet RS(Label::NS);
  RS.addRule(lsRule({{FeatBBLen, false, 7.0}, {FeatLoad, false, 0.3}}));
  RS.addRule(lsRule({{FeatCall, true, 0.1}}));
  EXPECT_EQ(RS.totalConditions(), 3u);
}

TEST(RuleSet, AnnotateCoverageFirstClaim) {
  RuleSet RS(Label::NS);
  RS.addRule(lsRule({{FeatBBLen, false, 10.0}}));
  RS.addRule(lsRule({{FeatBBLen, false, 5.0}}));

  Dataset D = Dataset::fromInstances(
      "d", {{fv(12), Label::LS},  // claimed by rule 0, correct
            {fv(11), Label::NS},  // claimed by rule 0, incorrect
            {fv(7), Label::LS},   // claimed by rule 1, correct
            {fv(3), Label::NS},   // default, correct
            {fv(2), Label::LS}}); // default, incorrect

  size_t DC = 0, DI = 0;
  RS.annotateCoverage(D, DC, DI);
  EXPECT_EQ(RS.rules()[0].NumCorrect, 1u);
  EXPECT_EQ(RS.rules()[0].NumIncorrect, 1u);
  EXPECT_EQ(RS.rules()[1].NumCorrect, 1u);
  EXPECT_EQ(RS.rules()[1].NumIncorrect, 0u);
  EXPECT_EQ(DC, 1u);
  EXPECT_EQ(DI, 1u);
}

TEST(RuleSet, MinMatchableBBLenGate) {
  RuleSet RS(Label::NS);
  RS.addRule(lsRule({{FeatBBLen, false, 7.0}, {FeatLoad, false, 0.3}}));
  RS.addRule(lsRule({{FeatBBLen, false, 5.0}}));
  EXPECT_DOUBLE_EQ(RS.minMatchableBBLen(), 5.0);
}

TEST(RuleSet, GateZeroWhenARuleLacksBBLenBound) {
  RuleSet RS(Label::NS);
  RS.addRule(lsRule({{FeatBBLen, false, 7.0}}));
  RS.addRule(lsRule({{FeatLoad, false, 0.5}})); // no bbLen bound
  EXPECT_DOUBLE_EQ(RS.minMatchableBBLen(), 0.0);
}

TEST(RuleSet, GateIgnoresUpperBounds) {
  RuleSet RS(Label::NS);
  RS.addRule(lsRule({{FeatBBLen, true, 7.0}})); // bbLen <= 7: no lower bound
  EXPECT_DOUBLE_EQ(RS.minMatchableBBLen(), 0.0);
}

TEST(RuleSet, EmptyRuleSetGateIsInfinite) {
  EXPECT_GT(RuleSet(Label::NS).minMatchableBBLen(), 1e300);
}

TEST(RuleSet, ToStringListsRulesAndDefault) {
  RuleSet RS(Label::NS);
  RS.addRule(lsRule({{FeatBBLen, false, 7.0}}));
  std::string S = RS.toString();
  EXPECT_NE(S.find("list :-"), std::string::npos);
  EXPECT_NE(S.find("(default) orig"), std::string::npos);
}

TEST(Dataset, AppendAndCounts) {
  Dataset All = Dataset::fromInstances(
      "all", {{fv(1), Label::LS}, {fv(2), Label::NS}, {fv(3), Label::NS}});
  Dataset A("a", All.rankTable()), B("b", All.rankTable());
  A.addRow(0, Label::LS);
  B.addRow(1, Label::NS);
  B.addRow(2, Label::NS);
  A.append(B);
  EXPECT_EQ(A.size(), 3u);
  EXPECT_EQ(A.countLabel(Label::LS), 1u);
  EXPECT_EQ(A.countLabel(Label::NS), 2u);
}
