//===- tests/serialization_test.cpp - ml/Serialization unit tests -------------===//

#include "ml/Serialization.h"

#include "ml/Ripper.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

using namespace schedfilter;

namespace {

RuleSet sampleRuleSet() {
  RuleSet RS(Label::NS);
  Rule R1;
  R1.Conclusion = Label::LS;
  R1.Conditions.push_back({FeatBBLen, false, 7.0});
  R1.Conditions.push_back({FeatCall, true, 0.0857});
  RS.addRule(R1);
  Rule R2;
  R2.Conclusion = Label::LS;
  R2.Conditions.push_back({FeatLoad, false, 0.3793});
  RS.addRule(R2);
  return RS;
}

} // namespace

TEST(Serialization, RoundTripPreservesSemantics) {
  RuleSet RS = sampleRuleSet();
  std::stringstream SS;
  writeRuleSet(RS, SS);
  ParseResult<RuleSet> Back = readRuleSet(SS);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->getDefaultClass(), RS.getDefaultClass());
  ASSERT_EQ(Back->size(), RS.size());
  for (size_t I = 0; I != RS.size(); ++I) {
    const Rule &A = RS.rules()[I];
    const Rule &B = Back->rules()[I];
    EXPECT_EQ(A.Conclusion, B.Conclusion);
    ASSERT_EQ(A.Conditions.size(), B.Conditions.size());
    for (size_t C = 0; C != A.Conditions.size(); ++C) {
      EXPECT_EQ(A.Conditions[C].Feature, B.Conditions[C].Feature);
      EXPECT_EQ(A.Conditions[C].IsLessEqual, B.Conditions[C].IsLessEqual);
      EXPECT_DOUBLE_EQ(A.Conditions[C].Threshold, B.Conditions[C].Threshold);
    }
  }
}

TEST(Serialization, RoundTripExactThresholds) {
  // %.17g must reproduce doubles bit-exactly.
  RuleSet RS(Label::NS);
  Rule R;
  R.Conclusion = Label::LS;
  R.Conditions.push_back({FeatLoad, false, 1.0 / 3.0});
  R.Conditions.push_back({FeatStore, true, 0.1 + 0.2});
  RS.addRule(R);
  std::stringstream SS;
  writeRuleSet(RS, SS);
  ParseResult<RuleSet> Back = readRuleSet(SS);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->rules()[0].Conditions[0].Threshold, 1.0 / 3.0);
  EXPECT_EQ(Back->rules()[0].Conditions[1].Threshold, 0.1 + 0.2);
}

TEST(Serialization, RoundTripExtremeThresholds) {
  // The far corners of double territory a learner can plausibly emit
  // (and a hand editor can type): denormals, the overflow boundary,
  // negatives, and huge magnitudes must all survive %.17g bit-exactly.
  const double Extremes[] = {
      5e-324,                  // smallest denormal
      2.2250738585072014e-308, // DBL_MIN
      1.7976931348623157e308,  // DBL_MAX
      -1.0 / 3.0,
      1e-300,
      123456789.12345679,
      -0.0,
  };
  RuleSet RS(Label::NS);
  Rule R;
  R.Conclusion = Label::LS;
  for (size_t I = 0; I != sizeof(Extremes) / sizeof(Extremes[0]); ++I)
    R.Conditions.push_back(
        {static_cast<unsigned>(I % NumFeatures), I % 2 == 0, Extremes[I]});
  RS.addRule(R);
  std::stringstream SS;
  writeRuleSet(RS, SS);
  ParseResult<RuleSet> Back = readRuleSet(SS);
  ASSERT_TRUE(Back.has_value()) << Back.error().str();
  const Rule &B = Back->rules()[0];
  for (size_t I = 0; I != sizeof(Extremes) / sizeof(Extremes[0]); ++I) {
    EXPECT_EQ(B.Conditions[I].Threshold, Extremes[I]) << "condition " << I;
    EXPECT_EQ(std::signbit(B.Conditions[I].Threshold),
              std::signbit(Extremes[I]))
        << "condition " << I; // -0.0 must stay negative zero
  }
}

TEST(Serialization, ErrorsCarryLineNumbers) {
  {
    std::stringstream SS("schedfilter-rules v1\n"
                         "default NS\n"
                         "rule LS :- bbLen >= 7\n"
                         "rule LS :- frobs >= 7\n");
    ParseResult<RuleSet> R = readRuleSet(SS);
    ASSERT_FALSE(R.has_value());
    EXPECT_EQ(R.error().Line, 4u);
    EXPECT_NE(R.error().Message.find("frobs"), std::string::npos);
  }
  {
    std::stringstream SS("schedfilter-rules v1\n"
                         "default NS\n"
                         "# comment\n"
                         "\n"
                         "rule LS :- bbLen >= seven\n");
    ParseResult<RuleSet> R = readRuleSet(SS);
    ASSERT_FALSE(R.has_value());
    EXPECT_EQ(R.error().Line, 5u); // comments and blanks still count
    EXPECT_NE(R.error().Message.find("seven"), std::string::npos);
  }
  {
    std::stringstream SS("wrong v9\n");
    ParseResult<RuleSet> R = readRuleSet(SS);
    ASSERT_FALSE(R.has_value());
    EXPECT_EQ(R.error().Line, 1u);
  }
}

TEST(Serialization, EmptyAntecedentRoundTrips) {
  RuleSet RS(Label::NS);
  Rule R;
  R.Conclusion = Label::LS; // matches everything
  RS.addRule(R);
  std::stringstream SS;
  writeRuleSet(RS, SS);
  ParseResult<RuleSet> Back = readRuleSet(SS);
  ASSERT_TRUE(Back.has_value());
  ASSERT_EQ(Back->size(), 1u);
  EXPECT_TRUE(Back->rules()[0].Conditions.empty());
}

TEST(Serialization, EmptyRuleSetRoundTrips) {
  RuleSet RS(Label::LS);
  std::stringstream SS;
  writeRuleSet(RS, SS);
  ParseResult<RuleSet> Back = readRuleSet(SS);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->size(), 0u);
  EXPECT_EQ(Back->getDefaultClass(), Label::LS);
}

TEST(Serialization, CommentsAndBlankLinesIgnored) {
  std::stringstream SS("schedfilter-rules v1\n"
                       "default NS\n"
                       "\n"
                       "# hand-tuned afterwards\n"
                       "rule LS :- bbLen >= 7\n");
  ParseResult<RuleSet> RS = readRuleSet(SS);
  ASSERT_TRUE(RS.has_value());
  EXPECT_EQ(RS->size(), 1u);
}

TEST(Serialization, RejectsBadHeader) {
  std::stringstream SS("wrong v9\ndefault NS\n");
  EXPECT_FALSE(readRuleSet(SS).has_value());
}

TEST(Serialization, RejectsUnknownFeature) {
  std::stringstream SS("schedfilter-rules v1\n"
                       "default NS\n"
                       "rule LS :- frobs >= 7\n");
  EXPECT_FALSE(readRuleSet(SS).has_value());
}

TEST(Serialization, RejectsBadOperatorOrValue) {
  std::stringstream A("schedfilter-rules v1\ndefault NS\n"
                      "rule LS :- bbLen == 7\n");
  EXPECT_FALSE(readRuleSet(A).has_value());
  std::stringstream B("schedfilter-rules v1\ndefault NS\n"
                      "rule LS :- bbLen >= seven\n");
  EXPECT_FALSE(readRuleSet(B).has_value());
}

TEST(Serialization, RejectsBadLabel) {
  std::stringstream SS("schedfilter-rules v1\ndefault MAYBE\n");
  EXPECT_FALSE(readRuleSet(SS).has_value());
}

TEST(Serialization, RejectsNonFiniteThresholds) {
  // strtod happily parses "nan", "inf" and friends, but a non-finite
  // threshold makes the condition never (or vacuously) match; the parser
  // must reject it with a line diagnostic naming the offending token.
  for (const char *Bad : {"nan", "NaN", "-nan", "inf", "INF", "-inf",
                          "infinity", "1e999", "-1e999"}) {
    std::stringstream SS(std::string("schedfilter-rules v1\n"
                                     "default NS\n"
                                     "rule LS :- bbLen >= ") +
                         Bad + "\n");
    ParseResult<RuleSet> R = readRuleSet(SS);
    ASSERT_FALSE(R.has_value()) << "accepted threshold '" << Bad << "'";
    EXPECT_EQ(R.error().Line, 3u) << Bad;
    EXPECT_NE(R.error().Message.find("finite"), std::string::npos) << Bad;
  }
}

TEST(Serialization, RejectsHexAndTrailingJunkThresholds) {
  for (const char *Bad : {"0x10", "0X10", "7junk", "1.5.2", "3,0"}) {
    std::stringstream SS(std::string("schedfilter-rules v1\n"
                                     "default NS\n"
                                     "rule LS :- loads <= ") +
                         Bad + "\n");
    ParseResult<RuleSet> R = readRuleSet(SS);
    EXPECT_FALSE(R.has_value()) << "accepted threshold '" << Bad << "'";
  }
}

TEST(Serialization, AcceptsOrdinaryNumericThresholds) {
  // The strict parse must not over-reject: plain, signed, scientific and
  // dotted forms are all legitimate learner/hand-editor output.
  for (const char *Good : {"7", "-7", "0.375", ".5", "1e-3", "1E3",
                           "5e-324", "-0.0", "00012"}) {
    std::stringstream SS(std::string("schedfilter-rules v1\n"
                                     "default NS\n"
                                     "rule LS :- stores <= ") +
                         Good + "\n");
    ParseResult<RuleSet> R = readRuleSet(SS);
    EXPECT_TRUE(R.has_value()) << "rejected threshold '" << Good
                               << "': " << R.error().str();
  }
}

TEST(Serialization, RuleSetFileRecordsRuleLines) {
  std::stringstream SS("schedfilter-rules v1\n"
                       "default NS\n"
                       "# comment\n"
                       "rule LS :- bbLen >= 7\n"
                       "\n"
                       "rule NS :- loads <= 0.5\n");
  ParseResult<RuleSetFile> F = readRuleSetFile(SS);
  ASSERT_TRUE(F.has_value()) << F.error().str();
  ASSERT_EQ(F->Rules.size(), 2u);
  ASSERT_EQ(F->RuleLines.size(), 2u);
  EXPECT_EQ(F->RuleLines[0], 4u);
  EXPECT_EQ(F->RuleLines[1], 6u);
}

TEST(Serialization, FeatureNameLookup) {
  EXPECT_EQ(findFeatureByName("bbLen"), static_cast<unsigned>(FeatBBLen));
  EXPECT_EQ(findFeatureByName("loads"), static_cast<unsigned>(FeatLoad));
  EXPECT_EQ(findFeatureByName("nothing"),
            static_cast<unsigned>(NumFeatures));
}

TEST(Serialization, TrainedFilterSurvivesRoundTrip) {
  // End-to-end: a real RIPPER filter serialized and reloaded must make
  // identical predictions.
  std::vector<Instance> Is;
  Rng R(12);
  for (int I = 0; I != 600; ++I) {
    FeatureVector X{};
    X[FeatBBLen] = R.range(1, 20);
    X[FeatLoad] = R.uniform();
    X[FeatFloat] = R.uniform();
    bool Pos = X[FeatBBLen] >= 8 && X[FeatLoad] >= 0.3;
    Is.push_back({X, Pos ? Label::LS : Label::NS});
  }
  Dataset D = Dataset::fromInstances("rt", Is);
  RuleSet RS = Ripper().train(D);
  std::stringstream SS;
  writeRuleSet(RS, SS);
  ParseResult<RuleSet> Back = readRuleSet(SS);
  ASSERT_TRUE(Back.has_value());
  for (const Instance &I : Is)
    EXPECT_EQ(RS.predict(I.X), Back->predict(I.X));
}
