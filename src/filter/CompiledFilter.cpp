//===- filter/CompiledFilter.cpp - Branchless rule-set evaluator ------------===//

#include "filter/CompiledFilter.h"

#include <cassert>
#include <limits>

using namespace schedfilter;

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
      Cells.push_back(L);
    }
  }
}
