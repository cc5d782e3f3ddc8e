//===- harness/TableRender.cpp - Paper-layout table printing ----------------===//

#include "harness/TableRender.h"

#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <cassert>

using namespace schedfilter;

namespace {

/// Builds the shared "Threshold | bench1 .. benchN | Geometric mean"
/// table over per-benchmark values extracted by \p Get.
TablePrinter makePerBenchmarkTable(
    const std::vector<ThresholdResult> &Sweep, int Decimals,
    const std::function<const std::vector<double> &(const ThresholdResult &)>
        &Get) {
  assert(!Sweep.empty() && "sweep must contain at least one threshold");
  std::vector<std::string> Header = {"Threshold"};
  for (const std::string &N : Sweep.front().Names)
    Header.push_back(N);
  Header.push_back("Geo. mean");

  TablePrinter T(Header);
  for (const ThresholdResult &R : Sweep) {
    std::vector<std::string> Row = {formatDouble(R.ThresholdPct, 0) + "%"};
    const std::vector<double> &Vals = Get(R);
    for (double V : Vals)
      Row.push_back(formatDouble(V, Decimals));
    Row.push_back(formatDouble(geometricMean(Vals), Decimals));
    T.addRow(std::move(Row));
  }
  return T;
}

void printBoth(const TablePrinter &T, std::ostream &OS) {
  T.print(OS);
  OS << "\ncsv:\n";
  T.printCsv(OS);
}

} // namespace

void schedfilter::renderTable3(const std::vector<ThresholdResult> &Sweep,
                               std::ostream &OS) {
  OS << "Table 3: classification error rates (percent misclassified) for "
        "different threshold values\n\n";
  printBoth(makePerBenchmarkTable(
                Sweep, 2,
                [](const ThresholdResult &R) -> const std::vector<double> & {
                  return R.ErrorPct;
                }),
            OS);
}

void schedfilter::renderTable4(const std::vector<ThresholdResult> &Sweep,
                               std::ostream &OS) {
  OS << "Table 4: predicted execution times (percent of unscheduled code) "
        "for different threshold values\n\n";
  printBoth(makePerBenchmarkTable(
                Sweep, 2,
                [](const ThresholdResult &R) -> const std::vector<double> & {
                  return R.PredictedTimePct;
                }),
            OS);
}

void schedfilter::renderTable5(const std::vector<ThresholdResult> &Sweep,
                               std::ostream &OS) {
  OS << "Table 5: effect of t on training set size (counts summed over the "
        "suite; NS is constant at " +
            std::to_string(Sweep.empty() ? 0 : Sweep.front().TrainNS) +
            ")\n\n";
  std::vector<std::string> Header = {"Label"};
  for (const ThresholdResult &R : Sweep)
    Header.push_back("t=" + formatDouble(R.ThresholdPct, 0));
  TablePrinter T(Header);
  std::vector<std::string> RowLS = {"LS"}, RowNS = {"NS"};
  for (const ThresholdResult &R : Sweep) {
    RowLS.push_back(std::to_string(R.TrainLS));
    RowNS.push_back(std::to_string(R.TrainNS));
  }
  T.addRow(RowLS);
  T.addRow(RowNS);
  printBoth(T, OS);
}

void schedfilter::renderTable6(const std::vector<ThresholdResult> &Sweep,
                               std::ostream &OS) {
  OS << "Table 6: effect of t on run-time classification of blocks "
        "(counts summed over the suite; total is constant)\n\n";
  std::vector<std::string> Header = {"Label"};
  for (const ThresholdResult &R : Sweep)
    Header.push_back("t=" + formatDouble(R.ThresholdPct, 0));
  TablePrinter T(Header);
  std::vector<std::string> RowNS = {"NS"}, RowLS = {"LS"};
  for (const ThresholdResult &R : Sweep) {
    RowNS.push_back(std::to_string(R.RuntimeNS));
    RowLS.push_back(std::to_string(R.RuntimeLS));
  }
  T.addRow(RowNS);
  T.addRow(RowLS);
  printBoth(T, OS);
}

void schedfilter::renderEffortFigure(const std::vector<ThresholdResult> &Sweep,
                                     std::ostream &OS) {
  OS << "Figure (a): scheduling effort of L/N relative to LS "
        "(deterministic work units); NS is 0 by definition\n\n";
  printBoth(makePerBenchmarkTable(
                Sweep, 3,
                [](const ThresholdResult &R) -> const std::vector<double> & {
                  return R.EffortRatioWork;
                }),
            OS);
}

void schedfilter::renderAppTimeFigure(
    const std::vector<ThresholdResult> &Sweep, std::ostream &OS) {
  OS << "Figure (b): application (simulated) running time relative to NS "
        "(< 1 is an improvement)\n\n";
  assert(!Sweep.empty());
  std::vector<std::string> Header = {"Policy"};
  for (const std::string &N : Sweep.front().Names)
    Header.push_back(N);
  Header.push_back("Geo. mean");
  TablePrinter T(Header);

  std::vector<std::string> LSRow = {"LS (always)"};
  for (double V : Sweep.front().AppRatioLS)
    LSRow.push_back(formatDouble(V, 4));
  LSRow.push_back(formatDouble(geometricMean(Sweep.front().AppRatioLS), 4));
  T.addRow(LSRow);

  for (const ThresholdResult &R : Sweep) {
    std::vector<std::string> Row = {"L/N t=" +
                                    formatDouble(R.ThresholdPct, 0)};
    for (double V : R.AppRatioLN)
      Row.push_back(formatDouble(V, 4));
    Row.push_back(formatDouble(geometricMean(R.AppRatioLN), 4));
    T.addRow(Row);
  }
  printBoth(T, OS);
}

void schedfilter::renderInducedFilter(const RuleSet &Filter,
                                      std::ostream &OS) {
  OS << "Figure 4: induced heuristic generated by rule induction\n"
     << "(correct/incorrect training coverage)  class :- conditions\n\n"
     << Filter.toString();
}

void schedfilter::renderHeadline(const std::vector<ThresholdResult> &Sweep,
                                 std::ostream &OS) {
  OS << "Headline: benefit retained vs effort spent (suite geometric "
        "means)\n\n";
  TablePrinter T({"Threshold", "LS benefit retained", "Effort vs LS (work)"});
  for (const ThresholdResult &R : Sweep) {
    double LS = geometricMean(R.AppRatioLS);
    double LN = geometricMean(R.AppRatioLN);
    double BenefitLS = 1.0 - LS;
    double BenefitLN = 1.0 - LN;
    double Retained =
        BenefitLS > 0.0 ? 100.0 * BenefitLN / BenefitLS : 100.0;
    T.addRow({formatDouble(R.ThresholdPct, 0) + "%",
              formatDouble(Retained, 1) + "%",
              formatPercent(geometricMean(R.EffortRatioWork), 1)});
  }
  T.print(OS);
}
