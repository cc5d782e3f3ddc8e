//===- tools/sf-lint.cpp - Statically analyze an induced filter -------------===//
//
// Lints a rules file (or a freshly self-trained filter) with the
// analysis/ interval-domain analyzer: dead rules, shadowed rules,
// redundant conditions, unreachable default class, and threshold hygiene
// (NaN/inf, domain violations, and -- when a benchmark supplies a
// training corpus -- thresholds outside the observed feature ranges).
//
// Findings print one per line in the io/ file:line discipline
// ("rules.txt:7: error: rule #3 is dead: ...").  Exit status is non-zero
// when any error-severity finding is reported, so a broken filter fails a
// pipeline before it reaches the serve hot path.
//
// --fix --out FIXED.txt writes the normalized rule set (dead/shadowed
// rules and redundant conditions removed) after *proving* it
// predict()-equivalent to the original by exhaustive evaluation over the
// threshold corner grid; see analysis/RuleAnalysis.h for why that finite
// grid is a sound and complete test basis.
//
// Usage:
//   sf-lint RULES.txt [--benchmark NAME [--threshold T]]
//           [--fix --out FIXED.txt] [--max-grid N]
//           [--model ppc7410|ppc970|simple-scalar]
//           [--jobs N] [--corpus-dir DIR | --no-cache]
//   sf-lint --benchmark NAME [--threshold T] [--fix --out FIXED.txt]
//   sf-lint --help | --version
//
// With a rules file and --benchmark, the benchmark's labeled trace (from
// the corpus cache when warm) supplies the observed-range hygiene check.
// Without a rules file, the filter is self-trained on the benchmark at
// --threshold, exactly like sf-serve, and then linted -- the quick way to
// confirm the trainer's own output is clean.
//
//===----------------------------------------------------------------------===//

#include "analysis/RuleAnalysis.h"
#include "harness/ParallelExperiments.h"
#include "ml/Serialization.h"
#include "support/CommandLine.h"

#include "EngineOption.h"
#include "ModelOption.h"
#include "RulesOption.h"
#include "VersionOption.h"
#include "WorkloadOption.h"

#include <iostream>

using namespace schedfilter;

namespace {

void printUsage(std::ostream &OS) {
  OS << "usage: sf-lint RULES.txt [--benchmark NAME [--threshold T]]\n"
        "               [--fix --out FIXED.txt] [--max-grid N]\n"
        "               [--model ppc7410|ppc970|simple-scalar]\n"
        "               [--jobs N] [--corpus-dir DIR | --no-cache]\n"
        "       sf-lint --benchmark NAME [--threshold T]"
        " [--fix --out FIXED.txt]\n"
        "       sf-lint --list\n"
        "       sf-lint --help | --version\n";
}

int usage() {
  printUsage(std::cerr);
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  std::optional<CommandLine> CL = parseCommandLine(
      argc, argv, {"help", "version", "list", "fix", "no-cache"},
      {"benchmark", "model", "threshold", "max-grid", "out", "jobs",
       "corpus-dir"},
      Positionals::Allowed);
  if (!CL)
    return 1;
  if (handleInfoOptions(*CL, "sf-lint", printUsage))
    return 0;

  if (CL->positional().size() > 1)
    return usage();
  std::string RulesPath =
      CL->positional().empty() ? std::string() : CL->positional()[0];
  std::string Benchmark = CL->get("benchmark");
  if (RulesPath.empty() && Benchmark.empty()) {
    std::cerr << "error: give a rules file, a --benchmark to self-train on, "
                 "or both\n";
    return usage();
  }

  // Validate every flag before touching any file; benchmark resolution is
  // the shared registry-backed lookup (any family's benchmark lints).
  std::optional<const BenchmarkSpec *> Bench = parseBenchmarkOption(*CL);
  if (!Bench)
    return 1;
  const BenchmarkSpec *Spec = *Bench;
  std::optional<MachineModel> Model = parseModelOption(*CL);
  if (!Model)
    return 1;
  std::optional<double> Threshold = parseThresholdOption(*CL);
  if (!Threshold)
    return 1;
  std::optional<uint64_t> MaxGrid =
      parseCountOption(*CL, "max-grid", 1u << 22, 1, 1u << 30);
  if (!MaxGrid)
    return 1;
  bool Fix = CL->has("fix");
  std::string OutPath = CL->get("out");
  if (Fix && OutPath.empty()) {
    std::cerr << "error: --fix needs --out FIXED.txt (the original file is "
                 "never rewritten in place)\n";
    return 1;
  }
  if (!Fix && !OutPath.empty()) {
    std::cerr << "error: --out only applies with --fix\n";
    return 1;
  }
  std::optional<EngineHandle> Handle = parseEngineOptions(*CL);
  if (!Handle)
    return 1;
  ExperimentEngine &Engine = **Handle;

  // The benchmark's labeled corpus: observed-range hygiene, the
  // self-training set, and the predictionWork accounting all use it.
  std::optional<Dataset> Corpus;
  if (Spec) {
    std::vector<BenchmarkRun> Runs = Engine.generateSuiteData({*Spec}, *Model);
    Corpus = std::move(Engine.labelSuite(Runs, *Threshold)[0]);
  }

  // The subject rule set: parsed from the file, or self-trained.
  RuleSet Rules(Label::NS);
  std::vector<size_t> RuleLines;
  std::string Subject;
  if (!RulesPath.empty()) {
    // Checked load without the load-time lint: this tool IS the lint.
    std::optional<RuleSetFile> Parsed = readRulesFileChecked(RulesPath);
    if (!Parsed)
      return 1;
    Rules = std::move(Parsed->Rules);
    RuleLines = std::move(Parsed->RuleLines);
    Subject = RulesPath;
  } else {
    std::cerr << "training filter on " << Benchmark << "'s own trace (t = "
              << *Threshold << ")...\n";
    Rules = ripperLearner(Engine.pool())(*Corpus);
    Subject = Benchmark + " (self-trained, t = " + CL->get("threshold", "0") +
              ")";
  }

  RuleAnalysis Analysis = analyzeRuleSet(
      Rules, Corpus ? &*Corpus : nullptr, *MaxGrid);
  printFindings(Analysis, std::cout, RulesPath,
                RuleLines.empty() ? nullptr : &RuleLines);
  std::cout << Subject << ": " << Rules.size() << " rules, "
            << Rules.totalConditions() << " conditions: "
            << Analysis.numFindings(LintSeverity::Error) << " errors, "
            << Analysis.numFindings(LintSeverity::Warning) << " warnings, "
            << Analysis.numFindings(LintSeverity::Note) << " notes\n";

  if (!Fix)
    return Analysis.hasErrors() ? 1 : 0;

  // --- --fix: normalize, prove equivalence, write. ---
  RuleSet Fixed = normalizeRuleSet(Rules, Analysis);
  EquivalenceCheck Eq = checkPredictEquivalence(Rules, Fixed, *MaxGrid);
  if (!Eq.Equivalent) {
    // Unreachable by construction; if it ever fires, refuse to write.
    std::cerr << "error: normalization changed predict() behavior "
                 "(corner-grid counterexample found after "
              << Eq.PointsChecked << " points) -- not writing '" << OutPath
              << "'\n";
    return 1;
  }
  if (!writeRulesFile(OutPath, Fixed))
    return 1;

  std::cout << "wrote " << OutPath << ": removed " << Analysis.removedRules()
            << " rules and " << Analysis.removedConditions()
            << " conditions; predict()-equivalence "
            << (Eq.Exhaustive ? "proven" : "sampled") << " over "
            << Eq.PointsChecked << " of " << Eq.GridSize
            << " corner-grid points\n";
  if (Corpus) {
    uint64_t Before = 0, After = 0;
    for (size_t I = 0; I != Corpus->size(); ++I) {
      const FeatureVector X = (*Corpus)[I].X;
      Before += Rules.predictionWork(X);
      After += Fixed.predictionWork(X);
    }
    std::cout << "predictionWork over " << Corpus->size() << " " << Benchmark
              << " blocks: " << Before << " -> " << After << " units\n";
  }

  // Errors that the removal plan does not remediate (e.g. an infinite
  // threshold on a live rule) survive into the fixed set; keep failing.
  RuleAnalysis Recheck = analyzeRuleSet(Fixed, nullptr, *MaxGrid);
  if (Recheck.hasErrors()) {
    std::cerr << "error: " << Recheck.numFindings(LintSeverity::Error)
              << " errors remain after normalization (hand-editing "
                 "required)\n";
    return 1;
  }
  return 0;
}
