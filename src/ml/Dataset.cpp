//===- ml/Dataset.cpp - Training/test instances ----------------------------===//

#include "ml/Dataset.h"

#include <cmath>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

using namespace schedfilter;

const char *schedfilter::getLabelName(Label L) {
  return L == Label::LS ? "LS" : "NS";
}

void Dataset::append(const Dataset &Other) {
  Instances.insert(Instances.end(), Other.Instances.begin(),
                   Other.Instances.end());
}

size_t Dataset::countLabel(Label L) const {
  size_t N = 0;
  for (const Instance &I : Instances)
    if (I.Y == L)
      ++N;
  return N;
}

ColumnView Dataset::columns() const {
  ColumnView CV;
  CV.NumInstances = Instances.size();
  CV.Values.resize(static_cast<size_t>(NumFeatures) * CV.NumInstances);
  CV.Labels.resize(CV.NumInstances);
  for (size_t I = 0; I != CV.NumInstances; ++I) {
    CV.Labels[I] = Instances[I].Y;
    for (unsigned F = 0; F != NumFeatures; ++F)
      CV.Values[static_cast<size_t>(F) * CV.NumInstances + I] =
          Instances[I].X[F];
  }
  return CV;
}

void Dataset::writeCsv(std::ostream &OS) const {
  for (unsigned F = 0; F != NumFeatures; ++F)
    OS << getFeatureName(F) << ',';
  OS << "label\n";
  for (const Instance &I : Instances) {
    for (unsigned F = 0; F != NumFeatures; ++F)
      OS << I.X[F] << ',';
    OS << getLabelName(I.Y) << '\n';
  }
}

bool Dataset::readCsv(std::istream &IS) {
  std::vector<Instance> Parsed;
  std::string Line;
  if (!std::getline(IS, Line))
    return false; // missing header
  while (std::getline(IS, Line)) {
    if (Line.empty())
      continue;
    std::istringstream SS(Line);
    Instance Inst;
    std::string Cell;
    for (unsigned F = 0; F != NumFeatures; ++F) {
      if (!std::getline(SS, Cell, ','))
        return false;
      char *End = nullptr;
      Inst.X[F] = std::strtod(Cell.c_str(), &End);
      if (End == Cell.c_str() || !std::isfinite(Inst.X[F]))
        return false;
    }
    if (!std::getline(SS, Cell))
      return false;
    if (Cell == "LS")
      Inst.Y = Label::LS;
    else if (Cell == "NS")
      Inst.Y = Label::NS;
    else
      return false;
    Parsed.push_back(Inst);
  }
  Instances = std::move(Parsed);
  return true;
}
