//===- perfbench/Bench.cpp - Shared benchmark plumbing ----------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

using namespace perfbench;

void Checks::expect(bool Ok, const char *What) {
  ++Attempted;
  if (Ok)
    return;
  if (++Failed <= 20)
    std::cerr << "check failed: " << What << '\n';
}

Tracer::Scope::Scope(Tracer *T, const char *Name, uint64_t Request) : T(T) {
  if (!T)
    return;
  int32_t Parent = T->Open.empty() ? -1 : T->Open.back();
  if (Request == 0 && Parent >= 0)
    Request = T->Spans[static_cast<size_t>(Parent)].Request;
  Id = static_cast<int32_t>(T->Spans.size());
  T->Spans.push_back({Name, T->nowNs(), 0, Parent, Request});
  T->Open.push_back(Id);
}

Tracer::Scope::~Scope() {
  if (!T)
    return;
  T->Spans[static_cast<size_t>(Id)].EndNs = T->nowNs();
  T->Open.pop_back();
}

int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Origin)
      .count();
}

void Tracer::reset() {
  Spans.clear();
  Open.clear();
  Counters.clear();
  Measured.clear();
}

static double lookup(const std::map<std::string, double> &M,
                     const std::string &Name) {
  auto It = M.find(Name);
  return It == M.end() ? 0.0 : It->second;
}

double Tracer::counter(const std::string &Name) const {
  return lookup(Counters, Name);
}

double Tracer::measured(const std::string &Name) const {
  return lookup(Measured, Name);
}

std::map<std::string, Tracer::Aggregate> Tracer::aggregate() const {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
  std::map<std::string, Aggregate> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    double Dur = static_cast<double>(S.EndNs - S.StartNs) * 1e-9;
    Aggregate &A = Out[S.Name];
    ++A.Count;
    A.Total += Dur;
    A.Self += Dur - static_cast<double>(ChildNs[I]) * 1e-9;
    A.Durations.push_back(Dur);
  }
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::ofstream OS(Path);
  OS << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char Buf[512];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request\":%llu}}",
                  I ? "," : "", S.Name, static_cast<double>(S.StartNs) * 1e-3,
                  static_cast<double>(S.EndNs - S.StartNs) * 1e-3, I,
                  static_cast<int>(S.Parent),
                  static_cast<unsigned long long>(S.Request));
    OS << Buf;
  }
  OS << "\n]}\n";
  OS.flush();
  return static_cast<bool>(OS);
}

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  size_t Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(Values.size())));
  size_t Idx = Rank ? Rank - 1 : 0;
  Idx = std::min(Idx, Values.size() - 1);
  std::nth_element(Values.begin(), Values.begin() + static_cast<long>(Idx),
                   Values.end());
  return Values[Idx];
}

double perfbench::medianOf(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  std::vector<double> V = Values;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}
