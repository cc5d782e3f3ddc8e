//===- support/StringUtils.cpp - Formatting helpers ----------------------===//

#include "support/StringUtils.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

using namespace schedfilter;

std::string schedfilter::formatDouble(double Value, int Decimals) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Decimals, Value);
  return std::string(Buf);
}

std::string schedfilter::padLeft(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return std::string(Width - S.size(), ' ') + S;
}

std::string schedfilter::padRight(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return S + std::string(Width - S.size(), ' ');
}

std::string schedfilter::formatPercent(double Fraction, int Decimals) {
  return formatDouble(Fraction * 100.0, Decimals) + "%";
}

std::string schedfilter::formatTrimmed(double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  return std::string(Buf);
}

std::string schedfilter::formatHex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return std::string(Buf);
}

std::optional<double> schedfilter::parseDecimal(std::string_view S) {
  // strtod skips leading whitespace and reads C99 hex floats ("0x1p3");
  // both are outside the grammar.
  if (S.empty() || std::isspace(static_cast<unsigned char>(S[0])) ||
      S.find_first_of("xX") != std::string_view::npos)
    return std::nullopt;
  std::string Token(S); // NUL-terminated for strtod
  char *End = nullptr;
  double V = std::strtod(Token.c_str(), &End);
  return End == Token.c_str() + Token.size() ? std::optional<double>(V)
                                             : std::nullopt;
}
