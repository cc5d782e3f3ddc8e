//===- support/CommandLine.h - Declared flag parsing ------------*- C++ -*-===//
///
/// \file
/// A deliberately tiny command-line parser for the tools/ and bench/
/// binaries.  Each binary declares its flags once, as booleans and value
/// flags; the parser never guesses a flag's kind from the tokens around
/// it.  A boolean is "--flag" and never consumes a token; a value flag is
/// "--flag value" or "--flag=value".  Every token that does not start
/// with "--" is positional, and only a binary that declares positionals
/// accepts one.  No subcommands, no type registry -- the tools validate
/// their own values and print their own usage.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SUPPORT_COMMANDLINE_H
#define SCHEDFILTER_SUPPORT_COMMANDLINE_H

#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace schedfilter {

using FlagList = std::initializer_list<std::string_view>;

/// Whether a binary reads positional arguments (sf-train's traces,
/// sf-lint's rules file) or none at all.
enum class Positionals { None, Allowed };

/// Parsed command line: the declared flags given and the positional
/// arguments.  Built only by parseCommandLine.
class CommandLine {
public:
  /// Returns the value flag's value or \p Default when absent.
  std::string get(const std::string &Name,
                  const std::string &Default = "") const {
    auto It = Options.find(Name);
    return It == Options.end() ? Default : It->second;
  }

  /// Returns \p Default when the option is absent, its parseDecimal value
  /// otherwise.  A value that is not a decimal or is not finite prints an
  /// "--name: expected a number, got '...'" diagnostic and returns
  /// nullopt so the caller can exit non-zero -- a mistyped numeric flag
  /// must never silently parse as 0 or fall back to its default.
  std::optional<double> getDouble(const std::string &Name,
                                  double Default) const {
    auto It = Options.find(Name);
    if (It == Options.end())
      return Default;
    std::optional<double> V = parseDecimal(It->second);
    if (!V || !std::isfinite(*V)) {
      std::cerr << "error: --" << Name << ": expected a number, got '"
                << It->second << "'\n";
      return std::nullopt;
    }
    return V;
  }

  bool has(const std::string &Name) const { return Options.count(Name) != 0; }

  const std::vector<std::string> &positional() const { return Positional; }

private:
  friend std::optional<CommandLine> parseCommandLine(int, char **, FlagList,
                                                     FlagList, Positionals);
  std::map<std::string, std::string> Options;
  std::vector<std::string> Positional;
};

/// Parses argv against the declared \p Bools, \p Values and
/// \p Takes positionals.  Returns nullopt after printing one diagnostic
/// for the first offending token in argv order: an undeclared flag
/// ("error: unknown option --NAME"), a boolean written "--bool=x", a value
/// flag with no value, an empty value or a following "--token", a flag
/// given twice, or a positional where none is declared ("error:
/// unexpected argument 'X'").
inline std::optional<CommandLine>
parseCommandLine(int Argc, char **Argv, FlagList Bools, FlagList Values,
                 Positionals Takes = Positionals::None) {
  CommandLine CL;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg.substr(0, 2) != "--") {
      if (Takes == Positionals::None) {
        std::cerr << "error: unexpected argument '" << Arg << "'\n";
        return std::nullopt;
      }
      CL.Positional.emplace_back(Arg);
      continue;
    }
    size_t Eq = Arg.find('=');
    bool HasEq = Eq != std::string_view::npos;
    std::string Name(Arg.substr(2, HasEq ? Eq - 2 : Eq));
    bool IsBool = std::find(Bools.begin(), Bools.end(), Name) != Bools.end();
    bool IsValue = std::find(Values.begin(), Values.end(), Name) != Values.end();
    std::string Value(HasEq ? Arg.substr(Eq + 1) : "");
    if (IsValue && !HasEq && I + 1 < Argc &&
        std::string_view(Argv[I + 1]).substr(0, 2) != "--")
      Value = Argv[++I];
    std::string Why;
    if (!IsBool && !IsValue)
      Why = "unknown option --" + Name;
    else if (CL.has(Name))
      Why = "--" + Name + " given twice";
    else if (IsBool && HasEq)
      Why = "--" + Name + " takes no value (got '" + std::string(Arg) + "')";
    else if (IsValue && Value.empty())
      Why = "--" + Name + " expects a value";
    if (!Why.empty()) {
      std::cerr << "error: " << Why << '\n';
      return std::nullopt;
    }
    CL.Options[Name] = Value;
  }
  return CL;
}

} // namespace schedfilter

#endif // SCHEDFILTER_SUPPORT_COMMANDLINE_H
