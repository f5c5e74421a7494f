// Command-line flags for the tools: "--name value" or a bare "--name".
//
// Each tool names the flags it accepts. Anything else on the command line
// (an unknown or misspelt flag, a retired one, a stray operand) prints a
// diagnostic and the tool's usage and exits 2, so a typo never runs a
// different experiment than the one asked for.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <set>
#include <string>

namespace catalyst::tools {

class Args {
 public:
  /// Parses argv[first, argc) against `known` (flag names without the
  /// leading "--"). A token after a flag is that flag's value unless it
  /// starts with "--" itself.
  Args(int argc, char** argv, int first,
       std::initializer_list<const char*> known, void (*usage)()) {
    const std::set<std::string> allowed(known.begin(), known.end());
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0 || !allowed.contains(arg.substr(2))) {
        std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                     arg.c_str());
        usage();
        std::exit(2);
      }
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg.substr(2)] = argv[++i];
      } else {
        values_[arg.substr(2)] = "";
      }
    }
  }

  bool has(const std::string& key) const { return values_.contains(key); }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace catalyst::tools
