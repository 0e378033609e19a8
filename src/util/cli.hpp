#pragma once
// Tiny command-line flag parser used by the bench harnesses and examples.
// Supports "--name=value" and "--name value"; unknown flags are an error so
// typos do not silently fall back to defaults.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace bcl {

/// Parsed command-line flags with typed getters and defaults.
class CliArgs {
 public:
  /// Parses argv.  `allowed` lists the accepted flag names (without "--");
  /// passing a flag not in the list throws std::invalid_argument.
  CliArgs(int argc, const char* const* argv,
          const std::vector<std::string>& allowed);

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  long long get_int(const std::string& name, long long fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// A non-negative count (threads, rounds, sizes).  Throws
  /// std::invalid_argument "--<name> must be >= 0, got <text>" on a
  /// negative value and parse_strict_u64's message on any other text that
  /// is not wholly a base-10 integer, so "-1" never wraps to 2^64 - 1.
  std::size_t get_count(const std::string& name, std::size_t fallback) const;

  /// A comma-separated list of counts ("100,500,2000"), each checked as
  /// get_count checks one; empty tokens are skipped.  `fallback` is parsed
  /// the same way when the flag is absent.
  std::vector<std::size_t> get_counts(const std::string& name,
                                      const std::string& fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace bcl
