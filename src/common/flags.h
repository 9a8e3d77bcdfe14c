// Minimal command-line flag parsing for the CLI tools.
//
// Supports "--name=value", "--name value", bare boolean "--name", and
// positional arguments. No global registry: parse into a FlagSet and query
// it.
#ifndef AKB_COMMON_FLAGS_H_
#define AKB_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace akb {

class FlagSet {
 public:
  /// Parses argv[1..). A token "--name" consumes the following token as its
  /// value unless that token also starts with "--" (then it is a boolean
  /// flag). "--" ends flag parsing; the rest are positionals.
  static FlagSet Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  /// Value accessors with defaults. GetInt/GetDouble tolerate surrounding
  /// whitespace and a leading '+', and return the default on parse failure
  /// (GetIntStrict/GetDoubleStrict below reject it instead). "--name=value"
  /// and "--name value" parse identically through every accessor.
  std::string GetString(const std::string& name,
                        const std::string& fallback = "") const;
  int64_t GetInt(const std::string& name, int64_t fallback = 0) const;
  double GetDouble(const std::string& name, double fallback = 0.0) const;
  /// True when the flag is present with no value, "1", "true", or "yes".
  /// A bare "--no-name" reads as false (unless "--name" also appears).
  bool GetBool(const std::string& name, bool fallback = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Splits a comma-separated flag value ("a,b,c"); empty when unset.
  std::vector<std::string> GetList(const std::string& name) const;

  /// Duration flag ("--deadline=250ms", "--duration 2s") in nanoseconds.
  /// A missing flag returns `fallback_nanos`; a present-but-malformed
  /// value is a kInvalidArgument error naming the flag, so CLI commands
  /// reject bad durations loudly instead of silently running with a
  /// default (unlike the numeric accessors above). See ParseDuration for
  /// the accepted grammar.
  Result<int64_t> GetDuration(const std::string& name,
                              int64_t fallback_nanos) const;

  /// Strict numeric flags, with the handling GetDuration has: a missing
  /// flag returns `fallback`; a malformed value ("abc", "", "1.5" for an
  /// integer), or an integer outside [min, max], is a kInvalidArgument
  /// error that names the flag and its value. Whitespace and a leading '+'
  /// are tolerated as in GetInt/GetDouble.
  Result<int64_t> GetIntStrict(
      const std::string& name, int64_t fallback,
      int64_t min = std::numeric_limits<int64_t>::min(),
      int64_t max = std::numeric_limits<int64_t>::max()) const;
  Result<double> GetDoubleStrict(const std::string& name,
                                 double fallback) const;

 private:
  std::unordered_map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Parses a human duration into nanoseconds: a non-negative number (int or
/// decimal) immediately followed by one of the units ns, us, ms, s, m, h
/// ("250ms", "2s", "1.5m", "0s"). The unit is mandatory — a bare number is
/// ambiguous and rejected — as are empty strings, negatives, unknown
/// units, trailing bytes, and values that overflow int64 nanoseconds.
Result<int64_t> ParseDuration(std::string_view text);

}  // namespace akb

#endif  // AKB_COMMON_FLAGS_H_
