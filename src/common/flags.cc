#include "common/flags.h"

#include <cctype>
#include <charconv>
#include <cmath>

#include "common/string_util.h"

namespace akb {

FlagSet FlagSet::Parse(int argc, const char* const* argv) {
  FlagSet flags;
  bool flags_done = false;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (flags_done || token.rfind("--", 0) != 0) {
      flags.positional_.push_back(std::move(token));
      continue;
    }
    if (token == "--") {
      flags_done = true;
      continue;
    }
    std::string body = token.substr(2);
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--name value" unless the next token is another flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[body] = argv[++i];
    } else {
      flags.values_[body] = "";
    }
  }
  return flags;
}

std::string FlagSet::GetString(const std::string& name,
                               const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

/// std::from_chars rejects surrounding whitespace and a leading '+', both
/// of which show up in hand-typed flag values ("--n +5", "--d ' 2.5'").
/// Normalize before parsing so "--name=value" and "--name value" parse
/// identically regardless of shell quoting.
std::string_view NumericBody(std::string_view raw) {
  std::string_view s = Trim(raw);
  if (!s.empty() && s.front() == '+') s.remove_prefix(1);
  return s;
}

template <typename T>
bool ParseNumber(std::string_view raw, T* out) {
  std::string_view s = NumericBody(raw);
  if (s.empty()) return false;
  T value{};
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  *out = value;
  return true;
}

}  // namespace

int64_t FlagSet::GetInt(const std::string& name, int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  int64_t value = 0;
  return ParseNumber(it->second, &value) ? value : fallback;
}

double FlagSet::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  double value = 0;
  return ParseNumber(it->second, &value) ? value : fallback;
}

Result<int64_t> FlagSet::GetIntStrict(const std::string& name,
                                      int64_t fallback, int64_t min,
                                      int64_t max) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string flag = "--" + name + "=" + it->second;
  int64_t value = 0;
  if (!ParseNumber(it->second, &value)) {
    return Status::InvalidArgument(flag + " is not an integer");
  }
  if (value < min || value > max) {
    if (min == 0 && max == std::numeric_limits<int64_t>::max()) {
      return Status::InvalidArgument(flag + " must not be negative");
    }
    return Status::InvalidArgument(flag + " is out of range [" +
                                   std::to_string(min) + ", " +
                                   std::to_string(max) + "]");
  }
  return value;
}

Result<double> FlagSet::GetDoubleStrict(const std::string& name,
                                        double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  double value = 0;
  if (!ParseNumber(it->second, &value) || !std::isfinite(value)) {
    return Status::InvalidArgument("--" + name + "=" + it->second +
                                   " is not a finite number");
  }
  return value;
}

bool FlagSet::GetBool(const std::string& name, bool fallback) const {
  // "--no-name" (bare) negates, so scripts can switch defaulted-on
  // behavior off; an explicit "--name=..." wins when both appear.
  auto it = values_.find(name);
  if (it == values_.end()) {
    return values_.count("no-" + name) ? false : fallback;
  }
  std::string value = ToLower(std::string(Trim(it->second)));
  if (value.empty() || value == "1" || value == "true" || value == "yes") {
    return true;
  }
  return false;
}

Result<int64_t> ParseDuration(std::string_view text) {
  std::string_view s = Trim(text);
  if (s.empty()) {
    return Status::InvalidArgument("duration is empty");
  }
  // Split "<number><unit>" at the first byte that can't be part of the
  // number. from_chars<double> accepts "1e9" etc.; restrict the number
  // body to digits and one '.' so "1e9s" and "-5ms" read as malformed
  // rather than surprising.
  size_t digits = 0;
  bool seen_dot = false;
  while (digits < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[digits])) ||
          (s[digits] == '.' && !seen_dot))) {
    if (s[digits] == '.') seen_dot = true;
    ++digits;
  }
  if (digits == 0 || (digits == 1 && seen_dot)) {
    return Status::InvalidArgument("duration '" + std::string(text) +
                                   "' does not start with a number");
  }
  double value = 0.0;
  std::string_view number = s.substr(0, digits);
  auto [ptr, ec] =
      std::from_chars(number.data(), number.data() + number.size(), value);
  if (ec != std::errc() || ptr != number.data() + number.size()) {
    return Status::InvalidArgument("duration '" + std::string(text) +
                                   "' has a malformed number");
  }
  std::string_view unit = s.substr(digits);
  double scale = 0.0;
  if (unit == "ns") {
    scale = 1.0;
  } else if (unit == "us") {
    scale = 1e3;
  } else if (unit == "ms") {
    scale = 1e6;
  } else if (unit == "s") {
    scale = 1e9;
  } else if (unit == "m") {
    scale = 60e9;
  } else if (unit == "h") {
    scale = 3600e9;
  } else if (unit.empty()) {
    return Status::InvalidArgument("duration '" + std::string(text) +
                                   "' is missing a unit (ns|us|ms|s|m|h)");
  } else {
    return Status::InvalidArgument("duration '" + std::string(text) +
                                   "' has unknown unit '" +
                                   std::string(unit) + "'");
  }
  double nanos = value * scale;
  if (nanos >= 9.2e18) {
    return Status::InvalidArgument("duration '" + std::string(text) +
                                   "' overflows int64 nanoseconds");
  }
  return int64_t(nanos);
}

Result<int64_t> FlagSet::GetDuration(const std::string& name,
                                     int64_t fallback_nanos) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback_nanos;
  Result<int64_t> parsed = ParseDuration(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument("--" + name + ": " +
                                   parsed.status().message());
  }
  return parsed;
}

std::vector<std::string> FlagSet::GetList(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return {};
  std::vector<std::string> out;
  for (auto& piece : Split(it->second, ',')) {
    std::string trimmed(Trim(piece));
    if (!trimmed.empty()) out.push_back(std::move(trimmed));
  }
  return out;
}

}  // namespace akb
