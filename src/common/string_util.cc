#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <unordered_set>

namespace akb {

namespace {
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}
}  // namespace

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && IsSpace(s[i])) ++i;
    size_t start = i;
    while (i < s.size() && !IsSpace(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && IsSpace(s[b])) ++b;
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  size_t pos = 0;
  while (true) {
    size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) break;
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
  out.append(s.substr(pos));
  return out;
}

bool IsDigits(std::string_view s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<size_t> prev(a.size() + 1), cur(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    cur[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[a.size()];
}

size_t EditDistanceWithin(std::string_view a, std::string_view b,
                          size_t max_edits) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size(), m = b.size();
  if (m - n > max_edits) return max_edits + 1;
  // The distance never exceeds m, so a larger budget changes nothing; the
  // clamp also keeps `k + 1` from overflowing.
  const size_t k = std::min(max_edits, m);
  const size_t inf = k + 1;
  // A path of cost <= k never leaves the band |i - j| <= k, so cells
  // outside it read as inf and every value saturates at inf.
  thread_local std::vector<size_t> rows;
  if (rows.size() < 2 * (n + 1)) rows.resize(2 * (n + 1));
  size_t* prev = rows.data();
  size_t* cur = prev + (n + 1);
  size_t hi = std::min(n, k);
  for (size_t i = 0; i <= hi; ++i) prev[i] = i;
  if (hi < n) prev[hi + 1] = inf;
  for (size_t j = 1; j <= m; ++j) {
    size_t lo = j > k ? j - k : 0;
    hi = std::min(n, j + k);
    size_t row_min = inf;
    if (lo == 0) {
      cur[0] = std::min(j, inf);
      row_min = cur[0];
      lo = 1;
    } else {
      cur[lo - 1] = inf;
    }
    for (size_t i = lo; i <= hi; ++i) {
      size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      size_t v = std::min({prev[i] + 1, cur[i - 1] + 1, sub, inf});
      cur[i] = v;
      row_min = std::min(row_min, v);
    }
    if (row_min >= inf) return max_edits + 1;
    if (hi < n) cur[hi + 1] = inf;
    std::swap(prev, cur);
  }
  return prev[n] > k ? max_edits + 1 : prev[n];
}

double EditSimilarity(std::string_view a, std::string_view b) {
  size_t m = std::max(a.size(), b.size());
  if (m == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistance(a, b)) / static_cast<double>(m);
}

double TokenJaccard(std::string_view a, std::string_view b) {
  auto ta = SplitWhitespace(a);
  auto tb = SplitWhitespace(b);
  if (ta.empty() && tb.empty()) return 1.0;
  std::unordered_set<std::string> sa(ta.begin(), ta.end());
  std::unordered_set<std::string> sb(tb.begin(), tb.end());
  size_t inter = 0;
  for (const auto& t : sa) {
    if (sb.count(t)) ++inter;
  }
  size_t uni = sa.size() + sb.size() - inter;
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

std::string NormalizeSurface(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool pending_space = false;
  for (unsigned char c : s) {
    if (std::isalnum(c)) {
      if (pending_space && !out.empty()) out.push_back(' ');
      pending_space = false;
      out.push_back(static_cast<char>(std::tolower(c)));
    } else {
      pending_space = true;
    }
  }
  return out;
}

std::string NormalizeIdentifier(std::string_view s) {
  std::string spaced;
  spaced.reserve(s.size() + 8);
  for (size_t i = 0; i < s.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    if (c == '_' || c == '-' || c == '.') {
      spaced.push_back(' ');
    } else if (std::isupper(c) && i > 0 &&
               std::islower(static_cast<unsigned char>(s[i - 1]))) {
      spaced.push_back(' ');
      spaced.push_back(static_cast<char>(c));
    } else {
      spaced.push_back(static_cast<char>(c));
    }
  }
  return NormalizeSurface(spaced);
}

std::string TitleCase(std::string_view s) {
  std::string out(s);
  bool at_start = true;
  for (auto& ch : out) {
    unsigned char c = static_cast<unsigned char>(ch);
    if (IsSpace(ch)) {
      at_start = true;
    } else if (at_start) {
      ch = static_cast<char>(std::toupper(c));
      at_start = false;
    }
  }
  return out;
}

std::string FormatDouble(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string FormatWithCommas(int64_t v) {
  std::string digits = std::to_string(v < 0 ? -v : v);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (v < 0) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace akb
