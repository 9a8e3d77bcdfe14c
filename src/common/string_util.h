// String helpers shared by tokenizers, extractors, and noise models.
#ifndef AKB_COMMON_STRING_UTIL_H_
#define AKB_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace akb {

/// Splits on a single character; empty fields are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on any run of ASCII whitespace; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lowercase / uppercase copies.
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// True if every character is an ASCII digit (and s is non-empty).
bool IsDigits(std::string_view s);

/// Levenshtein edit distance (unit costs).
size_t EditDistance(std::string_view a, std::string_view b);

/// Bounded Levenshtein distance: the exact distance when it is at most
/// `max_edits`, otherwise `max_edits + 1`. Only the diagonal band of width
/// 2*max_edits+1 is filled, the scan stops once a whole row exceeds the
/// bound, and the rows live in a per-thread buffer (no allocation per call
/// once it has grown). Equals min(EditDistance(a, b), max_edits + 1).
size_t EditDistanceWithin(std::string_view a, std::string_view b,
                          size_t max_edits);

/// Edit-distance similarity in [0,1]: 1 - dist/max(len); 1.0 for two empties.
double EditSimilarity(std::string_view a, std::string_view b);

/// Jaccard similarity of the whitespace-token sets of a and b.
double TokenJaccard(std::string_view a, std::string_view b);

/// Canonical surface form used when comparing attribute names across KBs:
/// lowercase, non-alphanumeric runs collapsed to single spaces, trimmed.
std::string NormalizeSurface(std::string_view s);

/// "snake_case" -> "snake case", "camelCase" -> "camel case", then normalized.
std::string NormalizeIdentifier(std::string_view s);

/// Capitalizes the first letter of each whitespace-token ("title case").
std::string TitleCase(std::string_view s);

/// Formats a double with the given number of decimal places.
std::string FormatDouble(double v, int decimals);

/// Formats an integer with thousands separators: 1234567 -> "1,234,567".
std::string FormatWithCommas(int64_t v);

}  // namespace akb

#endif  // AKB_COMMON_STRING_UTIL_H_
