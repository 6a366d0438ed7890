#ifndef GANSWER_COMMON_STRING_UTIL_H_
#define GANSWER_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ganswer {

/// ASCII-lowercases \p s (the KB and question vocabulary are ASCII-labelled;
/// non-ASCII bytes pass through unchanged).
std::string ToLower(std::string_view s);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Splits on \p sep, dropping empty pieces when \p keep_empty is false.
std::vector<std::string> Split(std::string_view s, char sep,
                               bool keep_empty = false);

/// Splits on runs of ASCII whitespace.
std::vector<std::string> SplitWhitespace(std::string_view s);
/// The same split into views of \p s, replacing the contents of \p out
/// (its capacity is reused, so a hot loop splits without allocating).
void SplitWhitespace(std::string_view s, std::vector<std::string_view>* out);

/// Joins \p parts with \p sep.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Replaces every occurrence of \p from with \p to.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// Levenshtein edit distance; used by the entity linker's fuzzy fallback.
size_t EditDistance(std::string_view a, std::string_view b);

/// Jaccard similarity of the whitespace-token sets of \p a and \p b, in
/// [0, 1]. Both sides are lowercased first.
double TokenJaccard(std::string_view a, std::string_view b);

/// Dice coefficient over character bigrams of the lowercased inputs.
double BigramDice(std::string_view a, std::string_view b);

/// Normalizes an entity label for indexing: lowercase, strip parenthetical
/// disambiguators ("Philadelphia (film)" -> "philadelphia"), collapse
/// underscores and whitespace runs to single spaces.
std::string NormalizeLabel(std::string_view label);

/// True when \p s consists only of ASCII digits (and is non-empty).
bool IsAllDigits(std::string_view s);

/// Appends \p s to \p out escaped for inclusion inside a JSON string
/// literal (the surrounding quotes are the caller's): `"` and `\` are
/// backslash-escaped, control bytes < 0x20 become `\n`/`\t`/`\r`/`\b`/`\f`
/// or `\u00XX`, and everything else — including multi-byte UTF-8 — passes
/// through unchanged. Shared by every JSON producer (server responses,
/// BENCH_JSON lines) so answer labels containing quotes can never yield
/// invalid JSON.
void AppendJsonEscaped(std::string* out, std::string_view s);

/// Returns \p s JSON-escaped (AppendJsonEscaped into a fresh string).
std::string JsonEscape(std::string_view s);

}  // namespace ganswer

#endif  // GANSWER_COMMON_STRING_UTIL_H_
