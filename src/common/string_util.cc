#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <set>
#include <unordered_map>

namespace ganswer {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> Split(std::string_view s, char sep, bool keep_empty) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) pos = s.size();
    std::string_view piece = s.substr(start, pos - start);
    if (keep_empty || !piece.empty()) out.emplace_back(piece);
    if (pos == s.size()) break;
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string_view> views;
  SplitWhitespace(s, &views);
  return {views.begin(), views.end()};
}

void SplitWhitespace(std::string_view s, std::vector<std::string_view>* out) {
  out->clear();
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out->push_back(s.substr(start, i - start));
  }
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
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
  size_t start = 0;
  while (true) {
    size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      return out;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
}

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<size_t> prev(a.size() + 1);
  std::vector<size_t> cur(a.size() + 1);
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

double TokenJaccard(std::string_view a, std::string_view b) {
  std::vector<std::string> ta = SplitWhitespace(ToLower(a));
  std::vector<std::string> tb = SplitWhitespace(ToLower(b));
  std::set<std::string> sa(ta.begin(), ta.end());
  std::set<std::string> sb(tb.begin(), tb.end());
  if (sa.empty() && sb.empty()) return 1.0;
  size_t inter = 0;
  for (const auto& t : sa) inter += sb.count(t);
  size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

double BigramDice(std::string_view a_in, std::string_view b_in) {
  std::string a = ToLower(a_in);
  std::string b = ToLower(b_in);
  if (a == b) return 1.0;
  if (a.size() < 2 || b.size() < 2) return 0.0;
  // Count bigrams of `a` in a flat 2-byte-keyed map; subtract with `b`.
  // Called per (mention, candidate-label) pair by the linker, so this is
  // allocation-free on the hot path.
  std::unordered_map<uint16_t, int> counts;
  counts.reserve(a.size());
  auto key = [](char x, char y) {
    return static_cast<uint16_t>((static_cast<uint8_t>(x) << 8) |
                                 static_cast<uint8_t>(y));
  };
  for (size_t i = 0; i + 1 < a.size(); ++i) ++counts[key(a[i], a[i + 1])];
  size_t inter = 0;
  for (size_t i = 0; i + 1 < b.size(); ++i) {
    auto it = counts.find(key(b[i], b[i + 1]));
    if (it != counts.end() && it->second > 0) {
      --it->second;
      ++inter;
    }
  }
  return 2.0 * static_cast<double>(inter) /
         static_cast<double>(a.size() - 1 + b.size() - 1);
}

std::string NormalizeLabel(std::string_view label) {
  std::string s = ToLower(label);
  // Strip a trailing parenthetical disambiguator: "philadelphia (film)".
  size_t paren = s.find('(');
  if (paren != std::string::npos) s = s.substr(0, paren);
  std::string out;
  bool pending_space = false;
  for (char c : s) {
    if (c == '_' || std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (c == '.') continue;  // initials: "john f. kennedy" == "john f kennedy"
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    out += c;
  }
  return out;
}

bool IsAllDigits(std::string_view s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += static_cast<char>(c);
        }
    }
  }
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(&out, s);
  return out;
}

}  // namespace ganswer
