#include "json.h"

#include <cstdlib>

namespace qabench {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  bool ParseDocument(Json* out) {
    if (!Value(out, 0)) return false;
    Ws();
    return pos_ == s_.size();
  }

 private:
  void Ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  static void AppendUtf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          char* end = nullptr;
          std::string hex(s_.substr(pos_, 4));
          unsigned cp = static_cast<unsigned>(std::strtoul(hex.c_str(), &end, 16));
          if (end != hex.c_str() + 4) return false;
          pos_ += 4;
          AppendUtf8(cp, out);
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool Value(Json* out, int depth) {
    if (depth > 64) return false;
    Ws();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++pos_;
      Ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        Ws();
        std::pair<std::string, Json> member;
        if (!String(&member.first)) return false;
        Ws();
        if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
        if (!Value(&member.second, depth + 1)) return false;
        out->object.push_back(std::move(member));
        Ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_++] != '}') return false;
        return true;
      }
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++pos_;
      Ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        out->array.emplace_back();
        if (!Value(&out->array.back(), depth + 1)) return false;
        Ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_++] != ']') return false;
        return true;
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->string);
    }
    if (Literal("true")) {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->type = Json::Type::kBool;
      return true;
    }
    if (Literal("null")) return true;
    size_t start = pos_;
    while (pos_ < s_.size() &&
           std::string_view("+-0123456789.eE").find(s_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
    if (pos_ == start) return false;
    std::string num(s_.substr(start, pos_ - start));
    char* end = nullptr;
    out->type = Json::Type::kNumber;
    out->number = std::strtod(num.c_str(), &end);
    return end == num.c_str() + num.size();
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

const Json* Json::Get(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json* Json::Path(std::initializer_list<std::string_view> path) const {
  const Json* at = this;
  for (std::string_view key : path) {
    at = at->Get(key);
    if (at == nullptr) return nullptr;
  }
  return at;
}

double Json::Num(std::initializer_list<std::string_view> path,
                 double fallback) const {
  const Json* at = Path(path);
  return at != nullptr && at->type == Type::kNumber ? at->number : fallback;
}

bool ParseJson(std::string_view text, Json* out) {
  *out = Json{};
  return Parser(text).ParseDocument(out);
}

}  // namespace qabench
