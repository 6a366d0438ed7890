#ifndef QABENCH_JSON_H_
#define QABENCH_JSON_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qabench {

/// A parsed JSON value: enough of JSON to read the service's /answer,
/// /sparql, /update, /healthz and /stats bodies.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// Member \p key of an object, or null when absent / not an object.
  const Json* Get(std::string_view key) const;
  /// Nested lookup along \p path; null when any step is missing.
  const Json* Path(std::initializer_list<std::string_view> path) const;
  /// Number at \p path, or \p fallback.
  double Num(std::initializer_list<std::string_view> path,
             double fallback = 0) const;
};

/// Parses \p text; false on malformed input.
bool ParseJson(std::string_view text, Json* out);

}  // namespace qabench

#endif  // QABENCH_JSON_H_
