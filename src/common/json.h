// Strict JSON reader (RFC 8259), the one parser behind every JSON artifact
// the repo reads back: sweep journals (exec/journal), the regression
// sentinel (telemetry/compare) and the tests. Malformed input throws
// SimError naming the byte offset; nesting past kMaxDepth throws instead
// of recursing, so no input can exhaust the stack.
#ifndef GRAPHPIM_COMMON_JSON_H_
#define GRAPHPIM_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace graphpim::json {

// Deepest array/object nesting Parse accepts. The deepest artifact the
// repo writes nests 5 levels.
inline constexpr int kMaxDepth = 128;

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  // kString: the decoded text. kNumber: the raw validated token, so the
  // caller picks the conversion (full 64-bit seeds must not pass through a
  // double).
  std::string text;
  std::vector<Value> items;                            // kArray
  std::vector<std::pair<std::string, Value>> members;  // kObject, doc order

  bool is(Kind k) const { return kind == k; }

  // The first member named `key`; nullptr when absent or not an object.
  const Value* Find(std::string_view key) const;

  // Strict number conversions; throw SimError on any other kind. U64
  // accepts only in-range unsigned integers (no sign, fraction or
  // exponent). Double rejects results that overflow to infinity.
  std::uint64_t U64() const;
  double Double() const;
};

// Parses exactly one value followed only by whitespace. Throws
// SimError("malformed JSON at offset N: expected X") otherwise.
Value Parse(std::string_view text);

}  // namespace graphpim::json

#endif  // GRAPHPIM_COMMON_JSON_H_
