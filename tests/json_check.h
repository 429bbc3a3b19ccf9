#ifndef IQ_TESTS_JSON_CHECK_H_
#define IQ_TESTS_JSON_CHECK_H_

#include <string>

namespace iq {

/// Structural JSON check without a parser (there is no JSON library in the
/// tree): strings terminate, escapes are complete, strings hold no raw
/// control characters, and braces and brackets balance and nest outside
/// strings.
inline bool IsStructurallyValidJson(const std::string& json) {
  std::string stack;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (++i >= json.size()) return false;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      stack += c;
    } else if (c == '}' || c == ']') {
      if (stack.empty() || stack.back() != (c == '}' ? '{' : '[')) {
        return false;
      }
      stack.pop_back();
    }
  }
  return !in_string && stack.empty();
}

}  // namespace iq

#endif  // IQ_TESTS_JSON_CHECK_H_
