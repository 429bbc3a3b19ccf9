#ifndef IQ_UTIL_STRING_UTIL_H_
#define IQ_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace iq {

/// Splits `s` on `delim`; empty fields are kept ("a,,b" -> {"a","","b"}).
std::vector<std::string> StrSplit(std::string_view s, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view StrTrim(std::string_view s);

/// ASCII lower-case copy.
std::string StrLower(std::string_view s);

/// Joins the parts with `sep` between them.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// True if `s` starts with / ends with the given prefix/suffix.
bool StrStartsWith(std::string_view s, std::string_view prefix);
bool StrEndsWith(std::string_view s, std::string_view suffix);

/// Strict full-string numeric parses.
Result<double> ParseDouble(std::string_view s);
Result<int64_t> ParseInt(std::string_view s);

/// Escapes `s` for a JSON string literal: quotes, backslashes and control
/// characters (newlines included, so line-oriented dumps keep one record
/// per line).
std::string JsonEscape(std::string_view s);

/// The whole contents of `path`; NotFound when it cannot be opened.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes `data` to `path` (truncating), checking for a short write and a
/// failed close, so a truncated artifact is an error rather than a silent
/// success.
Status WriteStringToFile(const std::string& path, std::string_view data);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace iq

#endif  // IQ_UTIL_STRING_UTIL_H_
