#include "common/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace paxml {

std::vector<std::string_view> Split(std::string_view input, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == sep) {
      out.push_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool IsAllWhitespace(std::string_view s) {
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::optional<double> ParseNumber(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) return std::nullopt;
  // Most text is not a number: reject it unless its first byte can start
  // one for strtod (digits, sign, point, "inf"/"infinity", "nan").
  switch (s[0]) {
    case '0': case '1': case '2': case '3': case '4':
    case '5': case '6': case '7': case '8': case '9':
    case '+': case '-': case '.':
    case 'i': case 'I': case 'n': case 'N':
      break;
    default:
      return std::nullopt;
  }
  // strtod needs a NUL-terminated buffer: a stack copy for short text, a
  // heap copy only for text longer than any ordinary number.
  char small[64];
  std::string large;
  const char* buf = small;
  if (s.size() < sizeof(small)) {
    std::memcpy(small, s.data(), s.size());
    small[s.size()] = '\0';
  } else {
    large.assign(s);
    buf = large.c_str();
  }
  char* end = nullptr;
  double value = std::strtod(buf, &end);
  if (end != buf + s.size()) return std::nullopt;
  return value;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string StringFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) return StringFormat("%llu B", static_cast<unsigned long long>(bytes));
  return StringFormat("%.1f %s", value, units[unit]);
}

}  // namespace paxml
