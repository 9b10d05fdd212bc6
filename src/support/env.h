// Strict environment-knob parsing.
//
// std::atoi silently turns garbage into 0 — a boolean knob set to `true`
// used to parse as 0 and *disable* the feature the user asked for, and
// negative or trailing-garbage worker counts were accepted silently.
// These helpers parse the whole value or refuse it: the pure Parse*
// functions report failure to the caller (testable), and the EnvKnob*
// wrappers fail loudly — print the offending value and exit — because a
// bench run that quietly ignores its configuration produces numbers
// nobody should trust.
#ifndef RETRACE_SUPPORT_ENV_H_
#define RETRACE_SUPPORT_ENV_H_

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/support/common.h"

namespace retrace {

// Parses the whole of `text` as a decimal i64 (optional leading minus).
// False on null/empty input, trailing garbage, or overflow.
inline bool ParseKnobI64(const char* text, i64* out) {
  if (text == nullptr || *text == '\0') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') {
    return false;
  }
  *out = static_cast<i64>(value);
  return true;
}

// Parses a boolean knob: 1/0, true/false, on/off, yes/no (case-
// insensitive). False on anything else — including numbers other than
// 0/1, which are more likely typos than intent.
inline bool ParseKnobBool(const char* text, bool* out) {
  if (text == nullptr || *text == '\0') {
    return false;
  }
  std::string lower(text);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "1" || lower == "true" || lower == "on" || lower == "yes") {
    *out = true;
    return true;
  }
  if (lower == "0" || lower == "false" || lower == "off" || lower == "no") {
    *out = false;
    return true;
  }
  return false;
}

// Reads an integer knob from the environment: unset returns `def`;
// garbage or a value outside [lo, hi] aborts with a message naming the
// knob and the accepted range.
inline i64 EnvKnobI64(const char* name, i64 def, i64 lo, i64 hi) {
  const char* text = std::getenv(name);
  if (text == nullptr) {
    return def;
  }
  i64 value = 0;
  if (!ParseKnobI64(text, &value) || value < lo || value > hi) {
    std::fprintf(stderr, "%s: invalid value '%s' (expected an integer in [%lld, %lld])\n",
                 name, text, static_cast<long long>(lo), static_cast<long long>(hi));
    std::exit(2);
  }
  return value;
}

// Reads a boolean knob from the environment: unset returns `def`;
// anything but 1/0/true/false/on/off/yes/no aborts with a message.
inline bool EnvKnobBool(const char* name, bool def) {
  const char* text = std::getenv(name);
  if (text == nullptr) {
    return def;
  }
  bool value = false;
  if (!ParseKnobBool(text, &value)) {
    std::fprintf(stderr, "%s: invalid value '%s' (expected 1/0, true/false, on/off or yes/no)\n",
                 name, text);
    std::exit(2);
  }
  return value;
}

}  // namespace retrace

#endif  // RETRACE_SUPPORT_ENV_H_
