#ifndef DGF_COMMON_FLAGS_H_
#define DGF_COMMON_FLAGS_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>

namespace dgf {

/// Matches one command-line argument against the flag `name` ("--port").
/// `--port=VALUE` matches with `*value` set to "VALUE"; a bare `--port`
/// matches with `*value` empty. Any other argument, including a longer flag
/// that shares the prefix (`--ports=1`), does not match. Shared by every
/// binary's main so they all accept the same two forms.
bool ParseFlag(std::string_view arg, std::string_view name, std::string* value);

/// Stores `text` into `*out` only when the whole string is one number that
/// fits T (no sign prefix `+`, no whitespace, no trailing junk); otherwise
/// returns false and leaves `*out` alone. Mains treat false as a usage error,
/// so `--queries=abc` fails loudly instead of silently reading 0.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  T parsed{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (text.empty() || ec != std::errc() || ptr != end) return false;
  *out = parsed;
  return true;
}

}  // namespace dgf

#endif  // DGF_COMMON_FLAGS_H_
