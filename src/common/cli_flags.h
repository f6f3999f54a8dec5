// Tiny argv helpers shared by the command-line front ends (src/tools) and
// the bench load generators, so flag parsing exists exactly once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"

namespace grafics {

/// Returns the value after `flag`, or `fallback` when absent.
inline std::string FlagValue(const std::vector<std::string>& args,
                             const std::string& flag,
                             const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return fallback;
}

/// Returns every value of a repeatable `flag`, in order (e.g.
/// `--model mall=mall.bin --model campus=campus.bin`). A trailing flag with
/// no value is an error — silently dropping it would, say, start a daemon
/// minus one building.
inline std::vector<std::string> FlagValues(
    const std::vector<std::string>& args, const std::string& flag) {
  std::vector<std::string> values;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] != flag) continue;
    Require(i + 1 < args.size(), flag + ": missing value");
    values.push_back(args[i + 1]);
  }
  return values;
}

/// Validates a `--flag value ...` argument list: every flag position (0, 2,
/// 4, ...) must name a flag in `known` and be followed by a value. Throws
/// naming the first offender — FlagValue only looks up the flags it is
/// asked for, so without this check a typo or a retired flag would run the
/// program silently without that setting.
inline void RequireKnownFlags(const std::vector<std::string>& args,
                              const std::vector<std::string>& known) {
  for (std::size_t i = 0; i < args.size(); i += 2) {
    Require(std::find(known.begin(), known.end(), args[i]) != known.end(),
            "unknown flag '" + args[i] + "'");
    Require(i + 1 < args.size(), args[i] + ": missing value");
  }
}

/// Parses a decimal unsigned integer, rejecting sign markers, trailing
/// junk ("80abc"), and values above `max_value` — std::stoul would accept
/// the first two and silently truncate on narrowing casts.
inline std::uint64_t ParseUnsigned(const std::string& text,
                                   std::uint64_t max_value,
                                   const std::string& what) {
  Require(!text.empty() && text.size() <= 19 &&
              text.find_first_not_of("0123456789") == std::string::npos,
          what + ": expected an unsigned number, got '" + text + "'");
  const std::uint64_t value = std::stoull(text);
  Require(value <= max_value, what + ": " + text + " is above the maximum " +
                                  std::to_string(max_value));
  return value;
}

}  // namespace grafics
