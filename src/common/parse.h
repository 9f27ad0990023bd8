// Validated number parsing for CLI flags and environment variables.
//
// The std::atoi/atof family silently turns garbage into 0 ("--mpls 1,x,64"
// used to inject MPL 0 into a sweep; "DECLUST_JOBS=abc" used to mean 0
// jobs). These parsers return Result<T> instead: the whole input must be a
// number, it must fit the target type, and it must lie inside the caller's
// closed range — anything else is an InvalidArgument naming the offending
// text, so tools can fail fast with a usage message.
#pragma once

#include <cstdint>
#include <string_view>

#include "src/common/result.h"

namespace declust {

/// Parses a base-10 integer; the entire string must be consumed. Rejects
/// empty input, trailing junk, overflow, and values outside [min, max].
Result<int64_t> ParseInt64(std::string_view s,
                           int64_t min = INT64_MIN,
                           int64_t max = INT64_MAX);

/// ParseInt64 narrowed to int (range intersected with int's limits).
Result<int> ParseInt(std::string_view s, int min, int max);

/// Parses a finite double; the entire string must be consumed. Rejects
/// empty input, trailing junk, NaN/Inf, and values outside [min, max].
Result<double> ParseDouble(std::string_view s, double min, double max);

/// Strips leading and trailing spaces and tabs (the plan grammars' token
/// separator padding).
std::string_view Trim(std::string_view s);

/// Parses a duration with an optional `ms` or `s` suffix (bare numbers are
/// seconds) into finite, non-negative milliseconds. Errors read
/// "<grammar>: bad <what> value '<number>'", so each plan grammar keeps its
/// own prefix.
Result<double> ParseTimeMs(std::string_view s, std::string_view what,
                           std::string_view grammar);

}  // namespace declust
