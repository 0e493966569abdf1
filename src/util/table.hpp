// Number formatting for the paper-style text tables (ResultTable's text
// renderer, core/experiments.hpp) and for prose lines around them.
#pragma once

#include <cstdint>
#include <string>

namespace manywalks {

/// Formats a double with `sig` significant digits, switching to scientific
/// notation outside [1e-4, 1e7). "nan"/"inf" render as-is.
std::string format_double(double value, int sig = 4);

/// Formats a nonnegative integer with thousands separators (1234567 -> "1,234,567").
std::string format_count(std::uint64_t value);

/// Formats "mean ± half" compactly, e.g. "1234 ± 56".
std::string format_mean_pm(double mean, double half_width, int sig = 4);

}  // namespace manywalks
