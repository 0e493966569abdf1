#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace manywalks {

std::string format_double(double value, int sig) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  std::ostringstream os;
  const double mag = std::abs(value);
  if (value != 0.0 && (mag < 1e-4 || mag >= 1e7)) {
    os << std::scientific << std::setprecision(std::max(0, sig - 1)) << value;
  } else {
    // std::defaultfloat with `sig` significant digits.
    os << std::setprecision(sig) << value;
  }
  return os.str();
}

std::string format_count(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t first_group = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - first_group) % 3 == 0 && i >= first_group) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string format_mean_pm(double mean, double half_width, int sig) {
  return format_double(mean, sig) + " ± " + format_double(half_width, 2);
}

}  // namespace manywalks
