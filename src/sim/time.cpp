#include "sim/time.hpp"

#include <cmath>
#include <cstdio>
#include <numeric>

namespace coeff::sim {

std::string to_string(Time t) {
  const double ns = static_cast<double>(t.ns());
  char buf[64];
  if (std::llabs(t.ns()) >= 1'000'000'000) {
    std::snprintf(buf, sizeof buf, "%.3fs", ns / 1e9);
  } else if (std::llabs(t.ns()) >= 1'000'000) {
    std::snprintf(buf, sizeof buf, "%.3fms", ns / 1e6);
  } else if (std::llabs(t.ns()) >= 1'000) {
    std::snprintf(buf, sizeof buf, "%.3fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(t.ns()));
  }
  return buf;
}

std::int64_t lcm_saturating(std::int64_t a, std::int64_t b) {
  if (a <= 0 || b <= 0) return 0;
  const std::int64_t q = a / std::gcd(a, b);
  if (q > std::numeric_limits<std::int64_t>::max() / b) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return q * b;
}

}  // namespace coeff::sim
