#include "common/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace maopt {

double mean(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("mean: empty input");
  double s = 0.0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile: empty input");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

std::vector<double> rowwise_mean(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return {};
  const std::size_t n = rows.front().size();
  for (const auto& r : rows)
    if (r.size() != n) throw std::invalid_argument("rowwise_mean: ragged rows");
  std::vector<double> out(n, 0.0);
  for (const auto& r : rows)
    for (std::size_t i = 0; i < n; ++i) out[i] += r[i];
  for (auto& v : out) v /= static_cast<double>(rows.size());
  return out;
}

}  // namespace maopt
