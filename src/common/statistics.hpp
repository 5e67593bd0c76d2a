// Small descriptive-statistics helpers used by the experiment harnesses
// (Table II/IV/VI report means over 10 runs; Fig. 5 reports mean FoM
// trajectories on a log scale).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace maopt {

double mean(std::span<const double> xs);
double median(std::span<const double> xs);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::span<const double> xs, double p);

/// Element-wise mean over equal-length rows (used for averaged trajectories).
std::vector<double> rowwise_mean(const std::vector<std::vector<double>>& rows);

}  // namespace maopt
