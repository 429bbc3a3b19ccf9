#include "opt/dykstra.h"

#include <cmath>

#include "util/check.h"

namespace iq {
namespace {

constexpr int kMaxSweeps = 4000;  // passes over all sets
constexpr double kTol = 1e-9;     // stop once no set moves the iterate more

}  // namespace

Result<Vec> DykstraProject(const std::vector<Vec>& A, const Vec& b,
                           const AdjustBox& box, const Vec& target) {
  IQ_CHECK(A.size() == b.size());
  const size_t m = A.size();
  const size_t num_sets = m + 1;  // halfspaces + the box
  Vec x = target;
  // One correction vector per convex set (Dykstra's memory terms).
  std::vector<Vec> corrections(num_sets, Zeros(static_cast<int>(x.size())));

  std::vector<double> norms2(m);
  for (size_t i = 0; i < m; ++i) norms2[i] = NormL2Squared(A[i]);

  for (int iter = 0; iter < kMaxSweeps; ++iter) {
    double max_shift = 0.0;
    for (size_t set = 0; set < num_sets; ++set) {
      Vec y = Add(x, corrections[set]);
      Vec projected;
      if (set < m) {
        double viol = Dot(A[set], y) - b[set];
        if (viol > 0 && norms2[set] > 0) {
          projected = Sub(y, Scale(A[set], viol / norms2[set]));
        } else {
          projected = y;
        }
      } else {
        projected = box.Clamp(y);
      }
      corrections[set] = Sub(y, projected);
      max_shift = std::max(max_shift, Distance(x, projected));
      x = std::move(projected);
    }
    if (max_shift < kTol) break;
  }

  // Verify feasibility of the final iterate.
  double scale = std::max(1.0, NormL2(x));
  for (size_t i = 0; i < m; ++i) {
    if (Dot(A[i], x) - b[i] > 1e-6 * scale) {
      return Status::FailedPrecondition(
          "Dykstra projection did not reach feasibility");
    }
  }
  if (!box.Contains(x, 1e-6 * scale)) {
    return Status::FailedPrecondition("projection violates the box bounds");
  }
  return x;
}

}  // namespace iq
