#ifndef IQ_OPT_DYKSTRA_H_
#define IQ_OPT_DYKSTRA_H_

#include <vector>

#include "geom/vec.h"
#include "opt/bounds.h"
#include "util/status.h"

namespace iq {

/// Dykstra's alternating-projection algorithm: the Euclidean projection of
/// `target` onto the polyhedron { s : A[i].s <= b[i] for all i } ∩ box.
///
/// Used by the exhaustive IQ search, where the optimal L2-cost strategy for
/// a chosen query subset is exactly the projection of the origin onto the
/// intersection of that subset's hit halfspaces.
///
/// Returns FailedPrecondition when the iterate does not reach feasibility
/// (empty intersection or insufficient iterations).
Result<Vec> DykstraProject(const std::vector<Vec>& A, const Vec& b,
                           const AdjustBox& box, const Vec& target);

}  // namespace iq

#endif  // IQ_OPT_DYKSTRA_H_
