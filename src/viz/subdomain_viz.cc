#include "viz/subdomain_viz.h"

#include <algorithm>
#include <cmath>

#include "geom/hyperplane.h"
#include "geom/plane_sweep.h"
#include "topk/topk.h"
#include "util/string_util.h"
#include "viz/svg.h"

namespace iq {
namespace {

/// Data-to-view transform over the query-point bounding box (padded).
struct View {
  double lo_x = 0, lo_y = 0, hi_x = 1, hi_y = 1;
  double width = 800, height = 800;
  double margin = 40;

  double X(double x) const {
    return margin + (x - lo_x) / (hi_x - lo_x) * (width - 2 * margin);
  }
  double Y(double y) const {
    // SVG y grows downward; flip so the domain reads mathematically.
    return height - margin - (y - lo_y) / (hi_y - lo_y) * (height - 2 * margin);
  }
};

Status CheckTwoSlots(const SubdomainIndex& index) {
  if (index.view().form().num_slots() != 2) {
    return Status::InvalidArgument(
        "subdomain visualization requires exactly 2 weight slots");
  }
  return Status::Ok();
}

View FitView(const SubdomainIndex& index, const VizOptions& options) {
  View v;
  v.width = options.width;
  v.height = options.height;
  double lo_x = 1e300, lo_y = 1e300, hi_x = -1e300, hi_y = -1e300;
  const QuerySet& queries = index.queries();
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q)) continue;
    const Vec& w = index.aug_weights(q);
    lo_x = std::min(lo_x, w[0]);
    hi_x = std::max(hi_x, w[0]);
    lo_y = std::min(lo_y, w[1]);
    hi_y = std::max(hi_y, w[1]);
  }
  if (lo_x > hi_x) {
    lo_x = lo_y = 0;
    hi_x = hi_y = 1;
  }
  double pad_x = std::max(1e-6, (hi_x - lo_x) * 0.05);
  double pad_y = std::max(1e-6, (hi_y - lo_y) * 0.05);
  v.lo_x = lo_x - pad_x;
  v.hi_x = hi_x + pad_x;
  v.lo_y = lo_y - pad_y;
  v.hi_y = hi_y + pad_y;
  return v;
}

void DrawFrame(SvgDocument* svg, const View& v) {
  svg->AddRect(0, 0, v.width, v.height, "#ffffff");
  svg->AddRect(v.margin, v.margin, v.width - 2 * v.margin,
               v.height - 2 * v.margin, "none", "#888", 1.0);
}

/// Draws the line (a.w = 0) clipped to the view's data box.
void DrawPlane(SvgDocument* svg, const View& v, const Hyperplane& plane,
               const std::string& color, double width, bool dashed) {
  auto seg = ClipLineToBox(plane.normal[0], plane.normal[1], plane.offset,
                           v.lo_x, v.lo_y, v.hi_x, v.hi_y);
  if (!seg.has_value()) return;
  svg->AddLine(v.X(seg->ax), v.Y(seg->ay), v.X(seg->bx), v.Y(seg->by), color,
               width, 0.8, dashed);
}

void DrawQueryPoints(SvgDocument* svg, const View& v,
                     const SubdomainIndex& index, const VizOptions& options) {
  const QuerySet& queries = index.queries();
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q)) continue;
    const Vec& w = index.aug_weights(q);
    svg->AddCircle(v.X(w[0]), v.Y(w[1]), options.point_radius,
                   SvgDocument::CategoryColor(index.subdomain_of(q)), "#333",
                   0.4);
  }
}

/// Signature-member pairs ordered by how often they appear near the top.
std::vector<std::pair<int, int>> MemberPairs(const SubdomainIndex& index,
                                             int max_pairs) {
  std::vector<int> members = index.SignatureMembers();
  std::vector<std::pair<int, int>> pairs;
  for (size_t a = 0; a < members.size() && static_cast<int>(pairs.size()) <
                                               max_pairs; ++a) {
    for (size_t b = a + 1; b < members.size() &&
                           static_cast<int>(pairs.size()) < max_pairs; ++b) {
      pairs.emplace_back(members[a], members[b]);
    }
  }
  return pairs;
}

}  // namespace

Result<std::string> RenderSubdomainMap(const SubdomainIndex& index,
                                       const VizOptions& options) {
  IQ_RETURN_IF_ERROR(CheckTwoSlots(index));
  View v = FitView(index, options);
  SvgDocument svg(v.width, v.height);
  DrawFrame(&svg, v);

  if (options.max_intersection_pairs > 0) {
    const FunctionView& view = index.view();
    for (const auto& [a, b] : MemberPairs(index,
                                          options.max_intersection_pairs)) {
      DrawPlane(&svg, v, IntersectionPlane(view.coeffs(a), view.coeffs(b)),
                "#cccccc", 0.7, false);
    }
  }
  DrawQueryPoints(&svg, v, index, options);
  if (options.legend) {
    svg.AddText(v.margin, v.margin - 12,
                StrFormat("%d queries, %d subdomains (color = subdomain)",
                          index.queries().num_active(),
                          index.num_subdomains()),
                13);
  }
  return svg.ToString();
}

Result<std::string> RenderAffectedSubspace(const SubdomainIndex& index,
                                           int target, const Vec& strategy,
                                           const VizOptions& options) {
  IQ_RETURN_IF_ERROR(CheckTwoSlots(index));
  const FunctionView& view = index.view();
  const Dataset& data = view.dataset();
  if (target < 0 || target >= data.size() || !data.is_active(target)) {
    return Status::InvalidArgument("target is not an active object");
  }
  if (static_cast<int>(strategy.size()) != data.dim()) {
    return Status::InvalidArgument("strategy dimension mismatch");
  }

  View v = FitView(index, options);
  SvgDocument svg(v.width, v.height);
  DrawFrame(&svg, v);

  const Vec& c_before = view.coeffs(target);
  Vec c_after = view.CoefficientsFor(Add(data.attrs(target), strategy));

  // Hit status flips per query (threshold rule).
  const QuerySet& queries = index.queries();
  const std::vector<double> thresholds = index.HitThresholds(target);
  std::vector<int> affected;
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q)) continue;
    const double t = thresholds[static_cast<size_t>(q)];
    const Vec& w = index.aug_weights(q);
    if (HitByThreshold(Dot(c_before, w), t) !=
        HitByThreshold(Dot(c_after, w), t)) {
      affected.push_back(q);
    }
  }

  // Old (solid) and new (dashed) intersection lines vs member competitors.
  int drawn = 0;
  for (int l : index.SignatureMembers()) {
    if (l == target || !data.is_active(l)) continue;
    if (drawn++ >= options.max_intersection_pairs) break;
    DrawPlane(&svg, v, IntersectionPlane(c_before, view.coeffs(l)), "#b0b0b0",
              0.8, false);
    DrawPlane(&svg, v, IntersectionPlane(c_after, view.coeffs(l)), "#e4572e",
              0.8, true);
  }

  // Query points: grey = unaffected, colored = hit status flips.
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q)) continue;
    const Vec& w = index.aug_weights(q);
    svg.AddCircle(v.X(w[0]), v.Y(w[1]), options.point_radius, "#d8d8d8",
                  "#999", 0.3);
  }
  for (int q : affected) {
    const Vec& w = index.aug_weights(q);
    const double t = thresholds[static_cast<size_t>(q)];
    bool gained = HitByThreshold(Dot(c_after, w), t);
    svg.AddCircle(v.X(w[0]), v.Y(w[1]), options.point_radius + 1.2,
                  gained ? "#2a9d2a" : "#d62728", "#333", 0.5);
  }
  if (options.legend) {
    svg.AddText(v.margin, v.margin - 12,
                StrFormat("affected queries: %zu of %d (green = gained, "
                          "red = lost); solid = before, dashed = after",
                          affected.size(), queries.num_active()),
                13);
  }
  return svg.ToString();
}

}  // namespace iq
