#include "geom/vec.h"

#include <cmath>

#include "util/check.h"

namespace iq {

double Dot(const Vec& a, const Vec& b) {
  IQ_DCHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

Vec Add(const Vec& a, const Vec& b) {
  IQ_DCHECK(a.size() == b.size());
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vec Sub(const Vec& a, const Vec& b) {
  IQ_DCHECK(a.size() == b.size());
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

void AddInPlace(Vec* a, const Vec& b) {
  IQ_DCHECK(a->size() == b.size());
  for (size_t i = 0; i < b.size(); ++i) (*a)[i] += b[i];
}

Vec Scale(const Vec& a, double c) {
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * c;
  return out;
}

double NormL1(const Vec& a) {
  double s = 0.0;
  for (double x : a) s += std::fabs(x);
  return s;
}

double NormL2Squared(const Vec& a) {
  double s = 0.0;
  for (double x : a) s += x * x;
  return s;
}

double NormL2(const Vec& a) { return std::sqrt(NormL2Squared(a)); }

double NormLinf(const Vec& a) {
  double s = 0.0;
  for (double x : a) s = std::max(s, std::fabs(x));
  return s;
}

double DistanceSquared(const Vec& a, const Vec& b) {
  IQ_DCHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double Distance(const Vec& a, const Vec& b) {
  return std::sqrt(DistanceSquared(a, b));
}

Vec Zeros(int d) { return Vec(static_cast<size_t>(d), 0.0); }

bool ApproxEqual(const Vec& a, const Vec& b, double tol) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

bool AllFinite(const Vec& a) {
  for (double v : a) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace iq
