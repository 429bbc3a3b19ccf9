#ifndef IQ_GEOM_VEC_H_
#define IQ_GEOM_VEC_H_

#include <cstddef>
#include <vector>

namespace iq {

/// Runtime-dimension numeric vector. The whole library works with arbitrary
/// dimensionality decided at run time, so a plain std::vector<double> plus
/// free functions is the idiom (no fixed-size template machinery).
using Vec = std::vector<double>;

/// Dot product. Pre: a.size() == b.size().
double Dot(const Vec& a, const Vec& b);

/// Element-wise a + b / a - b. Pre: sizes match.
Vec Add(const Vec& a, const Vec& b);
Vec Sub(const Vec& a, const Vec& b);

/// a += b in place. Pre: sizes match.
void AddInPlace(Vec* a, const Vec& b);

/// Scalar multiple.
Vec Scale(const Vec& a, double c);

/// Norms.
double NormL1(const Vec& a);
double NormL2(const Vec& a);
double NormL2Squared(const Vec& a);
double NormLinf(const Vec& a);

/// Euclidean distance. Pre: sizes match.
double Distance(const Vec& a, const Vec& b);

/// Squared Euclidean distance. Pre: sizes match.
double DistanceSquared(const Vec& a, const Vec& b);

/// All-zero vector of length d.
Vec Zeros(int d);

/// True if every |a_i - b_i| <= tol.
bool ApproxEqual(const Vec& a, const Vec& b, double tol = 1e-9);

/// True if no component is NaN or infinite.
bool AllFinite(const Vec& a);

}  // namespace iq

#endif  // IQ_GEOM_VEC_H_
