#ifndef IQ_OPT_COST_H_
#define IQ_OPT_COST_H_

#include <functional>
#include <string>

#include "geom/vec.h"

namespace iq {

/// User-defined cost model for improvement strategies (paper §3.1: "we let
/// the query issuer specify such resource requirements using a cost function
/// Cost_p(s)"). Built-in families cover the models used in the paper's
/// experiments (Eq. 30 is L2) plus common alternatives; Custom accepts any
/// callable.
class CostFunction {
 public:
  enum class Kind { kL1, kL2, kWeightedL1, kWeightedL2, kQuadratic, kCustom };

  /// Σ |s_i|.
  static CostFunction L1();
  /// sqrt(Σ s_i^2) — the paper's experimental cost function (Eq. 30).
  static CostFunction L2();
  /// Σ c_i |s_i| with per-attribute unit costs c >= 0.
  static CostFunction WeightedL1(Vec unit_costs);
  /// sqrt(Σ c_i s_i^2).
  static CostFunction WeightedL2(Vec unit_costs);
  /// Σ c_i s_i^2 (smooth, no square root).
  static CostFunction Quadratic(Vec unit_costs);
  /// Arbitrary user cost; `grad` optional (numeric differences otherwise).
  static CostFunction Custom(std::function<double(const Vec&)> fn,
                             std::function<Vec(const Vec&)> grad = nullptr,
                             std::string name = "custom");

  double Cost(const Vec& s) const;
  /// Subgradient for L1 kinds (sign convention: 0 at 0).
  Vec Gradient(const Vec& s) const;

  Kind kind() const { return kind_; }
  const Vec& unit_costs() const { return unit_costs_; }
  const std::string& name() const { return name_; }

 private:
  CostFunction(Kind kind, Vec unit_costs, std::string name)
      : kind_(kind), unit_costs_(std::move(unit_costs)),
        name_(std::move(name)) {}

  Kind kind_;
  Vec unit_costs_;
  std::function<double(const Vec&)> custom_fn_;
  std::function<Vec(const Vec&)> custom_grad_;
  std::string name_;
};

}  // namespace iq

#endif  // IQ_OPT_COST_H_
