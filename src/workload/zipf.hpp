// Zipf-popularity demand: the classical VoD popularity model.
//
// Each idle box demands, with probability `demand_prob` per round, a video
// drawn from a Zipf(alpha) distribution over the catalog (rank 1 most
// popular). Not adversarial — this is the "realistic load" workload used by
// the examples and the E2 success-probability experiment's background traffic.
#pragma once

#include <span>

#include "util/rng.hpp"
#include "workload/demand.hpp"

namespace p2pvod::workload {

/// Discrete Zipf sampler over {0, ..., size-1} with exponent alpha >= 0
/// (alpha = 0 is uniform). Inverse-CDF over precomputed cumulative weights,
/// searched from a Chen–Asau guide table (one start rank per 1/size of
/// [0, 1)), so a draw costs O(1) expected steps.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t size, double alpha);

  [[nodiscard]] std::uint32_t sample(util::Rng& rng) const;
  /// The inverse CDF at u in [0, 1): the first rank whose cumulative weight
  /// is >= u, or the last rank when none is (what sample returns for u).
  [[nodiscard]] std::uint32_t index_of(double u) const;
  /// Cumulative weights, non-decreasing; the last is 1.
  [[nodiscard]] std::span<const double> cdf() const noexcept {
    return cumulative_;
  }
  [[nodiscard]] double probability(std::uint32_t rank) const;
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(cumulative_.size());
  }

 private:
  std::vector<double> cumulative_;
  std::vector<std::uint32_t> guide_;
};

class ZipfDemand final : public DemandGenerator {
 public:
  ZipfDemand(std::uint32_t catalog_size, double alpha, double demand_prob,
             std::uint64_t seed)
      : sampler_(catalog_size, alpha), demand_prob_(demand_prob), rng_(seed) {}

  [[nodiscard]] std::vector<sim::Demand> demands(
      const sim::Simulator& sim) override;
  [[nodiscard]] std::string name() const override { return "zipf"; }

 private:
  ZipfSampler sampler_;
  double demand_prob_;
  util::Rng rng_;
};

}  // namespace p2pvod::workload
