#include "workload/zipf.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"

namespace p2pvod::workload {

ZipfSampler::ZipfSampler(std::uint32_t size, double alpha) {
  if (size == 0) throw std::invalid_argument("ZipfSampler: empty support");
  if (alpha < 0.0) throw std::invalid_argument("ZipfSampler: alpha < 0");
  cumulative_.resize(size);
  double acc = 0.0;
  for (std::uint32_t r = 0; r < size; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
    cumulative_[r] = acc;
  }
  for (double& value : cumulative_) value /= acc;

  // guide_[g] = lower_bound of g / size: the bucket's first candidate rank.
  guide_.resize(size);
  std::uint32_t r = 0;
  for (std::uint32_t g = 0; g < size; ++g) {
    const double edge = static_cast<double>(g) / static_cast<double>(size);
    while (r + 1 < size && cumulative_[r] < edge) ++r;
    guide_[g] = r;
  }
}

std::uint32_t ZipfSampler::sample(util::Rng& rng) const {
  return index_of(rng.next_double());
}

std::uint32_t ZipfSampler::index_of(double u) const {
  const auto buckets = static_cast<std::uint32_t>(guide_.size());
  const auto bucket = static_cast<std::uint32_t>(
      std::clamp(u * buckets, 0.0, static_cast<double>(buckets - 1)));
  // The bucket start is exact up to rounding of u * buckets; correct both
  // ways so the result is always the clamped lower_bound of u.
  std::uint32_t r = guide_[bucket];
  while (r > 0 && cumulative_[r - 1] >= u) --r;
  while (r + 1 < buckets && cumulative_[r] < u) ++r;
  return r;
}

double ZipfSampler::probability(std::uint32_t rank) const {
  if (rank >= cumulative_.size())
    throw std::out_of_range("ZipfSampler::probability");
  return rank == 0 ? cumulative_[0]
                   : cumulative_[rank] - cumulative_[rank - 1];
}

std::vector<sim::Demand> ZipfDemand::demands(const sim::Simulator& sim) {
  OBS_SPAN("workload/demands");
  std::vector<sim::Demand> out;
  for (const model::BoxId b : idle_boxes(sim)) {
    if (!rng_.next_bool(demand_prob_)) continue;
    out.push_back({b, sampler_.sample(rng_)});
  }
  return out;
}

}  // namespace p2pvod::workload
