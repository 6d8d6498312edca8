#include "alloc/permutation.hpp"

#include <limits>
#include <stdexcept>

namespace p2pvod::alloc {

Allocation PermutationAllocator::allocate(const model::Catalog& catalog,
                                          const model::CapacityProfile& profile,
                                          std::uint32_t k,
                                          util::Rng& rng) const {
  if (k == 0) throw std::invalid_argument("PermutationAllocator: k == 0");
  const std::uint32_t c = catalog.stripes_per_video();
  const std::uint64_t replicas =
      static_cast<std::uint64_t>(k) * catalog.stripe_count();
  const std::uint64_t slots = profile.total_storage_slots(c);
  if (replicas > slots) {
    throw std::invalid_argument(
        "PermutationAllocator: k*m*c replicas exceed d*n*c slots");
  }
  // Slots are indexed by a uint32 permutation; refuse before allocating.
  if (slots > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "PermutationAllocator: total storage slots exceed UINT32_MAX");
  }

  // Global slot array: slot -> owning box.
  std::vector<model::BoxId> slot_owner;
  slot_owner.reserve(slots);
  for (model::BoxId b = 0; b < profile.size(); ++b) {
    const std::uint32_t box_slots = profile.storage_slots(b, c);
    slot_owner.insert(slot_owner.end(), box_slots, b);
  }

  // Draw a random permutation of slots; replica i goes to slot π(i). Only the
  // first `replicas` entries of the permutation are consumed; the remaining
  // slots stay empty (they model free catalog storage).
  std::vector<std::uint32_t> perm(
      rng.permutation(static_cast<std::uint32_t>(slots)));

  std::vector<Allocation::Placement> placements;
  placements.reserve(replicas);
  std::uint64_t next = 0;
  for (model::StripeId s = 0; s < catalog.stripe_count(); ++s) {
    for (std::uint32_t r = 0; r < k; ++r) {
      placements.push_back({slot_owner[perm[next]], s});
      ++next;
    }
  }
  return Allocation(profile.size(), catalog.stripe_count(),
                    std::move(placements));
}

}  // namespace p2pvod::alloc
