// Unit tests for src/alloc: the Allocation container invariants and the four
// placement schemes (§2.1 permutation/independent, round-robin and
// full-replication baselines).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "alloc/allocation.hpp"
#include "alloc/allocator.hpp"
#include "alloc/full_replication.hpp"
#include "alloc/independent.hpp"
#include "alloc/permutation.hpp"
#include "alloc/round_robin.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace a = p2pvod::alloc;
namespace m = p2pvod::model;

namespace {
struct Fixture {
  m::Catalog catalog{20, 4, 16};                          // m=20, c=4
  m::CapacityProfile profile{m::CapacityProfile::homogeneous(16, 1.5, 5.0)};
  p2pvod::util::Rng rng{4242};
};
}  // namespace

// ----------------------------------------------------------------- container

TEST(Allocation, BuildsInverseMaps) {
  a::Allocation alloc(3, 4, {{0, 1}, {1, 1}, {2, 3}, {0, 3}});
  EXPECT_EQ(alloc.holders(1).size(), 2u);
  EXPECT_EQ(alloc.holders(0).size(), 0u);
  EXPECT_TRUE(alloc.box_has(0, 1));
  EXPECT_TRUE(alloc.box_has(0, 3));
  EXPECT_FALSE(alloc.box_has(1, 3));
  alloc.check_integrity();
}

TEST(Allocation, CountsDuplicates) {
  a::Allocation alloc(2, 2, {{0, 1}, {0, 1}, {1, 0}});
  EXPECT_EQ(alloc.duplicate_replicas(), 1u);
  EXPECT_EQ(alloc.holders(1).size(), 1u);   // deduplicated
  EXPECT_EQ(alloc.slot_usage(0), 2u);        // but both slots consumed
}

TEST(Allocation, RejectsOutOfRange) {
  EXPECT_THROW(a::Allocation(1, 1, {{2, 0}}), std::out_of_range);
  EXPECT_THROW(a::Allocation(1, 1, {{0, 5}}), std::out_of_range);
}

TEST(Allocation, ReplicationStats) {
  a::Allocation alloc(4, 2, {{0, 0}, {1, 0}, {2, 0}, {3, 1}});
  EXPECT_EQ(alloc.min_replication(), 1u);
  EXPECT_EQ(alloc.max_replication(), 3u);
  EXPECT_EQ(alloc.max_slot_usage(), 1u);
  EXPECT_NEAR(alloc.mean_slot_usage(), 1.0, 1e-12);
}

TEST(Allocation, VideoDataQuery) {
  const m::Catalog catalog(3, 2, 8);  // stripes: v0={0,1} v1={2,3} v2={4,5}
  a::Allocation alloc(2, 6, {{0, 2}, {1, 5}});
  EXPECT_TRUE(alloc.box_has_video_data(0, catalog, 1));
  EXPECT_FALSE(alloc.box_has_video_data(0, catalog, 0));
  EXPECT_FALSE(alloc.box_has_video_data(0, catalog, 2));
  EXPECT_TRUE(alloc.box_has_video_data(1, catalog, 2));
}

// ------------------------------------------------- differential: constructor

namespace {

/// The constructor as it was first written, kept as the reference the
/// counting-sort build must match byte for byte: sort every placement by
/// (stripe, box) and by (box, stripe), then drop repeats.
struct ReferenceAllocation {
  std::vector<std::vector<m::BoxId>> holders;
  std::vector<std::vector<m::StripeId>> stored;
  std::vector<std::uint32_t> slot_usage;
  std::uint64_t duplicates = 0;

  ReferenceAllocation(std::uint32_t boxes, std::uint32_t stripes,
                      std::vector<a::Allocation::Placement> placements)
      : holders(stripes), stored(boxes), slot_usage(boxes, 0) {
    for (const auto& p : placements) ++slot_usage.at(p.box);
    std::sort(placements.begin(), placements.end(),
              [](const auto& x, const auto& y) {
                return x.stripe != y.stripe ? x.stripe < y.stripe
                                            : x.box < y.box;
              });
    for (std::size_t i = 0; i < placements.size(); ++i) {
      const auto& p = placements[i];
      if (i > 0 && placements[i - 1].stripe == p.stripe &&
          placements[i - 1].box == p.box) {
        ++duplicates;
        continue;
      }
      holders.at(p.stripe).push_back(p.box);
    }
    std::sort(placements.begin(), placements.end(),
              [](const auto& x, const auto& y) {
                return x.box != y.box ? x.box < y.box : x.stripe < y.stripe;
              });
    for (std::size_t i = 0; i < placements.size(); ++i) {
      const auto& p = placements[i];
      if (i > 0 && placements[i - 1].stripe == p.stripe &&
          placements[i - 1].box == p.box)
        continue;
      stored.at(p.box).push_back(p.stripe);
    }
  }
};

void expect_matches(const a::Allocation& alloc,
                    const ReferenceAllocation& ref, const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(alloc.stripe_count(), ref.holders.size());
  ASSERT_EQ(alloc.box_count(), ref.stored.size());
  std::uint32_t min_repl = ref.holders.empty() ? 0 : UINT32_MAX;
  std::uint32_t max_repl = 0;
  for (m::StripeId s = 0; s < alloc.stripe_count(); ++s) {
    const auto got = alloc.holders(s);
    ASSERT_EQ(std::vector<m::BoxId>(got.begin(), got.end()), ref.holders[s])
        << "holders of stripe " << s;
    const auto size = static_cast<std::uint32_t>(ref.holders[s].size());
    min_repl = std::min(min_repl, size);
    max_repl = std::max(max_repl, size);
  }
  std::uint32_t max_usage = 0;
  double usage_sum = 0.0;
  for (m::BoxId b = 0; b < alloc.box_count(); ++b) {
    const auto got = alloc.stored(b);
    ASSERT_EQ(std::vector<m::StripeId>(got.begin(), got.end()), ref.stored[b])
        << "stored on box " << b;
    ASSERT_EQ(alloc.slot_usage(b), ref.slot_usage[b]) << "box " << b;
    max_usage = std::max(max_usage, ref.slot_usage[b]);
    usage_sum += ref.slot_usage[b];
  }
  EXPECT_EQ(alloc.duplicate_replicas(), ref.duplicates);
  EXPECT_EQ(alloc.min_replication(), min_repl);
  EXPECT_EQ(alloc.max_replication(), max_repl);
  EXPECT_EQ(alloc.max_slot_usage(), max_usage);
  EXPECT_EQ(alloc.mean_slot_usage(),
            ref.stored.empty() ? 0.0 : usage_sum / ref.stored.size());
  alloc.check_integrity();
}

/// A placement list with the relation and slot usage of `alloc`: one
/// placement per stored (box, stripe) plus, for each duplicate replica a box
/// holds, a repeat of one of its stripes; shuffled.
std::vector<a::Allocation::Placement> placements_of(const a::Allocation& alloc,
                                                    p2pvod::util::Rng& rng) {
  std::vector<a::Allocation::Placement> out;
  for (m::BoxId b = 0; b < alloc.box_count(); ++b) {
    const auto stored = alloc.stored(b);
    for (const m::StripeId s : stored) out.push_back({b, s});
    for (std::size_t extra = stored.size(); extra < alloc.slot_usage(b);
         ++extra)
      out.push_back({b, stored[extra % stored.size()]});
  }
  rng.shuffle(out);
  return out;
}

}  // namespace

TEST(AllocationDifferential, RandomPlacementListsMatchTheSortReference) {
  p2pvod::util::Rng rng(0xA110C);
  for (int trial = 0; trial < 400; ++trial) {
    const auto boxes = static_cast<std::uint32_t>(rng.next_below(14));
    const auto stripes = static_cast<std::uint32_t>(rng.next_below(24));
    std::vector<a::Allocation::Placement> placements;
    if (boxes > 0 && stripes > 0) {
      // Draw from a subset of boxes and stripes, so that some stripes stay
      // empty and some boxes hold nothing, and repeat earlier placements so
      // that duplicates land both adjacent and far apart.
      const auto live_boxes = 1 + rng.next_below(boxes);
      const auto live_stripes = 1 + rng.next_below(stripes);
      const auto count = rng.next_below(80);
      for (std::uint64_t i = 0; i < count; ++i) {
        if (!placements.empty() && rng.next_bool(0.2)) {
          placements.push_back(
              placements[rng.next_below(placements.size())]);
          continue;
        }
        placements.push_back(
            {static_cast<m::BoxId>(rng.next_below(live_boxes) * boxes /
                                   live_boxes),
             static_cast<m::StripeId>(rng.next_below(live_stripes) *
                                      stripes / live_stripes)});
      }
    }
    const ReferenceAllocation ref(boxes, stripes, placements);
    expect_matches(a::Allocation(boxes, stripes, placements), ref,
                   "trial " + std::to_string(trial));
  }
}

TEST(AllocationDifferential, EverySchemeMatchesTheSortReference) {
  const m::Catalog catalog(6, 4, 12);
  // Heterogeneous storage with zero-slot boxes (0 and 0.1 videos at c = 4),
  // and a two-class mix that full replication can fill.
  const m::CapacityProfile zero_slots(
      std::vector<double>(12, 1.5),
      {0.0, 3.0, 5.0, 0.1, 2.5, 6.0, 4.0, 0.0, 3.5, 5.0, 2.0, 4.0});
  const auto two_class =
      m::CapacityProfile::two_class(12, 4, 1.0, 2.0, 2.0, 4.0);
  const auto topology = p2pvod::net::Topology::uniform(12, 3);
  a::PlacementContext context;
  context.topology = &topology;
  context.demand = {6.0, 3.0, 2.0, 1.5, 1.2, 1.0};
  std::uint64_t duplicates_seen = 0;
  for (const auto scheme :
       {a::Scheme::kPermutation, a::Scheme::kIndependent,
        a::Scheme::kRoundRobin, a::Scheme::kFullReplication,
        a::Scheme::kDemandProportional, a::Scheme::kZoneLocalFirst,
        a::Scheme::kLpGreedy}) {
    const auto allocator = a::make_allocator(scheme);
    for (const auto* profile : {&zero_slots, &two_class}) {
      for (const std::uint64_t seed : {7u, 0xBEEFu}) {
        const std::string what =
            std::string(a::scheme_name(scheme)) +
            (profile == &zero_slots ? " zero-slot" : " two-class") +
            " seed " + std::to_string(seed);
        p2pvod::util::Rng rng(seed);
        if (scheme == a::Scheme::kFullReplication && profile == &zero_slots) {
          // Every box must hold the whole catalog; a zero-slot box cannot.
          EXPECT_THROW(
              (void)allocator->allocate(catalog, *profile, 2, rng, context),
              std::invalid_argument);
          continue;
        }
        const auto alloc =
            allocator->allocate(catalog, *profile, 2, rng, context);
        alloc.check_integrity(profile, catalog.stripes_per_video());
        duplicates_seen += alloc.duplicate_replicas();
        // Rebuild from a shuffled placement list with the same relation and
        // slot usage: both constructors must reproduce the scheme's output.
        const auto placements = placements_of(alloc, rng);
        const ReferenceAllocation ref(alloc.box_count(), alloc.stripe_count(),
                                      placements);
        expect_matches(alloc, ref, what + " (scheme output)");
        expect_matches(
            a::Allocation(alloc.box_count(), alloc.stripe_count(), placements),
            ref, what + " (rebuilt)");
      }
    }
  }
  EXPECT_GT(duplicates_seen, 0u);  // some scheme wastes a slot on a repeat
}

TEST(Allocation, IntegrityDetectsOverCapacity) {
  const auto profile = m::CapacityProfile::homogeneous(1, 1.0, 0.5);
  // 0.5 videos * c=2 -> 1 slot, but two replicas placed.
  a::Allocation alloc(1, 2, {{0, 0}, {0, 1}});
  EXPECT_THROW(alloc.check_integrity(&profile, 2), std::logic_error);
}

// ----------------------------------------------------------------- permutation

TEST(Permutation, ExactReplicationAndBalance) {
  Fixture fx;
  const auto alloc =
      a::PermutationAllocator().allocate(fx.catalog, fx.profile, 4, fx.rng);
  alloc.check_integrity(&fx.profile, fx.catalog.stripes_per_video());
  // k*m*c = 320 replicas into 16*20=320 slots: every box exactly full.
  for (m::BoxId b = 0; b < fx.profile.size(); ++b)
    EXPECT_EQ(alloc.slot_usage(b), 20u);
  // Each stripe has <= k holders (== k minus same-box duplicates).
  for (m::StripeId s = 0; s < fx.catalog.stripe_count(); ++s) {
    EXPECT_LE(alloc.holders(s).size(), 4u);
    EXPECT_GE(alloc.holders(s).size(), 1u);
  }
}

TEST(Permutation, DifferentSeedsDifferentPlacements) {
  Fixture fx;
  p2pvod::util::Rng rng1(1), rng2(2);
  const auto a1 =
      a::PermutationAllocator().allocate(fx.catalog, fx.profile, 2, rng1);
  const auto a2 =
      a::PermutationAllocator().allocate(fx.catalog, fx.profile, 2, rng2);
  bool differs = false;
  for (m::StripeId s = 0; s < fx.catalog.stripe_count() && !differs; ++s) {
    const auto h1 = a1.holders(s);
    const auto h2 = a2.holders(s);
    differs = !std::equal(h1.begin(), h1.end(), h2.begin(), h2.end());
  }
  EXPECT_TRUE(differs);
}

TEST(Permutation, SameSeedReproducible) {
  Fixture fx;
  p2pvod::util::Rng rng1(9), rng2(9);
  const auto a1 =
      a::PermutationAllocator().allocate(fx.catalog, fx.profile, 3, rng1);
  const auto a2 =
      a::PermutationAllocator().allocate(fx.catalog, fx.profile, 3, rng2);
  for (m::StripeId s = 0; s < fx.catalog.stripe_count(); ++s) {
    const auto h1 = a1.holders(s);
    const auto h2 = a2.holders(s);
    ASSERT_TRUE(std::equal(h1.begin(), h1.end(), h2.begin(), h2.end()));
  }
}

TEST(Permutation, RejectsOverfull) {
  Fixture fx;
  EXPECT_THROW(
      a::PermutationAllocator().allocate(fx.catalog, fx.profile, 5, fx.rng),
      std::invalid_argument);
}

TEST(Permutation, RejectsSlotTotalsBeyondUint32) {
  // Two boxes of 2^31 + 2 and 2^31 + 3 slots: 2^32 + 5 in all, which a
  // uint32 permutation cannot index. The check runs before the slot array
  // (about 16 GB here) is reserved.
  const m::Catalog catalog(2, 1, 8);
  const m::CapacityProfile profile({1.0, 1.0},
                                   {2147483650.0, 2147483651.0});
  ASSERT_EQ(profile.total_storage_slots(1), (std::uint64_t{1} << 32) + 5);
  p2pvod::util::Rng rng(1);
  EXPECT_THROW(
      (void)a::PermutationAllocator().allocate(catalog, profile, 1, rng),
      std::invalid_argument);
}

TEST(Permutation, HeterogeneousStorageWeighting) {
  const m::Catalog catalog(10, 2, 8);
  const auto profile = m::CapacityProfile::two_class(4, 2, 1.0, 1.0, 1.0, 9.0);
  p2pvod::util::Rng rng(31);
  const auto alloc = a::PermutationAllocator().allocate(catalog, profile, 2, rng);
  alloc.check_integrity(&profile, 2);
  // Large boxes (18 slots) must hold more than small ones (2 slots) can.
  EXPECT_LE(alloc.slot_usage(0), 2u);
  EXPECT_LE(alloc.slot_usage(1), 2u);
}

// ----------------------------------------------------------------- independent

TEST(Independent, RedrawPolicyFitsCapacity) {
  Fixture fx;
  const auto alloc = a::IndependentAllocator(a::FullBoxPolicy::kRedraw)
                         .allocate(fx.catalog, fx.profile, 4, fx.rng);
  alloc.check_integrity(&fx.profile, fx.catalog.stripes_per_video());
}

TEST(Independent, LoadsAreUnbalanced) {
  // Unlike permutation, independent placement deviates from the mean; with
  // replicas == slots some box must overflow its mean share.
  const m::Catalog catalog(100, 4, 8);
  const auto profile = m::CapacityProfile::homogeneous(50, 1.5, 16.0);
  p2pvod::util::Rng rng(77);
  const auto alloc = a::IndependentAllocator(a::FullBoxPolicy::kRedraw)
                         .allocate(catalog, profile, 4, rng);
  // mean load = 4*400/50 = 32 of 64 slots; max should exceed the mean.
  EXPECT_GT(alloc.max_slot_usage(), 32u);
}

TEST(Independent, FailPolicyThrowsWhenSlotsTight) {
  // k=2 replicas of 20 stripes exactly fill the 40 slots: independent draws
  // hit a full box long before the last replica (deterministic seed).
  const m::Catalog catalog(10, 2, 8);
  const auto profile = m::CapacityProfile::homogeneous(5, 1.0, 4.0);
  p2pvod::util::Rng rng(13);
  EXPECT_THROW(a::IndependentAllocator(a::FullBoxPolicy::kFail)
                   .allocate(catalog, profile, 2, rng),
               std::runtime_error);
}

TEST(Independent, RejectsOverfull) {
  Fixture fx;
  EXPECT_THROW(a::IndependentAllocator().allocate(fx.catalog, fx.profile, 6,
                                                  fx.rng),
               std::invalid_argument);
}

// ----------------------------------------------------------------- round robin

TEST(RoundRobin, DeterministicPlacement) {
  Fixture fx;
  p2pvod::util::Rng rng1(1), rng2(999);
  const auto a1 =
      a::RoundRobinAllocator().allocate(fx.catalog, fx.profile, 3, rng1);
  const auto a2 =
      a::RoundRobinAllocator().allocate(fx.catalog, fx.profile, 3, rng2);
  for (m::StripeId s = 0; s < fx.catalog.stripe_count(); ++s) {
    const auto h1 = a1.holders(s);
    const auto h2 = a2.holders(s);
    ASSERT_TRUE(std::equal(h1.begin(), h1.end(), h2.begin(), h2.end()));
  }
}

TEST(RoundRobin, ExactlyKDistinctHolders) {
  Fixture fx;
  const auto alloc =
      a::RoundRobinAllocator().allocate(fx.catalog, fx.profile, 3, fx.rng);
  for (m::StripeId s = 0; s < fx.catalog.stripe_count(); ++s)
    EXPECT_EQ(alloc.holders(s).size(), 3u);
  EXPECT_EQ(alloc.duplicate_replicas(), 0u);
}

TEST(RoundRobin, PerfectlyBalancedLoad) {
  Fixture fx;
  const auto alloc =
      a::RoundRobinAllocator().allocate(fx.catalog, fx.profile, 4, fx.rng);
  for (m::BoxId b = 0; b < fx.profile.size(); ++b)
    EXPECT_EQ(alloc.slot_usage(b), 20u);
}

TEST(RoundRobin, RejectsKAboveN) {
  Fixture fx;
  const m::Catalog small(2, 4, 16);
  EXPECT_THROW(
      a::RoundRobinAllocator().allocate(small, fx.profile, 17, fx.rng),
      std::invalid_argument);
}

// ----------------------------------------------------------------- full replication

TEST(FullReplication, EveryBoxHasEveryVideo) {
  const m::Catalog catalog(12, 4, 16);  // m = 12 <= d*c = 20
  Fixture fx;
  const auto alloc = a::FullReplicationAllocator().allocate(
      catalog, fx.profile, /*k ignored*/ 1, fx.rng);
  for (m::BoxId b = 0; b < fx.profile.size(); ++b) {
    for (m::VideoId v = 0; v < catalog.video_count(); ++v)
      EXPECT_TRUE(alloc.box_has_video_data(b, catalog, v));
  }
}

TEST(FullReplication, StripeIndexFollowsBoxClass) {
  const m::Catalog catalog(5, 4, 16);
  Fixture fx;
  const auto alloc =
      a::FullReplicationAllocator().allocate(catalog, fx.profile, 1, fx.rng);
  // Box b stores stripe index b mod c of every video.
  for (m::BoxId b = 0; b < fx.profile.size(); ++b) {
    for (m::VideoId v = 0; v < catalog.video_count(); ++v) {
      EXPECT_TRUE(alloc.box_has(b, catalog.stripe_id(v, b % 4)));
    }
  }
}

TEST(FullReplication, MaxCatalogOfEmptyProfileIsZero) {
  EXPECT_EQ(
      a::FullReplicationAllocator::max_catalog(m::CapacityProfile(), 4), 0u);
}

TEST(FullReplication, MaxCatalogBound) {
  Fixture fx;
  EXPECT_EQ(a::FullReplicationAllocator::max_catalog(fx.profile, 4), 20u);
  const m::Catalog too_big(21, 4, 16);
  EXPECT_THROW(
      a::FullReplicationAllocator().allocate(too_big, fx.profile, 1, fx.rng),
      std::invalid_argument);
}

TEST(FullReplication, HoldersSpreadAcrossClasses) {
  const m::Catalog catalog(3, 4, 16);
  Fixture fx;  // n = 16 boxes, c = 4 -> 4 holders per stripe
  const auto alloc =
      a::FullReplicationAllocator().allocate(catalog, fx.profile, 1, fx.rng);
  for (m::StripeId s = 0; s < catalog.stripe_count(); ++s)
    EXPECT_EQ(alloc.holders(s).size(), 4u);
}

// ----------------------------------------------------------------- factory

TEST(Factory, MakesEveryScheme) {
  for (const auto scheme :
       {a::Scheme::kPermutation, a::Scheme::kIndependent,
        a::Scheme::kRoundRobin, a::Scheme::kFullReplication}) {
    const auto allocator = a::make_allocator(scheme);
    ASSERT_NE(allocator, nullptr);
    EXPECT_EQ(allocator->name(), a::scheme_name(scheme));
  }
}

TEST(Factory, AllSchemesProduceValidAllocations) {
  const m::Catalog catalog(8, 4, 16);
  const auto profile = m::CapacityProfile::homogeneous(8, 1.5, 4.0);
  for (const auto scheme :
       {a::Scheme::kPermutation, a::Scheme::kIndependent,
        a::Scheme::kRoundRobin, a::Scheme::kFullReplication}) {
    p2pvod::util::Rng rng(3);
    const auto alloc =
        a::make_allocator(scheme)->allocate(catalog, profile, 2, rng);
    alloc.check_integrity(&profile, 4);
    for (m::StripeId s = 0; s < catalog.stripe_count(); ++s)
      EXPECT_GE(alloc.holders(s).size(), 1u) << a::scheme_name(scheme);
  }
}
