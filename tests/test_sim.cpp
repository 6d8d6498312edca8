// Unit tests for src/sim: swarm registry, cache index availability rule,
// strategies, and hand-checkable end-to-end simulator scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "alloc/allocation.hpp"
#include "alloc/permutation.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/cache.hpp"
#include "sim/simulator.hpp"
#include "sim/strategy.hpp"
#include "sim/swarm.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"
#include "workload/zipf.hpp"

namespace s = p2pvod::sim;
namespace m = p2pvod::model;
namespace a = p2pvod::alloc;
namespace w = p2pvod::workload;

// ----------------------------------------------------------------- swarm

TEST(Swarm, TicketsAreSequential) {
  s::SwarmRegistry reg(2);
  EXPECT_EQ(reg.enter(0, 0), 0u);
  EXPECT_EQ(reg.enter(0, 0), 1u);
  EXPECT_EQ(reg.enter(1, 0), 0u);
  EXPECT_EQ(reg.total_entries(0), 2u);
}

TEST(Swarm, SizeTracksEnterLeave) {
  s::SwarmRegistry reg(1);
  reg.enter(0, 0);
  reg.enter(0, 0);
  EXPECT_EQ(reg.size(0), 2u);
  reg.leave(0);
  EXPECT_EQ(reg.size(0), 1u);
  EXPECT_EQ(reg.peak_size(), 2u);
}

TEST(Swarm, CancelEnterRestoresTicketAndPeak) {
  s::SwarmRegistry reg(2);
  reg.enter(1, 0);
  EXPECT_EQ(reg.enter(0, 0), 0u);
  EXPECT_EQ(reg.peak_size(), 1u);
  EXPECT_EQ(reg.enter(0, 0), 1u);  // raises the peak to 2 ...
  reg.cancel_enter(0);             // ... and is undone
  EXPECT_EQ(reg.size(0), 1u);
  EXPECT_EQ(reg.total_entries(0), 1u);
  EXPECT_EQ(reg.peak_size(), 1u);
  EXPECT_EQ(reg.enter(0, 0), 1u);  // the cancelled ticket is reissued
  EXPECT_THROW(reg.cancel_enter(5), std::out_of_range);
}

TEST(Swarm, LeaveOnEmptyThrows) {
  s::SwarmRegistry reg(1);
  EXPECT_THROW(reg.leave(0), std::logic_error);
}

TEST(Swarm, AdmissibleJoinsFollowGrowthRule) {
  s::SwarmRegistry reg(1);
  reg.begin_round(0);
  // f=0: ceil(max(0,1)*2) = 2 joins allowed.
  EXPECT_EQ(reg.admissible_joins(0, 2.0), 2u);
  reg.enter(0, 0);
  reg.enter(0, 0);
  EXPECT_EQ(reg.admissible_joins(0, 2.0), 0u);
  reg.begin_round(1);
  // f=2: up to ceil(4)=4, so 2 more.
  EXPECT_EQ(reg.admissible_joins(0, 2.0), 2u);
}

TEST(Swarm, OutOfRangeThrows) {
  s::SwarmRegistry reg(1);
  EXPECT_THROW((void)reg.size(1), std::out_of_range);
  EXPECT_THROW((void)reg.enter(1, 0), std::out_of_range);
}

// --- growth-rule edge cases (previously only exercised through scenarios) ---

TEST(Swarm, AdmissibleJoinsWithMuBelowOne) {
  // µ < 1 is outside the paper's model (configs reject it) but the registry
  // must still behave: ceil(max(f,1)·µ) keeps at least one admissible join
  // into an empty swarm and shrinks — never underflows — a populated one.
  s::SwarmRegistry reg(1);
  reg.begin_round(0);
  // f=0: ceil(max(0,1)*0.5) = ceil(0.5) = 1 join allowed.
  EXPECT_EQ(reg.admissible_joins(0, 0.5), 1u);
  reg.enter(0, 0);
  reg.enter(0, 0);
  reg.enter(0, 0);
  reg.begin_round(1);
  // f=3: limit ceil(1.5) = 2 < current size 3 — clamped at 0, no underflow.
  EXPECT_EQ(reg.admissible_joins(0, 0.5), 0u);
}

TEST(Swarm, EmptySwarmReentryAfterFullDrain) {
  s::SwarmRegistry reg(1);
  reg.enter(0, 0);
  reg.enter(0, 0);
  reg.leave(0);
  reg.leave(0);
  EXPECT_EQ(reg.size(0), 0u);
  // Re-entry after a full drain: growth restarts from the empty-swarm floor
  // f=1, and the lifetime ticket counter keeps counting (tickets are entry
  // numbers, not population).
  reg.begin_round(5);
  EXPECT_EQ(reg.admissible_joins(0, 1.3), 2u);  // ceil(1.3) = 2
  EXPECT_EQ(reg.enter(0, 5), 2u);               // third lifetime entry
  EXPECT_EQ(reg.size(0), 1u);
  EXPECT_EQ(reg.total_entries(0), 3u);
  EXPECT_EQ(reg.peak_size(), 2u);  // peak survives the drain
}

TEST(Swarm, AdmissibleJoinsClampAtCeiling) {
  s::SwarmRegistry reg(1);
  reg.begin_round(0);
  reg.enter(0, 0);
  reg.enter(0, 0);
  reg.begin_round(1);
  // f_start=2, µ=1.3: limit ceil(2.6) = 3, one more join admissible.
  EXPECT_EQ(reg.admissible_joins(0, 1.3), 1u);
  reg.enter(0, 1);
  EXPECT_EQ(reg.admissible_joins(0, 1.3), 0u);
  // Joins beyond the ceiling (a generator ignoring the limiter) clamp at 0
  // instead of wrapping around.
  reg.enter(0, 1);
  EXPECT_EQ(reg.size(0), 4u);
  EXPECT_EQ(reg.admissible_joins(0, 1.3), 0u);
  // Integer-valued µ on an exact boundary: f_start=2, µ=2 -> limit 4 == size.
  reg.begin_round(2);
  EXPECT_EQ(reg.admissible_joins(0, 2.0), 4u);  // f_start=4: ceil(8)-4
  EXPECT_EQ(reg.admissible_joins(0, 1.0), 0u);  // limit 4 == current size
}

// ----------------------------------------------------------------- cache

TEST(Cache, EarlierJoinerServesLaterRequest) {
  s::CacheIndex cache(1, /*window=*/8);
  cache.grant(0, /*box=*/3, /*entry=*/5);
  std::vector<m::BoxId> out;
  // Request issued at 6 (strictly after 5): box 3 qualifies at round 7.
  EXPECT_EQ(cache.collect_servers(0, 6, 7, m::kInvalidBox, out), 1u);
  EXPECT_EQ(out[0], 3u);
}

TEST(Cache, SameRoundJoinersCannotServeEachOther) {
  s::CacheIndex cache(1, 8);
  cache.grant(0, 3, 5);
  std::vector<m::BoxId> out;
  // Request also issued at 5: strict inequality excludes box 3 (§2.2).
  EXPECT_EQ(cache.collect_servers(0, 5, 7, m::kInvalidBox, out), 0u);
}

TEST(Cache, RetentionWindowExpires) {
  s::CacheIndex cache(1, 4);
  cache.grant(0, 3, 5);
  std::vector<m::BoxId> out;
  EXPECT_EQ(cache.collect_servers(0, 9, 9, m::kInvalidBox, out), 1u);
  out.clear();
  // now=10: oldest retained entry is 10-4=6 > 5.
  EXPECT_EQ(cache.collect_servers(0, 9, 10, m::kInvalidBox, out), 0u);
}

TEST(Cache, ExcludesRequesterItself) {
  s::CacheIndex cache(1, 8);
  cache.grant(0, 3, 5);
  std::vector<m::BoxId> out;
  EXPECT_EQ(cache.collect_servers(0, 6, 7, /*exclude=*/3, out), 0u);
}

TEST(Cache, FutureGrantsInvisibleToEarlierRequests) {
  s::CacheIndex cache(1, 8);
  cache.grant(0, 3, 9);  // relay-lagged entry in the future
  std::vector<m::BoxId> out;
  EXPECT_EQ(cache.collect_servers(0, 7, 8, m::kInvalidBox, out), 0u);
}

TEST(Cache, PruneDropsExpiredEntries) {
  s::CacheIndex cache(2, 4);
  cache.grant(0, 1, 0);
  cache.grant(1, 2, 6);
  EXPECT_EQ(cache.entry_count(), 2u);
  cache.prune(10);  // oldest kept entry: 6
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(CacheIndex, PruneReportsEachEntryOnceAtItsExpiryRound) {
  constexpr m::Round kWindow = 3;
  s::CacheIndex cache(2, kWindow);
  cache.grant(0, /*box=*/1, /*entry=*/0);
  cache.grant(1, /*box=*/2, /*entry=*/0);
  cache.grant(0, /*box=*/3, /*entry=*/2);
  cache.grant(0, /*box=*/4, /*entry=*/0);
  std::vector<s::CacheIndex::Entry> expired;
  for (m::Round now = 0; now < 10; ++now) {
    const std::size_t before = expired.size();
    cache.prune(now, &expired);
    for (std::size_t i = before; i < expired.size(); ++i)
      EXPECT_EQ(expired[i].entry + kWindow + 1, now) << "entry " << i;
    EXPECT_NO_THROW(cache.check_invariants());
  }
  ASSERT_EQ(expired.size(), 4u);
  // Stripe by stripe in booking order, entries in grant order.
  EXPECT_EQ(expired[0].stripe, 0u);
  EXPECT_EQ(expired[0].box, 1u);
  EXPECT_EQ(expired[1].box, 4u);
  EXPECT_EQ(expired[2].stripe, 1u);
  EXPECT_EQ(expired[2].box, 2u);
  EXPECT_EQ(expired[3].box, 3u);
  EXPECT_EQ(expired[3].entry, 2);
  EXPECT_EQ(cache.entry_count(), 0u);

  // A grant already outside the window is dropped (and reported) by the
  // next prune.
  cache.grant(1, 5, /*entry=*/2);
  expired.clear();
  cache.prune(10, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].box, 5u);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(CacheIndex, EntryDeadWithItsBoxIsNeverReported) {
  // Box 1's entry at round 3 (leaving at 7) dies with the box; the box
  // returns and earns a new entry on the same stripe at round 4 (leaving at
  // 8). Nothing is reported at 7, the new entry is reported at 8.
  s::CacheIndex cache(1, /*window=*/3);
  cache.grant(0, 1, 3);
  std::vector<s::CacheIndex::Entry> expired;
  cache.prune(5, &expired);
  std::vector<m::StripeId> affected;
  EXPECT_EQ(cache.remove_box(1, &affected), 1u);
  EXPECT_EQ(affected, std::vector<m::StripeId>{0});
  cache.grant(0, 1, 4);
  cache.prune(6, &expired);
  cache.prune(7, &expired);
  EXPECT_TRUE(expired.empty());
  EXPECT_EQ(cache.entry_count(), 1u);
  cache.prune(8, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].box, 1u);
  EXPECT_EQ(expired[0].entry, 4);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_NO_THROW(cache.check_invariants());
}

namespace {

/// Reference model for the differential test below: one vector per stripe
/// and a remove_box that sweeps every stripe. It answers every query the
/// way the pooled CacheIndex must.
class ReferenceCache {
 public:
  using Entry = s::CacheIndex::Entry;

  ReferenceCache(std::uint32_t stripe_count, m::Round window)
      : per_stripe_(stripe_count), window_(window) {}

  void grant(m::StripeId stripe, m::BoxId box, m::Round entry) {
    per_stripe_[stripe].push_back({stripe, box, entry});
    ++entries_;
    calendar_.emplace(entry + window_ + 1, stripe);
  }

  [[nodiscard]] std::vector<m::BoxId> servers(m::StripeId stripe,
                                              m::Round issue, m::Round now,
                                              m::BoxId exclude) const {
    std::vector<m::BoxId> out;
    for (const Entry& e : per_stripe_[stripe]) {
      if (e.entry >= now - window_ && e.entry < issue && e.box != exclude)
        out.push_back(e.box);
    }
    return out;
  }

  void prune(m::Round now, std::vector<Entry>& expired) {
    const m::Round oldest = now - window_;
    const auto gone = [oldest](const Entry& e) { return e.entry < oldest; };
    while (!calendar_.empty() && calendar_.top().first <= now) {
      auto& entries = per_stripe_[calendar_.top().second];
      calendar_.pop();
      std::copy_if(entries.begin(), entries.end(),
                   std::back_inserter(expired), gone);
      entries_ -= std::erase_if(entries, gone);
    }
  }

  std::uint64_t remove_box(m::BoxId box, std::vector<m::StripeId>& affected) {
    std::uint64_t removed = 0;
    for (m::StripeId stripe = 0; stripe < per_stripe_.size(); ++stripe) {
      const auto dropped = std::erase_if(
          per_stripe_[stripe], [box](const Entry& e) { return e.box == box; });
      if (dropped > 0) affected.push_back(stripe);
      removed += dropped;
    }
    entries_ -= removed;
    return removed;
  }

  [[nodiscard]] std::uint64_t entry_count() const { return entries_; }

 private:
  using Due = std::pair<m::Round, m::StripeId>;
  std::vector<std::vector<Entry>> per_stripe_;
  std::priority_queue<Due, std::vector<Due>, std::greater<>> calendar_;
  m::Round window_;
  std::uint64_t entries_ = 0;
};

using EntryKey = std::tuple<m::StripeId, m::BoxId, m::Round>;

std::vector<EntryKey> keys(const std::vector<s::CacheIndex::Entry>& entries) {
  std::vector<EntryKey> out;
  for (const auto& e : entries) out.emplace_back(e.stripe, e.box, e.entry);
  return out;
}

}  // namespace

TEST(CacheIndex, MatchesVectorOfVectorsReferenceUnderRandomOps) {
  // Seeded op sequences against the reference model: grants (relay-lagged
  // future entries, entries already outside the window, repeated (stripe,
  // box) pairs), a prune every round, and box removals (including boxes
  // that never held an entry, and boxes granted again after removal).
  // Every answer must match: collect_servers in the same order, expired
  // reports, affected lists, removed counts and entry_count.
  constexpr std::uint32_t kStripes = 61;
  constexpr m::BoxId kGrantedBoxes = 32;  // boxes 32..39 never hold entries
  constexpr m::BoxId kBoxes = 40;
  constexpr m::Round kWindow = 30;
  constexpr std::uint64_t kCompactFloor = 4096;
  for (const std::uint64_t seed : {0xCAC4Eull, 0x5EEDull}) {
    SCOPED_TRACE(seed);
    p2pvod::util::Rng rng(seed);
    s::CacheIndex cache(kStripes, kWindow);
    ReferenceCache reference(kStripes, kWindow);
    std::uint64_t peak = 0;

    const auto compare_stripe = [&](m::StripeId stripe, m::Round now) {
      for (const m::Round issue : {now - kWindow, now - 1, now, now + 3}) {
        for (const m::BoxId exclude :
             {m::kInvalidBox, static_cast<m::BoxId>(stripe % kGrantedBoxes)}) {
          std::vector<m::BoxId> got;
          const std::size_t appended =
              cache.collect_servers(stripe, issue, now, exclude, got);
          EXPECT_EQ(appended, got.size());
          ASSERT_EQ(got, reference.servers(stripe, issue, now, exclude))
              << "stripe " << stripe << " issue " << issue << " now " << now;
        }
      }
    };

    m::StripeId last_stripe = 0;
    m::BoxId last_box = 0;
    for (m::Round now = 0; now < 160; ++now) {
      // Build up past the compaction floor, then taper off to nothing.
      const std::uint64_t ops = now < 60 ? 300 : (now < 100 ? 40 : 0);
      for (std::uint64_t op = 0; op < ops; ++op) {
        if (rng.next_below(400) == 0) {
          const auto box = static_cast<m::BoxId>(rng.next_below(kBoxes));
          std::vector<m::StripeId> got;
          std::vector<m::StripeId> want;
          ASSERT_EQ(cache.remove_box(box, &got),
                    reference.remove_box(box, want));
          ASSERT_EQ(got, want) << "box " << box;
          for (const m::StripeId stripe : want) compare_stripe(stripe, now);
        } else {
          const bool repeat = rng.next_below(8) == 0;
          const m::StripeId stripe =
              repeat ? last_stripe
                     : static_cast<m::StripeId>(rng.next_below(kStripes));
          const m::BoxId box =
              repeat ? last_box
                     : static_cast<m::BoxId>(rng.next_below(kGrantedBoxes));
          // Mostly now-1..now+3 (relay lag); now and then already expired.
          const m::Round entry =
              rng.next_below(20) == 0
                  ? now - kWindow - 1
                  : now - 1 + static_cast<m::Round>(rng.next_below(5));
          cache.grant(stripe, box, entry);
          reference.grant(stripe, box, entry);
          last_stripe = stripe;
          last_box = box;
          compare_stripe(stripe, now);
        }
        ASSERT_EQ(cache.entry_count(), reference.entry_count());
        peak = std::max(peak, cache.entry_count());
      }

      std::vector<s::CacheIndex::Entry> got;
      std::vector<s::CacheIndex::Entry> want;
      cache.prune(now, &got);
      reference.prune(now, want);
      ASSERT_EQ(keys(got), keys(want)) << "prune at " << now;
      ASSERT_EQ(cache.entry_count(), reference.entry_count());
      for (m::StripeId stripe = 0; stripe < kStripes; ++stripe)
        compare_stripe(stripe, now);
      ASSERT_NO_THROW(cache.check_invariants()) << "after prune at " << now;
    }
    // The arena grew past the floor with the entries and, with every entry
    // gone, check_invariants() holds it to the floor: it compacted.
    EXPECT_GT(peak, kCompactFloor);
    EXPECT_EQ(cache.entry_count(), 0u);
  }
}

// ----------------------------------------------------------------- fixtures

namespace {

/// n boxes, one video with c stripes all stored on the last `holders` boxes,
/// k = holders. Simple hand-checkable world.
struct World {
  World(std::uint32_t n, std::uint32_t c, m::Round T, double u,
        std::uint32_t holder_count, std::uint32_t videos = 1)
      : catalog(videos, c, T),
        profile(m::CapacityProfile::homogeneous(n, u, 100.0)),
        allocation(build_allocation(n, videos, c, holder_count)) {}

  static a::Allocation build_allocation(std::uint32_t n, std::uint32_t videos,
                                        std::uint32_t c,
                                        std::uint32_t holder_count) {
    std::vector<a::Allocation::Placement> placements;
    for (std::uint32_t v = 0; v < videos; ++v) {
      for (std::uint32_t i = 0; i < c; ++i) {
        for (std::uint32_t h = 0; h < holder_count; ++h) {
          placements.push_back({n - 1 - h, v * c + i});
        }
      }
    }
    return a::Allocation(n, videos * c, std::move(placements));
  }

  m::Catalog catalog;
  m::CapacityProfile profile;
  a::Allocation allocation;
};

}  // namespace

// ----------------------------------------------------------------- strategy

TEST(Strategy, PreloadingStaggersRequests) {
  World world(4, 3, 12, 2.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  std::vector<s::PlannedRequest> plans;
  strategy.plan(/*box=*/0, /*video=*/0, /*ticket=*/1, /*now=*/5, sim, plans);
  ASSERT_EQ(plans.size(), 3u);
  int at_now = 0, at_next = 0;
  for (const auto& p : plans) {
    EXPECT_EQ(p.requester, 0u);
    if (p.issue == 5) {
      ++at_now;
      EXPECT_EQ(p.stripe, 1u);  // ticket 1 mod 3
    } else {
      EXPECT_EQ(p.issue, 6);
      ++at_next;
    }
  }
  EXPECT_EQ(at_now, 1);
  EXPECT_EQ(at_next, 2);
}

TEST(Strategy, PreloadIndexCyclesWithTicket) {
  World world(4, 3, 12, 2.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  for (std::uint64_t ticket = 0; ticket < 6; ++ticket) {
    std::vector<s::PlannedRequest> plans;
    strategy.plan(0, 0, ticket, 0, sim, plans);
    for (const auto& p : plans) {
      if (p.issue == 0) {
        EXPECT_EQ(p.stripe, ticket % 3);
      }
    }
  }
}

TEST(Strategy, NaiveIssuesEverythingNow) {
  World world(4, 3, 12, 2.0, 1);
  s::NaiveStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  std::vector<s::PlannedRequest> plans;
  strategy.plan(0, 0, 4, 7, sim, plans);
  ASSERT_EQ(plans.size(), 3u);
  for (const auto& p : plans) EXPECT_EQ(p.issue, 7);
}

TEST(Strategy, SkipsLocallyStoredStripes) {
  World world(4, 3, 12, 2.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  std::vector<s::PlannedRequest> plans;
  // Box 3 is the holder of all stripes: nothing to request.
  strategy.plan(3, 0, 0, 2, sim, plans);
  EXPECT_TRUE(plans.empty());
}

TEST(Strategy, FactoryNames) {
  EXPECT_EQ(s::make_strategy(s::StrategyKind::kPreloading)->name(),
            "preloading");
  EXPECT_EQ(s::make_strategy(s::StrategyKind::kNaive)->name(), "naive");
}

// ----------------------------------------------------------------- simulator

TEST(Simulator, SingleViewerServedByHolder) {
  World world(2, 1, 4, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});               // demand at round 0
  for (int t = 1; t < 8; ++t) sim.step({});
  const auto& report = sim.report();
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.demands_admitted, 1u);
  EXPECT_EQ(report.requests_issued, 1u);
  EXPECT_EQ(report.chunks_served, 4u);  // T = 4
  EXPECT_EQ(report.sessions_completed, 1u);
}

TEST(Simulator, CacheChainServesSecondViewer) {
  // One holder with capacity 1; two staggered viewers. The second must be
  // served from the first viewer's playback cache.
  World world(3, 1, 8, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});  // round 0: box 0 joins
  sim.step({{1, 0}});  // round 1: box 1 joins, must lean on box 0's cache
  for (int t = 2; t < 12; ++t) sim.step({});
  EXPECT_TRUE(sim.report().success);
  EXPECT_EQ(sim.report().sessions_completed, 2u);
}

TEST(Simulator, SimultaneousJoinersCannotShareCache) {
  // Same as above but both join in the same round: strict t_j < t_i means no
  // cache help, and the single holder slot cannot serve both.
  World world(3, 1, 8, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}, {1, 0}});
  EXPECT_FALSE(sim.report().success);
  EXPECT_EQ(sim.report().first_stall, 0);
  EXPECT_GE(sim.report().stall_witness_size, 2u);
  EXPECT_TRUE(sim.stalled());
}

TEST(Simulator, StalledStrictModeFreezes) {
  World world(3, 1, 8, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}, {1, 0}});
  const auto rounds = sim.report().rounds;
  sim.step({});  // no-op once stalled
  EXPECT_EQ(sim.report().rounds, rounds);
}

TEST(Simulator, NonStrictModeCountsStallsAndContinues) {
  World world(3, 1, 8, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.strict = false;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                   options);
  sim.step({{0, 0}, {1, 0}});
  for (int t = 1; t < 12; ++t) sim.step({});
  const auto& report = sim.report();
  EXPECT_TRUE(report.success);  // strict-mode flag untouched
  EXPECT_GT(report.chunks_stalled, 0u);
  EXPECT_LT(report.continuity(), 1.0);
  EXPECT_EQ(report.sessions_completed, 2u);  // positions advanced regardless
}

TEST(Simulator, BusyBoxRejectsSecondDemand) {
  World world(2, 1, 6, 1.0, 1, /*videos=*/2);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});
  sim.step({{0, 1}});  // still playing video 0
  EXPECT_EQ(sim.report().demands_admitted, 1u);
  EXPECT_EQ(sim.report().demands_rejected, 1u);
}

TEST(Simulator, BoxIdleAgainAfterPlayback) {
  World world(2, 1, 4, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});
  EXPECT_FALSE(sim.box_idle(0));
  // playback_start = 1, ends = 1 + 4 = 5: idle from round 5 on.
  for (int t = 1; t <= 5; ++t) sim.step({});
  EXPECT_TRUE(sim.box_idle(0));
  EXPECT_EQ(sim.report().sessions_completed, 1u);
  EXPECT_EQ(sim.swarms().size(0), 0u);
}

TEST(Simulator, StartupDelayIsThreeRoundsWithPreloading) {
  World world(4, 3, 12, 4.0, 2);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({});          // round 0 idle
  sim.step({{0, 0}});    // demand at round 1
  for (int t = 2; t < 6; ++t) sim.step({});
  const auto& delays = sim.report().startup_delay;
  ASSERT_EQ(delays.total(), 1u);
  // preload at 1, postponed at 2, playback at 3; arrival interval starts at
  // round 0 -> delay 3, the §3 constant.
  EXPECT_EQ(delays.min(), 3);
}

TEST(Simulator, StartupDelayIsTwoRoundsWithNaive) {
  World world(4, 3, 12, 4.0, 2);
  s::NaiveStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({});
  sim.step({{0, 0}});
  for (int t = 2; t < 6; ++t) sim.step({});
  EXPECT_EQ(sim.report().startup_delay.min(), 2);
}

TEST(Simulator, LocalPlaybackNeedsNoRequests) {
  World world(2, 2, 5, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{1, 0}});  // box 1 holds everything
  EXPECT_EQ(sim.report().requests_issued, 0u);
  EXPECT_FALSE(sim.box_idle(1));       // still "watching"
  EXPECT_EQ(sim.swarms().size(0), 1u);  // and in the swarm
  EXPECT_TRUE(sim.report().success);
}

TEST(Simulator, UtilizationBounded) {
  World world(4, 2, 6, 1.0, 2);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});
  sim.step({{1, 0}});
  for (int t = 2; t < 10; ++t) sim.step({});
  const auto& util = sim.report().upload_utilization;
  EXPECT_GT(util.count(), 0u);
  EXPECT_GE(util.min(), 0.0);
  EXPECT_LE(util.max(), 1.0);
}

TEST(Simulator, VerifyIncrementalAgainstReference) {
  World world(6, 2, 6, 1.5, 2, /*videos=*/3);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.verify_incremental = true;  // throws on disagreement
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                   options);
  sim.step({{0, 0}});
  sim.step({{1, 1}});
  sim.step({{2, 2}, {4, 0}});
  for (int t = 3; t < 16; ++t) sim.step({});
  EXPECT_TRUE(sim.report().success);
}

TEST(Simulator, CapacityOverrideRespected) {
  World world(3, 1, 8, 5.0, 1);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.capacity_override = {0, 0, 1};  // throttle the holder to 1 slot
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                   options);
  sim.step({{0, 0}, {1, 0}});  // two simultaneous joiners, one slot
  EXPECT_FALSE(sim.report().success);
}

TEST(Simulator, RejectsMismatchedCapacityOverride) {
  World world(3, 1, 8, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.capacity_override = {1};
  EXPECT_THROW(s::Simulator(world.catalog, world.profile, world.allocation,
                            strategy, options),
               std::invalid_argument);
}

TEST(Simulator, UnknownDemandThrows) {
  World world(2, 1, 4, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  EXPECT_THROW(sim.step({{0, 9}}), std::out_of_range);
  EXPECT_THROW(sim.step({{9, 0}}), std::out_of_range);
}

TEST(Simulator, RunDrivesGeneratorUntilStall) {
  World world(3, 1, 8, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  w::Trace trace;
  trace.add(0, 0, 0);
  trace.add(3, 1, 0);  // staggered: feasible via cache
  w::TraceReplay replay(trace);
  const auto report = sim.run(replay, 20);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.demands_admitted, 2u);
  EXPECT_EQ(report.rounds, 20);
}

TEST(Simulator, ReportSummaryMentionsOutcome) {
  World world(2, 1, 4, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});
  EXPECT_NE(sim.report().summary().find("SUCCESS"), std::string::npos);
}

TEST(Simulator, ActiveRequestsTracked) {
  World world(4, 2, 6, 2.0, 2);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});          // preload active
  EXPECT_EQ(sim.active_request_count(), 1u);
  sim.step({});                 // postponed joins
  EXPECT_EQ(sim.active_request_count(), 2u);
}

// Routes every demand's single stripe download through box 0 (a relay, in
// the §4 sense) whatever box is watching, and records the tickets it saw.
class ThroughBoxZero final : public s::RequestStrategy {
 public:
  void plan(m::BoxId /*b*/, m::VideoId v, std::uint64_t ticket, m::Round now,
            s::Simulator& sim, std::vector<s::PlannedRequest>& out) override {
    tickets.push_back(ticket);
    out.push_back(
        s::PlannedRequest::direct(0, sim.catalog().stripe_id(v, 0), now));
  }
  [[nodiscard]] std::string name() const override { return "through-box-0"; }

  std::vector<std::uint64_t> tickets;
};

TEST(Simulator, RolledBackAdmissionLeavesNoSwarmTrace) {
  // A plan whose requester is offline rejects the demand after the viewer
  // already entered the swarm. The rollback must undo the ticket and the
  // peak too, or the next viewer's preload stripe (ticket % c) shifts.
  World world(4, 1, 6, 2.0, 1);
  ThroughBoxZero strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.set_box_online(0, false);
  sim.step({{1, 0}, {2, 0}});
  EXPECT_EQ(sim.report().demands_rejected, 2u);
  EXPECT_EQ(sim.report().demands_admitted, 0u);
  EXPECT_EQ(sim.report().peak_swarm, 0u);
  EXPECT_EQ(sim.swarms().size(0), 0u);
  EXPECT_EQ(sim.swarms().total_entries(0), 0u);

  sim.set_box_online(0, true);
  sim.step({{1, 0}});
  EXPECT_EQ(sim.report().demands_admitted, 1u);
  ASSERT_EQ(strategy.tickets.size(), 3u);
  EXPECT_EQ(strategy.tickets.back(), 0u);
  EXPECT_EQ(sim.report().peak_swarm, 1u);
  EXPECT_NO_THROW(sim.check_invariants());
}

// Plans the demanded video's two stripes for the viewer itself; the second
// plan is malformed as `fault` says, so admission must throw.
class MalformedSecondPlan final : public s::RequestStrategy {
 public:
  enum class Fault { kNone, kPastIssue, kUnknownStripe, kUnknownGrantBox };

  void plan(m::BoxId b, m::VideoId v, std::uint64_t /*ticket*/, m::Round now,
            s::Simulator& sim, std::vector<s::PlannedRequest>& out) override {
    out.push_back(
        s::PlannedRequest::direct(b, sim.catalog().stripe_id(v, 0), now + 1));
    s::PlannedRequest second =
        s::PlannedRequest::direct(b, sim.catalog().stripe_id(v, 1), now + 1);
    switch (fault) {
      case Fault::kNone:
        break;
      case Fault::kPastIssue:
        second.issue = now - 1;
        break;
      case Fault::kUnknownStripe:
        second.stripe = sim.catalog().stripe_count();
        break;
      case Fault::kUnknownGrantBox:
        second.grants.push_back(
            {static_cast<m::BoxId>(sim.profile().size()), now});
        break;
    }
    out.push_back(second);
  }
  [[nodiscard]] std::string name() const override { return "malformed"; }

  Fault fault = Fault::kNone;
};

TEST(Simulator, MalformedPlanLeavesNoHalfAdmittedSession) {
  using Fault = MalformedSecondPlan::Fault;
  for (const bool sparse : {false, true}) {
    for (const Fault fault :
         {Fault::kPastIssue, Fault::kUnknownStripe, Fault::kUnknownGrantBox}) {
      SCOPED_TRACE(std::string(sparse ? "sparse" : "dense") + " fault " +
                   std::to_string(static_cast<int>(fault)));
      World world(4, 2, 6, 2.0, 1);
      MalformedSecondPlan strategy;
      strategy.fault = fault;
      s::SimulatorOptions options;
      options.sparse = sparse;
      s::Simulator sim(world.catalog, world.profile, world.allocation,
                       strategy, options);
      EXPECT_THROW(sim.step({{0, 0}}), std::logic_error);
      EXPECT_NO_THROW(sim.check_invariants());
      EXPECT_TRUE(sim.box_idle(0));
      EXPECT_EQ(sim.swarms().size(0), 0u);
      EXPECT_EQ(sim.report().demands_admitted, 0u);

      // The same demand, well-formed, is admitted and played to the end.
      strategy.fault = Fault::kNone;
      sim.step({{0, 0}});
      EXPECT_EQ(sim.report().demands_admitted, 1u);
      for (int round = 0; round < 10; ++round) {
        sim.step({});
        EXPECT_NO_THROW(sim.check_invariants());
      }
      EXPECT_TRUE(sim.report().success);
      EXPECT_EQ(sim.report().sessions_completed, 1u);
      EXPECT_EQ(sim.report().chunks_served, 2u * 6u);
    }
  }
}

// ------------------------------------------- run ledger and invariants

namespace {

/// One small run per configuration the round loop distinguishes.
struct LedgerRun {
  bool sparse = false;
  bool strict = false;
  bool verify = false;         ///< verify_incremental: step() checks too
  double fail_prob = 0.0;      ///< per-box per-round online/offline flip
  std::uint32_t zones = 0;     ///< 0 = no topology
  std::uint32_t link_cap = 0;  ///< per directed zone link; 0 = uncapped
  double upload = 1.5;
  std::uint32_t replicas = 4;
  double demand_prob = 0.3;
};

LedgerRun dense_run() { return {}; }

LedgerRun sparse_churn_run() {
  LedgerRun run;
  run.sparse = true;
  run.fail_prob = 0.03;
  return run;
}

LedgerRun zone_link_cap_run() {
  LedgerRun run;
  run.zones = 12;
  run.link_cap = 1;
  return run;
}

LedgerRun strict_stall_run() {
  LedgerRun run;
  run.strict = true;
  run.upload = 1.0;
  run.replicas = 2;
  run.demand_prob = 0.9;
  return run;
}

/// Drives 40 rounds of Zipf demand (plus seeded churn) and calls
/// after_step(sim) after every step; returns the final report.
template <typename AfterStep>
s::RunReport drive(const LedgerRun& run, AfterStep after_step) {
  constexpr std::uint32_t kBoxes = 48;
  constexpr std::uint32_t kVideos = 16;
  const m::Catalog catalog(kVideos, 4, 8);
  const auto profile = m::CapacityProfile::homogeneous(kBoxes, run.upload, 8.0);
  p2pvod::util::Rng alloc_rng(7);
  const a::Allocation allocation = a::PermutationAllocator().allocate(
      catalog, profile, run.replicas, alloc_rng);
  std::optional<p2pvod::net::Topology> topology;
  s::SimulatorOptions options;
  options.sparse = run.sparse;
  options.strict = run.strict;
  options.verify_incremental = run.verify;
  if (run.zones > 0) {
    topology = p2pvod::net::Topology::uniform(kBoxes, run.zones);
    if (run.link_cap > 0) topology->set_uniform_link_cap(run.link_cap);
    options.topology = &*topology;
  }
  s::PreloadingStrategy strategy;
  s::Simulator sim(catalog, profile, allocation, strategy, options);
  w::ZipfDemand audience(kVideos, 0.8, run.demand_prob, 11);
  p2pvod::util::Rng churn_rng(13);
  for (m::Round t = 0; t < 40; ++t) {
    for (m::BoxId b = 0; run.fail_prob > 0 && b < kBoxes; ++b) {
      if (churn_rng.next_bool(run.fail_prob))
        sim.set_box_online(b, !sim.box_online(b));
    }
    sim.step(audience.demands(sim));
    after_step(sim);
    if (sim.stalled() && run.strict) break;
  }
  return sim.report();
}

using R = s::RunReport;

template <auto Field>
std::uint64_t field(const R& report) {
  return static_cast<std::uint64_t>(report.*Field);
}

/// Which RunReport field each sim/* counter mirrors (sparse_only entries are
/// fed by the sparse engine alone).
struct LedgerEntry {
  const char* counter;
  std::uint64_t (*field)(const R&);
  bool sparse_only;
};

const std::vector<LedgerEntry>& ledger() {
  static const std::vector<LedgerEntry> entries = {
      {"sim/rounds", field<&R::rounds>, false},
      {"sim/demands_admitted", field<&R::demands_admitted>, false},
      {"sim/demands_rejected", field<&R::demands_rejected>, false},
      {"sim/chunks_matched", field<&R::chunks_served>, false},
      {"sim/chunks_unmatched", field<&R::chunks_stalled>, false},
      {"sim/matcher_edges", field<&R::matcher_edges>, false},
      {"sim/intra_zone_chunks", field<&R::intra_zone_chunks>, false},
      {"sim/cross_zone_chunks", field<&R::cross_zone_chunks>, false},
      {"sim/link_cap_rejections", field<&R::link_cap_rejections>, false},
      {"sim/link_cap_rescues", field<&R::link_cap_rescues>, false},
      {"sim/sparse_rows_built", field<&R::rows_built>, true},
      {"sim/sparse_row_patches", field<&R::row_patches>, true},
      {"sim/sparse_full_rebuilds", field<&R::sparse_full_rebuilds>, true},
      {"sim/sparse_expiry_events", field<&R::sparse_expiry_events>, true},
      {"sim/sparse_kept_connections", field<&R::kept_connections>, true},
      {"sim/sparse_new_connections", field<&R::new_connections>, true},
  };
  return entries;
}

std::uint64_t counter_value(const p2pvod::obs::MetricsSnapshot& snapshot,
                            const std::string& name) {
  const auto it = snapshot.values.find(name);
  return it == snapshot.values.end() ? 0 : it->second.count;
}

/// After every step, every sim/* counter moved by exactly the step's delta
/// of the RunReport field it mirrors (sparse_* by zero on dense runs), and
/// the active-request histogram took one observation of the round's |Y|.
s::RunReport check_ledger(const LedgerRun& run) {
  auto& registry = p2pvod::obs::MetricsRegistry::global();
  auto before = registry.snapshot();
  s::RunReport last;
  return drive(run, [&](const s::Simulator& sim) {
    const auto after = registry.snapshot();
    const s::RunReport& now = sim.report();
    for (const LedgerEntry& entry : ledger()) {
      const std::uint64_t moved = counter_value(after, entry.counter) -
                                  counter_value(before, entry.counter);
      std::uint64_t expected = entry.field(now) - entry.field(last);
      if (entry.sparse_only && !run.sparse) expected = 0;
      EXPECT_EQ(moved, expected)
          << entry.counter << " at round " << now.rounds - 1;
    }
    const auto& hist_after = after.values.at("sim/round_active_requests");
    const auto hist_before = before.values.find("sim/round_active_requests");
    const std::uint64_t count_before =
        hist_before == before.values.end() ? 0 : hist_before->second.count;
    const std::uint64_t sum_before =
        hist_before == before.values.end() ? 0 : hist_before->second.sum;
    EXPECT_EQ(hist_after.count - count_before, 1u);
    EXPECT_EQ(static_cast<double>(hist_after.sum - sum_before),
              now.active_requests.sum() - last.active_requests.sum());
    before = after;
    last = now;
  });
}

/// With verify_incremental, step() itself runs check_invariants() (and
/// keeps the first stall's problem for the Hall check); the explicit call
/// after each step re-checks from outside the round loop.
s::RunReport check_invariants_every_step(LedgerRun run) {
  run.verify = true;
  return drive(run, [](const s::Simulator& sim) {
    EXPECT_NO_THROW(sim.check_invariants()) << "round " << sim.now();
  });
}

}  // namespace

TEST(SimLedger, DenseCountersMirrorReport) {
  const auto report = check_ledger(dense_run());
  EXPECT_GT(report.chunks_served, 0u);
}

TEST(SimLedger, SparseChurnCountersMirrorReport) {
  const auto report = check_ledger(sparse_churn_run());
  EXPECT_GT(report.box_failures, 0u);
  EXPECT_GT(report.rows_built, 0u);
}

TEST(SimLedger, ZoneLinkCapCountersMirrorReport) {
  const auto report = check_ledger(zone_link_cap_run());
  EXPECT_GT(report.cross_zone_chunks, 0u);
  EXPECT_GT(report.link_cap_rejections, 0u);
}

TEST(SimLedger, StrictStallCountersMirrorReport) {
  const auto report = check_ledger(strict_stall_run());
  EXPECT_FALSE(report.success);
  EXPECT_GT(report.chunks_stalled, 0u);
}

TEST(SimInvariants, HoldEveryRoundDense) {
  EXPECT_TRUE(check_invariants_every_step(dense_run()).success);
}

TEST(SimInvariants, HoldEveryRoundSparseChurn) {
  const auto report = check_invariants_every_step(sparse_churn_run());
  EXPECT_GT(report.sessions_aborted, 0u);
}

TEST(SimInvariants, HoldEveryRoundZoneLinkCaps) {
  const auto report = check_invariants_every_step(zone_link_cap_run());
  EXPECT_GT(report.link_cap_rejections, 0u);
}

TEST(SimInvariants, HoldThroughStrictStall) {
  const auto report = check_invariants_every_step(strict_stall_run());
  EXPECT_GE(report.first_stall, 0);
  EXPECT_GT(report.stall_witness_size, 0u);
}
