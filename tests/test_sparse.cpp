// Tests for the million-box sparse round path: CsrProblem delta maintenance,
// CsrMatcher incremental repair, validate_assignment (the strengthened
// verify_incremental check), the ±delta capacity bookkeeping under churn, and
// dense-vs-sparse lockstep equivalence across churn / strict / override /
// rebuild-fallback / stale-grant configurations.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc/allocation.hpp"
#include "alloc/permutation.hpp"
#include "flow/bipartite.hpp"
#include "flow/csr_matcher.hpp"
#include "flow/csr_problem.hpp"
#include "flow/verify.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "sim/sparse_round.hpp"
#include "sim/strategy.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace s = p2pvod::sim;
namespace m = p2pvod::model;
namespace a = p2pvod::alloc;
namespace f = p2pvod::flow;
namespace w = p2pvod::workload;

// ------------------------------------------------------------- CsrProblem

TEST(CsrProblem, AddSourceKeepsRowsSortedUnique) {
  f::CsrProblem csr;
  csr.ensure_row(0);
  csr.add_source(0, 5);
  csr.add_source(0, 2);
  csr.add_source(0, 9);
  csr.add_source(0, 2);  // duplicate source of box 2: count bump, no new edge
  const auto row = csr.row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], 2u);
  EXPECT_EQ(row[1], 5u);
  EXPECT_EQ(row[2], 9u);
  EXPECT_EQ(csr.edge_count(), 3u);
  EXPECT_TRUE(csr.contains(0, 5));
  EXPECT_FALSE(csr.contains(0, 4));
}

TEST(CsrProblem, RemoveSourceHonorsCounts) {
  f::CsrProblem csr;
  csr.ensure_row(0);
  csr.add_source(0, 2);
  csr.add_source(0, 2);
  // First removal drops one of two sources: box 2 stays a candidate.
  EXPECT_FALSE(csr.remove_source(0, 2));
  EXPECT_TRUE(csr.contains(0, 2));
  EXPECT_EQ(csr.edge_count(), 1u);
  // Second removal exhausts the count: the box leaves the row.
  EXPECT_TRUE(csr.remove_source(0, 2));
  EXPECT_FALSE(csr.contains(0, 2));
  EXPECT_EQ(csr.edge_count(), 0u);
  // A miss is a tolerated no-op (the row was rebuilt since the grant).
  EXPECT_FALSE(csr.remove_source(0, 7));
}

TEST(CsrProblem, RemoveBoxDropsAllSourcesAtOnce) {
  f::CsrProblem csr;
  csr.ensure_row(0);
  csr.add_source(0, 4);
  csr.add_source(0, 4);
  csr.add_source(0, 4);
  csr.add_source(0, 6);
  csr.remove_box(0, 4);
  EXPECT_FALSE(csr.contains(0, 4));
  EXPECT_TRUE(csr.contains(0, 6));
  EXPECT_EQ(csr.edge_count(), 1u);
  csr.remove_box(0, 99);  // miss: no-op
  EXPECT_EQ(csr.edge_count(), 1u);
}

TEST(CsrProblem, AssignRowReplacesAndClearRowEmpties) {
  f::CsrProblem csr;
  csr.ensure_row(1);
  csr.add_source(1, 3);
  const std::vector<std::uint32_t> boxes = {1, 4, 8};
  const std::vector<std::uint32_t> counts = {1, 2, 1};
  csr.assign_row(1, boxes, counts);
  ASSERT_EQ(csr.row(1).size(), 3u);
  EXPECT_FALSE(csr.contains(1, 3));
  EXPECT_TRUE(csr.contains(1, 4));
  EXPECT_EQ(csr.edge_count(), 3u);
  // Counted membership survives the bulk assignment.
  EXPECT_FALSE(csr.remove_source(1, 4));
  EXPECT_TRUE(csr.remove_source(1, 4));
  csr.clear_row(1);
  EXPECT_EQ(csr.row(1).size(), 0u);
  EXPECT_EQ(csr.edge_count(), 0u);
}

TEST(CsrProblem, RelocationAndCompactionStress) {
  // Interleaved growth across rows forces relocations; periodic clears leave
  // abandoned spans that compaction must fold without corrupting survivors.
  // A per-row reference map is the ground truth.
  f::CsrProblem csr;
  constexpr std::uint32_t kRows = 5;
  std::vector<std::map<std::uint32_t, std::uint32_t>> truth(kRows);
  for (std::uint32_t r = 0; r < kRows; ++r) csr.ensure_row(r);
  p2pvod::util::Rng rng(0xC5A11);
  for (std::uint32_t step = 0; step < 4000; ++step) {
    const auto r = static_cast<std::uint32_t>(rng.next_below(kRows));
    const auto box = static_cast<std::uint32_t>(rng.next_below(64));
    const double roll = rng.next_double();
    if (roll < 0.60) {
      csr.add_source(r, box);
      ++truth[r][box];
    } else if (roll < 0.90) {
      const bool left = csr.remove_source(r, box);
      auto it = truth[r].find(box);
      if (it == truth[r].end()) {
        EXPECT_FALSE(left);
      } else {
        EXPECT_EQ(left, it->second == 1);
        if (--it->second == 0) truth[r].erase(it);
      }
    } else {
      csr.clear_row(r);
      truth[r].clear();
    }
  }
  std::uint64_t edges = 0;
  for (std::uint32_t r = 0; r < kRows; ++r) {
    const auto row = csr.row(r);
    ASSERT_EQ(row.size(), truth[r].size()) << "row " << r;
    std::size_t i = 0;
    for (const auto& [box, count] : truth[r]) {
      EXPECT_EQ(row[i], box) << "row " << r << " slot " << i;
      (void)count;
      ++i;
    }
    edges += row.size();
  }
  EXPECT_EQ(csr.edge_count(), edges);
  // Compaction keeps the pool proportional to live content, not churn.
  EXPECT_LT(csr.pool_size(), 8192u);
}

// ------------------------------------------------------------- CsrMatcher

TEST(CsrMatcher, AugmentDisplacesAlongAlternatingPath) {
  f::CsrProblem csr;
  csr.ensure_row(1);
  csr.add_source(0, 0);  // row 0 can only use box 0
  csr.add_source(1, 0);  // row 1 can use either
  csr.add_source(1, 1);
  const std::vector<std::uint32_t> cap = {1, 1};
  f::CsrMatcher matcher(2);
  matcher.ensure_rows(2);
  // Row 1 grabs box 0 first (sorted candidate order)...
  EXPECT_TRUE(matcher.augment(csr, cap, 1));
  EXPECT_EQ(matcher.assignment(1), 0);
  // ...so serving row 0 must displace row 1 onto box 1.
  EXPECT_TRUE(matcher.augment(csr, cap, 0));
  EXPECT_EQ(matcher.assignment(0), 0);
  EXPECT_EQ(matcher.assignment(1), 1);
  EXPECT_EQ(matcher.degree(0), 1u);
  EXPECT_EQ(matcher.degree(1), 1u);
}

TEST(CsrMatcher, AugmentFailsWhenNoPathExists) {
  f::CsrProblem csr;
  csr.ensure_row(1);
  csr.add_source(0, 0);
  csr.add_source(1, 0);
  const std::vector<std::uint32_t> cap = {1, 0};
  f::CsrMatcher matcher(2);
  matcher.ensure_rows(2);
  EXPECT_TRUE(matcher.augment(csr, cap, 0));
  EXPECT_FALSE(matcher.augment(csr, cap, 1));
  EXPECT_EQ(matcher.assignment(1), -1);
  EXPECT_EQ(matcher.assignment(0), 0);  // failed search left the matching alone
}

TEST(CsrMatcher, UnassignBoxReleasesItsRows) {
  f::CsrProblem csr;
  csr.ensure_row(2);
  csr.add_source(0, 0);
  csr.add_source(1, 0);
  csr.add_source(2, 1);
  const std::vector<std::uint32_t> cap = {2, 1};
  f::CsrMatcher matcher(2);
  matcher.ensure_rows(3);
  EXPECT_TRUE(matcher.augment(csr, cap, 0));
  EXPECT_TRUE(matcher.augment(csr, cap, 1));
  EXPECT_TRUE(matcher.augment(csr, cap, 2));
  std::vector<std::uint32_t> hit;
  matcher.unassign_box(0, hit);
  ASSERT_EQ(hit.size(), 2u);
  EXPECT_EQ(matcher.assignment(0), -1);
  EXPECT_EQ(matcher.assignment(1), -1);
  EXPECT_EQ(matcher.assignment(2), 1);
  EXPECT_EQ(matcher.degree(0), 0u);
}

TEST(CsrMatcher, ExhaustiveAugmentationMatchesDenseSolve) {
  // Berge: augmenting every unmatched row from any partial matching reaches a
  // maximum matching — so the served count must equal ConnectionProblem's.
  p2pvod::util::Rng rng(0xBE26E);
  for (int trial = 0; trial < 20; ++trial) {
    constexpr std::uint32_t kBoxes = 16;
    const auto rows = static_cast<std::uint32_t>(rng.next_between(1, 40));
    f::CsrProblem csr;
    csr.ensure_row(rows - 1);
    f::ConnectionProblem dense(kBoxes);
    std::vector<std::uint32_t> cap(kBoxes);
    for (auto& c : cap) c = static_cast<std::uint32_t>(rng.next_below(4));
    dense.set_capacities(cap);
    for (std::uint32_t r = 0; r < rows; ++r) {
      std::vector<std::uint32_t> cands;
      for (std::uint32_t b = 0; b < kBoxes; ++b) {
        if (rng.next_bool(0.25)) {
          csr.add_source(r, b);
          cands.push_back(b);
        }
      }
      dense.add_request(std::move(cands));
    }
    f::CsrMatcher matcher(kBoxes);
    matcher.ensure_rows(rows);
    std::uint32_t served = 0;
    for (std::uint32_t r = 0; r < rows; ++r) {
      if (matcher.augment(csr, cap, r)) ++served;
    }
    EXPECT_EQ(served, dense.solve().served) << "trial " << trial;
  }
}

// ----------------------------------------------------- validate_assignment

namespace {

/// 2 boxes (caps 1 and 2), three requests; request 1 can use either box.
f::ConnectionProblem tiny_problem() {
  f::ConnectionProblem problem(2);
  problem.set_capacity(0, 1);
  problem.set_capacity(1, 2);
  problem.add_request({0});
  problem.add_request({0, 1});
  problem.add_request({1});
  return problem;
}

}  // namespace

TEST(ValidateAssignment, AcceptsSolverOutput) {
  const auto problem = tiny_problem();
  const auto result = problem.solve();
  EXPECT_NO_THROW(f::validate_assignment(problem, result));
}

TEST(ValidateAssignment, RejectsServerOutsideCandidateSet) {
  // Regression for the verifier bugfix: same served count as a correct
  // matching, but request 1's server is not in its candidate set. The old
  // served-count-only check accepted exactly this.
  const auto problem = tiny_problem();
  f::MatchResult bogus;
  bogus.assignment = {0, 2, 1};  // box 2 does not exist for request 1
  bogus.served = 3;
  bogus.complete = true;
  EXPECT_THROW(f::validate_assignment(problem, bogus), std::logic_error);
  f::MatchResult off_list;
  off_list.assignment = {0, 1, 1};
  off_list.served = 3;
  off_list.complete = true;
  // request 0 assigned box 1, which is not a candidate of request 0
  off_list.assignment = {1, 0, 1};
  try {
    f::validate_assignment(problem, off_list);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("request 0"), std::string::npos)
        << e.what();
  }
}

TEST(ValidateAssignment, RejectsCapacityOverflow) {
  const auto problem = tiny_problem();
  f::MatchResult bogus;
  bogus.assignment = {0, 0, 1};  // box 0 (cap 1) serves two requests
  bogus.served = 3;
  bogus.complete = true;
  try {
    f::validate_assignment(problem, bogus);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("box 0"), std::string::npos)
        << e.what();
  }
}

TEST(ValidateAssignment, RejectsBookkeepingMismatches) {
  const auto problem = tiny_problem();
  f::MatchResult wrong_count;
  wrong_count.assignment = {0, 1, 1};
  wrong_count.served = 2;  // actually 3 matched
  wrong_count.complete = false;
  EXPECT_THROW(f::validate_assignment(problem, wrong_count), std::logic_error);
  f::MatchResult wrong_len;
  wrong_len.assignment = {0, 1};
  wrong_len.served = 2;
  wrong_len.complete = false;
  EXPECT_THROW(f::validate_assignment(problem, wrong_len), std::logic_error);
  f::MatchResult wrong_flag;
  wrong_flag.assignment = {0, 1, -1};
  wrong_flag.served = 2;
  wrong_flag.complete = true;  // request 2 is unserved
  EXPECT_THROW(f::validate_assignment(problem, wrong_flag), std::logic_error);
}

// -------------------------------------------------------- SparseRoundState

TEST(SparseRoundState, OnExpireRetiresCacheSources) {
  // Box 2 holds stripe 0 statically but cannot upload; box 1's cache entry
  // (entry 0) serves the request issued at 2 until CacheIndex reports it
  // expired.
  s::SparseRoundState state(/*box_count=*/3, /*stripe_count=*/1);
  std::vector<s::CacheIndex::Entry> cache;
  const auto collect = [&](m::StripeId, m::Round issue, m::BoxId requester,
                           std::vector<m::BoxId>& out) {
    if (requester != 2) out.push_back(2);
    for (const auto& e : cache) {
      if (e.entry < issue && e.box != requester) out.push_back(e.box);
    }
  };
  const std::vector<std::uint32_t> cap = {1, 1, 0};
  const auto slot = state.add_request(/*stripe=*/0, /*issue=*/2,
                                      /*requester=*/0);
  EXPECT_EQ(state.solve(cap, collect), 0u);
  // Two grants reach the clean row; only box 1's is a source of it (the
  // requester's own entry never serves itself).
  cache.push_back({/*stripe=*/0, /*box=*/1, /*entry=*/0});
  cache.push_back({/*stripe=*/0, /*box=*/0, /*entry=*/1});
  for (const auto& e : cache) state.on_grant(e.stripe, e.box, e.entry);
  EXPECT_EQ(state.stats().row_patches, 1u);
  EXPECT_EQ(state.solve(cap, collect), 1u);
  EXPECT_EQ(state.assignment(slot), 1);
  // A request arriving now is dirty: the expiry skips its row, whose rebuild
  // reads ground truth (which no longer has the entries).
  (void)state.add_request(0, /*issue=*/3, /*requester=*/0);
  const std::vector<s::CacheIndex::Entry> expired = cache;
  cache.clear();
  state.on_expire(expired);
  EXPECT_EQ(state.stats().expiry_events, 2u);
  EXPECT_EQ(state.stats().row_patches, 2u);
  EXPECT_EQ(state.assignment(slot), -1);  // its server left the row
  EXPECT_EQ(state.solve(cap, collect), 0u);
  EXPECT_EQ(state.edge_count(), 2u);  // the static holder, in both rows
}

TEST(SparseRoundState, DirtyFractionTriggersFullRebuild) {
  s::SparseRoundState state(4, 2);
  const auto collect = [&](m::StripeId stripe, m::Round, m::BoxId,
                           std::vector<m::BoxId>& out) {
    out.push_back(stripe == 0 ? 2u : 3u);
  };
  const std::vector<std::uint32_t> cap = {1, 1, 1, 1};
  (void)state.add_request(0, 1, 0);
  (void)state.add_request(1, 1, 1);
  // First solve: every row is new (dirty == live), not a fallback trip.
  EXPECT_EQ(state.solve(cap, collect), 2u);
  EXPECT_EQ(state.stats().full_rebuilds, 0u);
  EXPECT_EQ(state.stats().rows_built, 2u);
  // One arrival dirties 1 of 3 rows: only that row is collected.
  (void)state.add_request(0, 2, 1);
  EXPECT_EQ(state.solve(cap, collect), 2u);  // caps bind
  EXPECT_EQ(state.stats().full_rebuilds, 0u);
  EXPECT_EQ(state.stats().rows_built, 3u);
  // A burst of four arrivals dirties 4 of 7 rows, past kRebuildFraction:
  // every live row is rebuilt.
  for (m::BoxId requester = 0; requester < 4; ++requester)
    (void)state.add_request(1, 3, requester);
  EXPECT_EQ(state.solve(cap, collect), 2u);
  EXPECT_EQ(state.stats().full_rebuilds, 1u);
  EXPECT_EQ(state.stats().rows_built, 10u);  // 3 + all 7 live rows
  EXPECT_EQ(state.live_rows(), 7u);
}

// ------------------------------------------- churn capacity ±delta (bugfix)

TEST(Churn, CapacityTotalTracksToggleSequence) {
  // Regression for the O(n) rescan bugfix: total_capacity_slots() must equal
  // a fresh per-box sum after any sequence of offline/online toggles,
  // including repeated no-op toggles.
  const m::Catalog catalog(1, 4, 12);
  const auto profile = m::CapacityProfile::homogeneous(8, 1.5, 100.0);
  std::vector<a::Allocation::Placement> placements;
  for (std::uint32_t i = 0; i < 4; ++i) placements.push_back({7, i});
  const a::Allocation allocation(8, 4, std::move(placements));
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.strict = false;
  s::Simulator sim(catalog, profile, allocation, strategy, options);
  const auto rescan = [&sim] {
    std::uint64_t total = 0;
    for (m::BoxId b = 0; b < 8; ++b) total += sim.capacity_slots(b);
    return total;
  };
  EXPECT_EQ(sim.total_capacity_slots(), rescan());
  EXPECT_EQ(sim.capacity_slots(0), 6u);  // ⌊1.5·4⌋
  sim.set_box_online(3, false);
  EXPECT_EQ(sim.total_capacity_slots(), rescan());
  sim.set_box_online(3, false);  // repeated: must not double-subtract
  EXPECT_EQ(sim.total_capacity_slots(), rescan());
  sim.set_box_online(5, false);
  sim.set_box_online(3, true);
  sim.set_box_online(3, true);  // repeated: must not double-add
  EXPECT_EQ(sim.total_capacity_slots(), rescan());
  EXPECT_EQ(sim.capacity_slots(3), 6u);
  sim.set_box_online(5, true);
  EXPECT_EQ(sim.total_capacity_slots(), rescan());
  EXPECT_EQ(sim.total_capacity_slots(), 48u);
}

TEST(Churn, CapacityDeltaRespectsOverride) {
  const m::Catalog catalog(1, 4, 12);
  const auto profile = m::CapacityProfile::homogeneous(4, 2.0, 100.0);
  std::vector<a::Allocation::Placement> placements;
  for (std::uint32_t i = 0; i < 4; ++i) placements.push_back({3, i});
  const a::Allocation allocation(4, 4, std::move(placements));
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.strict = false;
  options.capacity_override = {1, 2, 3, 4};
  s::Simulator sim(catalog, profile, allocation, strategy, options);
  EXPECT_EQ(sim.total_capacity_slots(), 10u);
  sim.set_box_online(2, false);
  EXPECT_EQ(sim.total_capacity_slots(), 7u);
  EXPECT_EQ(sim.capacity_slots(2), 0u);
  sim.set_box_online(2, true);
  // Recovery restores the override value, not the profile's ⌊u·c⌋.
  EXPECT_EQ(sim.capacity_slots(2), 3u);
  EXPECT_EQ(sim.total_capacity_slots(), 10u);
}

// ----------------------------------------- dense vs sparse lockstep twins

namespace {

struct TwinConfig {
  std::uint32_t boxes = 48;
  std::uint32_t videos = 24;
  std::uint32_t chunks = 4;   // c
  m::Round duration = 12;     // T
  double upload = 2.0;        // u
  std::uint32_t replicas = 6; // k
  double alpha = 0.8;
  double demand_prob = 0.25;
  m::Round rounds = 40;
  std::uint64_t seed = 0x5EED0;
  double fail_prob = 0.0;     // per-box per-round crash probability
  m::Round outage = 5;        // rounds a crashed box stays down
  m::Round burst_round = -1;  // round at which every box demands a video
  bool stale_grants = false;  // use PreloadingWithStaleGrants
  s::SimulatorOptions options;  // sparse/verify flags set by the harness
};

/// The paper's preloading plan, plus one cache grant per request whose entry
/// is already outside the retention window. The sparse engine patches it
/// into its rows at admission, and the same round's prune must retire it
/// before the solve: such an entry never serves.
class PreloadingWithStaleGrants final : public s::RequestStrategy {
 public:
  void plan(m::BoxId b, m::VideoId v, std::uint64_t ticket, m::Round now,
            s::Simulator& sim, std::vector<s::PlannedRequest>& out) override {
    const std::size_t first = out.size();
    preloading_.plan(b, v, ticket, now, sim, out);
    const auto boxes = static_cast<m::BoxId>(sim.profile().size());
    for (std::size_t i = first; i < out.size(); ++i) {
      out[i].grants.push_back(
          {(b + 1) % boxes, now - sim.catalog().duration() - 1});
    }
  }
  [[nodiscard]] std::string name() const override { return "stale-grants"; }

 private:
  s::PreloadingStrategy preloading_;
};

/// Drive a dense and a sparse simulator in lockstep on one demand stream and
/// one churn schedule, asserting the per-round metrics that must be identical
/// (served, stalled, edges — the matchings are both maximum) every round.
/// The sparse twin runs with verify_incremental, so every round's assignment
/// is also structurally validated against the dense ground-truth problem.
/// The sparse twin's final report is copied to `sparse_report` when given.
void run_twins(TwinConfig cfg, s::RunReport* sparse_report = nullptr) {
  const m::Catalog catalog(cfg.videos, cfg.chunks, cfg.duration);
  const auto profile =
      m::CapacityProfile::homogeneous(cfg.boxes, cfg.upload, 8.0);
  p2pvod::util::Rng alloc_rng(cfg.seed);
  const a::Allocation allocation = a::PermutationAllocator().allocate(
      catalog, profile, cfg.replicas, alloc_rng);

  s::SimulatorOptions dense_options = cfg.options;
  dense_options.sparse = false;
  s::SimulatorOptions sparse_options = cfg.options;
  sparse_options.sparse = true;
  sparse_options.verify_incremental = true;
  const auto make_strategy = [&]() -> std::unique_ptr<s::RequestStrategy> {
    if (cfg.stale_grants) return std::make_unique<PreloadingWithStaleGrants>();
    return std::make_unique<s::PreloadingStrategy>();
  };
  const auto dense_strategy = make_strategy();
  const auto sparse_strategy = make_strategy();
  s::Simulator dense(catalog, profile, allocation, *dense_strategy,
                     dense_options);
  s::Simulator sparse(catalog, profile, allocation, *sparse_strategy,
                      sparse_options);
  ASSERT_FALSE(dense.sparse_active());
  ASSERT_TRUE(sparse.sparse_active());

  w::ZipfDemand audience(cfg.videos, cfg.alpha, cfg.demand_prob,
                         cfg.seed ^ 0xA0D1EBCE);
  p2pvod::util::Rng churn_rng(cfg.seed ^ 0xC84);
  std::vector<m::Round> down_until(cfg.boxes, -1);
  for (m::Round round = 0; round < cfg.rounds; ++round) {
    for (m::BoxId b = 0; b < cfg.boxes; ++b) {
      if (down_until[b] >= 0) {
        if (round >= down_until[b]) {
          dense.set_box_online(b, true);
          sparse.set_box_online(b, true);
          down_until[b] = -1;
        }
      } else if (cfg.fail_prob > 0 && churn_rng.next_bool(cfg.fail_prob)) {
        dense.set_box_online(b, false);
        sparse.set_box_online(b, false);
        down_until[b] = round + cfg.outage;
      }
    }
    // Both twins have identical admission state, so one demand stream (drawn
    // against the dense twin) is valid for both.
    auto demands = audience.demands(dense);
    if (round == cfg.burst_round) {
      for (m::BoxId b = 0; b < cfg.boxes; ++b)
        demands.push_back({b, b % cfg.videos});
    }
    dense.step(demands);
    sparse.step(demands);
    ASSERT_EQ(dense.report().chunks_served, sparse.report().chunks_served)
        << "round " << round;
    ASSERT_EQ(dense.report().chunks_stalled, sparse.report().chunks_stalled)
        << "round " << round;
    ASSERT_EQ(dense.report().matcher_edges, sparse.report().matcher_edges)
        << "round " << round;
    ASSERT_EQ(dense.active_request_count(), sparse.active_request_count())
        << "round " << round;
    ASSERT_EQ(dense.stalled(), sparse.stalled()) << "round " << round;
    if (dense.stalled() && dense_options.strict) break;
  }
  EXPECT_EQ(dense.report().success, sparse.report().success);
  EXPECT_EQ(dense.report().first_stall, sparse.report().first_stall);
  EXPECT_EQ(dense.report().stall_witness_size,
            sparse.report().stall_witness_size);
  EXPECT_EQ(dense.report().requests_issued, sparse.report().requests_issued);
  EXPECT_EQ(dense.report().demands_admitted, sparse.report().demands_admitted);
  EXPECT_EQ(dense.report().sessions_completed,
            sparse.report().sessions_completed);
  // The point of the sparse path: it collects only dirtied rows, the dense
  // path collects every live row every round.
  EXPECT_LT(sparse.report().rows_built, dense.report().rows_built);
  EXPECT_GT(sparse.report().rows_built, 0u);
  if (sparse_report != nullptr) *sparse_report = sparse.report();
}

}  // namespace

TEST(SparseTwins, PlainRun) { run_twins({}); }

TEST(SparseTwins, UnderChurn) {
  TwinConfig cfg;
  cfg.fail_prob = 0.02;
  cfg.rounds = 50;
  run_twins(cfg);
}

TEST(SparseTwins, StrictModeStallsIdentically) {
  TwinConfig cfg;
  cfg.boxes = 24;
  cfg.videos = 8;
  cfg.upload = 1.0;
  cfg.replicas = 2;
  cfg.demand_prob = 0.9;
  cfg.rounds = 30;
  cfg.options.strict = true;
  run_twins(cfg);
}

TEST(SparseTwins, CapacityOverride) {
  TwinConfig cfg;
  cfg.options.capacity_override.resize(cfg.boxes);
  for (std::uint32_t b = 0; b < cfg.boxes; ++b) {
    cfg.options.capacity_override[b] = b % 3 + 1;
  }
  run_twins(cfg);
}

TEST(SparseTwins, EagerRebuildFallback) {
  // Arrivals outnumbering the live rows trip the dirty-fraction fallback,
  // which rebuilds every row: once as the first demands ramp up, and again
  // after a flash crowd. Correctness must not depend on the patch path.
  TwinConfig cfg;
  cfg.fail_prob = 0.02;
  cfg.rounds = 30;
  s::RunReport calm;
  run_twins(cfg, &calm);
  cfg.burst_round = 1;
  s::RunReport burst;
  run_twins(cfg, &burst);
  EXPECT_GT(calm.sparse_full_rebuilds, 0u);
  EXPECT_GT(burst.sparse_full_rebuilds, calm.sparse_full_rebuilds);
}

TEST(SparseTwins, StaleGrantsNeverServe) {
  // Every request also grants a cache entry that is already expired; the
  // sparse rows must drop it again in the same round (edges, served and the
  // verified assignment all match the dense twin).
  TwinConfig cfg;
  cfg.fail_prob = 0.02;
  s::RunReport plain;
  run_twins(cfg, &plain);
  cfg.stale_grants = true;
  s::RunReport stale;
  run_twins(cfg, &stale);
  EXPECT_EQ(stale.chunks_served, plain.chunks_served);
  EXPECT_GT(stale.row_patches, plain.row_patches);  // patched, then retired
  EXPECT_GT(stale.sparse_expiry_events, plain.sparse_expiry_events);
}

TEST(SparseTwins, RandomizedChurnProperty) {
  // Seeded property sweep: modest world, random churn + Zipf demands; every
  // round's served/stalled/edges must match and every sparse assignment must
  // validate (verify_incremental inside run_twins).
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    TwinConfig cfg;
    cfg.boxes = 64;
    cfg.videos = 16;
    cfg.seed = seed;
    cfg.fail_prob = 0.03;
    cfg.outage = 4;
    cfg.demand_prob = 0.35;
    cfg.rounds = 45;
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_twins(cfg);
  }
}

// ------------------------------------------------------------ config errors

TEST(SparseEnv, ExplicitSparseWithTopologyIsConfigError) {
  // The sparse engine is cost-blind; asking for it together with a topology
  // used to silently downgrade to dense. It is now a hard config error.
  const m::Catalog catalog(1, 4, 12);
  const auto profile = m::CapacityProfile::homogeneous(4, 2.0, 100.0);
  std::vector<a::Allocation::Placement> placements;
  for (std::uint32_t i = 0; i < 4; ++i) placements.push_back({3, i});
  const a::Allocation allocation(4, 4, std::move(placements));
  const auto topology = p2pvod::net::Topology::uniform(4, 2);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.sparse = true;
  options.topology = &topology;
  EXPECT_THROW(s::Simulator(catalog, profile, allocation, strategy, options),
               std::invalid_argument);
}
