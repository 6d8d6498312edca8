// Unit tests for src/flow: Dinic max-flow, Hopcroft-Karp b-matching, the
// connection-problem reduction, Hall checking, the dense repair entry of
// CsrMatcher, the min-cost matching engine (primal-dual phases) against the
// successive-shortest-path loop it replaced, and validate_min_cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "flow/bipartite.hpp"
#include "flow/csr_matcher.hpp"
#include "flow/csr_problem.hpp"
#include "flow/dinic.hpp"
#include "flow/graph.hpp"
#include "flow/hall.hpp"
#include "flow/hopcroft_karp.hpp"
#include "flow/min_cost.hpp"
#include "flow/verify.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace f = p2pvod::flow;

// ----------------------------------------------------------------- network

TEST(FlowNetwork, EdgePairing) {
  f::FlowNetwork net(3);
  const auto e = net.add_edge(0, 1, 5);
  EXPECT_EQ(net.residual(e), 5);
  EXPECT_EQ(net.residual(e ^ 1u), 0);
  net.push(e, 3);
  EXPECT_EQ(net.residual(e), 2);
  EXPECT_EQ(net.flow_on(e), 3);
  net.reset_flow();
  EXPECT_EQ(net.flow_on(e), 0);
}

TEST(FlowNetwork, RejectsBadEdges) {
  f::FlowNetwork net(2);
  EXPECT_THROW(net.add_edge(0, 5, 1), std::out_of_range);
  EXPECT_THROW(net.add_edge(0, 1, -1), std::invalid_argument);
}

TEST(FlowNetwork, AddNodesReturnsFirstId) {
  f::FlowNetwork net(2);
  EXPECT_EQ(net.add_nodes(3), 2u);
  EXPECT_EQ(net.node_count(), 5u);
}

// ----------------------------------------------------------------- dinic

TEST(Dinic, SingleEdge) {
  f::FlowNetwork net(2);
  net.add_edge(0, 1, 7);
  EXPECT_EQ(f::Dinic(net).max_flow(0, 1), 7);
}

TEST(Dinic, SeriesBottleneck) {
  f::FlowNetwork net(3);
  net.add_edge(0, 1, 10);
  net.add_edge(1, 2, 4);
  EXPECT_EQ(f::Dinic(net).max_flow(0, 2), 4);
}

TEST(Dinic, ParallelPathsSum) {
  f::FlowNetwork net(4);
  net.add_edge(0, 1, 3);
  net.add_edge(1, 3, 3);
  net.add_edge(0, 2, 5);
  net.add_edge(2, 3, 5);
  EXPECT_EQ(f::Dinic(net).max_flow(0, 3), 8);
}

TEST(Dinic, ClassicTextbookInstance) {
  // CLRS-style 6-node instance with known max flow 23.
  f::FlowNetwork net(6);
  net.add_edge(0, 1, 16);
  net.add_edge(0, 2, 13);
  net.add_edge(1, 2, 10);
  net.add_edge(2, 1, 4);
  net.add_edge(1, 3, 12);
  net.add_edge(3, 2, 9);
  net.add_edge(2, 4, 14);
  net.add_edge(4, 3, 7);
  net.add_edge(3, 5, 20);
  net.add_edge(4, 5, 4);
  EXPECT_EQ(f::Dinic(net).max_flow(0, 5), 23);
}

TEST(Dinic, DisconnectedIsZero) {
  f::FlowNetwork net(4);
  net.add_edge(0, 1, 5);
  net.add_edge(2, 3, 5);
  EXPECT_EQ(f::Dinic(net).max_flow(0, 3), 0);
}

TEST(Dinic, MinCutSeparatesSourceFromSink) {
  f::FlowNetwork net(4);
  net.add_edge(0, 1, 2);
  net.add_edge(1, 2, 1);  // bottleneck
  net.add_edge(2, 3, 2);
  f::Dinic dinic(net);
  EXPECT_EQ(dinic.max_flow(0, 3), 1);
  const auto side = dinic.min_cut_source_side(0);
  EXPECT_TRUE(side[0]);
  EXPECT_FALSE(side[3]);
}

TEST(Dinic, FlowConservationAtInternalNodes) {
  f::FlowNetwork net(5);
  std::vector<f::EdgeId> edges;
  edges.push_back(net.add_edge(0, 1, 4));
  edges.push_back(net.add_edge(0, 2, 4));
  edges.push_back(net.add_edge(1, 3, 3));
  edges.push_back(net.add_edge(2, 3, 2));
  edges.push_back(net.add_edge(3, 4, 6));
  f::Dinic dinic(net);
  const auto total = dinic.max_flow(0, 4);
  EXPECT_EQ(total, 5);
  // in(3) == out(3)
  const auto in3 = net.flow_on(edges[2]) + net.flow_on(edges[3]);
  EXPECT_EQ(in3, net.flow_on(edges[4]));
}

// ----------------------------------------------------------------- hk

TEST(HopcroftKarp, PerfectMatchingUnitCaps) {
  const std::vector<std::vector<std::uint32_t>> adj{{0, 1}, {0}, {1, 2}};
  f::HopcroftKarp hk(adj, {1, 1, 1});
  EXPECT_EQ(hk.solve(), 3u);
  const auto& match = hk.assignment();
  EXPECT_EQ(match[1], 0);  // request 1 can only use box 0
}

TEST(HopcroftKarp, RespectsBoxCapacity) {
  // Three requests all wanting box 0 with capacity 2.
  const std::vector<std::vector<std::uint32_t>> adj{{0}, {0}, {0}};
  f::HopcroftKarp hk(adj, {2});
  EXPECT_EQ(hk.solve(), 2u);
}

TEST(HopcroftKarp, AugmentsThroughSaturatedBoxes) {
  // r0 -> {b0}; r1 -> {b0, b1}. Greedy could give r1 b0 and starve r0;
  // augmenting must fix it.
  const std::vector<std::vector<std::uint32_t>> adj{{0}, {0, 1}};
  f::HopcroftKarp hk(adj, {1, 1});
  EXPECT_EQ(hk.solve(), 2u);
}

TEST(HopcroftKarp, EmptyCandidatesUnmatched) {
  const std::vector<std::vector<std::uint32_t>> adj{{}, {0}};
  f::HopcroftKarp hk(adj, {1});
  EXPECT_EQ(hk.solve(), 1u);
  EXPECT_EQ(hk.assignment()[0], -1);
}

TEST(HopcroftKarp, ZeroCapacityBoxUnusable) {
  const std::vector<std::vector<std::uint32_t>> adj{{0}};
  f::HopcroftKarp hk(adj, {0});
  EXPECT_EQ(hk.solve(), 0u);
}

// ----------------------------------------------------------------- problem

namespace {
f::ConnectionProblem random_problem(p2pvod::util::Rng& rng,
                                    std::uint32_t boxes,
                                    std::uint32_t requests,
                                    std::uint32_t max_capacity,
                                    double edge_prob) {
  f::ConnectionProblem problem(boxes);
  for (std::uint32_t b = 0; b < boxes; ++b) {
    problem.set_capacity(
        b, static_cast<std::uint32_t>(rng.next_below(max_capacity + 1)));
  }
  for (std::uint32_t r = 0; r < requests; ++r) {
    std::vector<std::uint32_t> cands;
    for (std::uint32_t b = 0; b < boxes; ++b) {
      if (rng.next_bool(edge_prob)) cands.push_back(b);
    }
    problem.add_request(std::move(cands));
  }
  return problem;
}

/// HopcroftKarp, the independent oracle, in ConnectionProblem::solve's form.
f::MatchResult solve_by_hopcroft_karp(const f::ConnectionProblem& problem) {
  std::vector<std::vector<std::uint32_t>> adjacency;
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    const auto candidates = problem.candidates(r);
    adjacency.emplace_back(candidates.begin(), candidates.end());
  }
  f::HopcroftKarp solver(adjacency, problem.capacities());
  f::MatchResult result;
  result.served = solver.solve();
  result.assignment = solver.assignment();
  result.complete = result.served == problem.request_count();
  return result;
}

/// The chain r_i = {i, i+1} (i < n), r_n = {0}, every capacity 1: feasible,
/// but serving r_n displaces every other request in turn, so augmenting
/// paths and Dinic level graphs are O(n) deep.
f::ConnectionProblem chain_problem(std::uint32_t n) {
  f::ConnectionProblem problem(n + 1);
  problem.set_capacities(std::vector<std::uint32_t>(n + 1, 1));
  for (std::uint32_t i = 0; i < n; ++i) problem.add_request({i, i + 1});
  problem.add_request({0});
  return problem;
}
}  // namespace

TEST(ConnectionProblem, TrivialComplete) {
  f::ConnectionProblem p(2);
  p.set_capacity(0, 1);
  p.set_capacity(1, 1);
  p.add_request({0});
  p.add_request({1});
  const auto result = p.solve();
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.assignment[0], 0);
  EXPECT_EQ(result.assignment[1], 1);
}

TEST(ConnectionProblem, InfeasibleWhenOversubscribed) {
  f::ConnectionProblem p(1);
  p.set_capacity(0, 1);
  p.add_request({0});
  p.add_request({0});
  const auto result = p.solve();
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.served, 1u);
}

TEST(ConnectionProblem, EnginesAgreeOnRandomInstances) {
  p2pvod::util::Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    auto problem = random_problem(rng, 8, 12, 3, 0.3);
    const auto dinic = problem.solve();
    const auto hk = solve_by_hopcroft_karp(problem);
    ASSERT_EQ(dinic.served, hk.served) << "trial " << trial;
  }
}

TEST(ConnectionProblem, AssignmentRespectsCapacities) {
  p2pvod::util::Rng rng(88);
  for (int trial = 0; trial < 25; ++trial) {
    auto problem = random_problem(rng, 6, 15, 2, 0.4);
    for (const auto& result :
         {problem.solve(), solve_by_hopcroft_karp(problem)}) {
      const auto degrees = result.box_degrees(problem.box_count());
      for (std::uint32_t b = 0; b < problem.box_count(); ++b)
        EXPECT_LE(degrees[b], problem.capacity(b));
      // Assignments must be candidates.
      for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
        if (result.assignment[r] < 0) continue;
        const auto& cands = problem.candidates(r);
        EXPECT_NE(std::find(cands.begin(), cands.end(),
                            static_cast<std::uint32_t>(result.assignment[r])),
                  cands.end());
      }
    }
  }
}

TEST(ConnectionProblem, WitnessOnlyWhenInfeasible) {
  f::ConnectionProblem feasible(2);
  feasible.set_capacity(0, 2);
  feasible.add_request({0});
  EXPECT_FALSE(feasible.infeasibility_witness().has_value());

  f::ConnectionProblem infeasible(1);
  infeasible.set_capacity(0, 1);
  infeasible.add_request({0});
  infeasible.add_request({0});
  const auto witness = infeasible.infeasibility_witness();
  ASSERT_TRUE(witness.has_value());
  EXPECT_FALSE(witness->empty());
}

TEST(ConnectionProblem, WitnessViolatesHall) {
  // Witness X must satisfy sum capacities of B(X) < |X|.
  p2pvod::util::Rng rng(99);
  int found = 0;
  for (int trial = 0; trial < 60; ++trial) {
    auto problem = random_problem(rng, 5, 10, 1, 0.25);
    const auto witness = problem.infeasibility_witness();
    if (!witness) continue;
    ++found;
    std::vector<bool> in_bx(problem.box_count(), false);
    std::uint64_t cap = 0;
    for (const auto r : *witness) {
      for (const auto b : problem.candidates(r)) {
        if (!in_bx[b]) {
          in_bx[b] = true;
          cap += problem.capacity(b);
        }
      }
    }
    EXPECT_LT(cap, witness->size());
  }
  EXPECT_GT(found, 0) << "no infeasible instance generated; weaken params";
}

// A 10^6-link chain makes Dinic's second phase one path through every node
// (about 2·10^6 levels deep): the blocking-flow DFS must not recurse.
TEST(ConnectionProblem, MillionDeepChain) {
  constexpr std::uint32_t kN = 1'000'000;
  auto problem = chain_problem(kN);
  const auto result = problem.solve();
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.served, kN + 1);
  EXPECT_EQ(result.assignment[kN], 0);
  EXPECT_FALSE(problem.infeasibility_witness().has_value());

  // One more request for box 0 overloads the chain: the same deep phase
  // runs, then the min cut leaves every request on the sink side.
  problem.add_request({0});
  const auto witness = problem.infeasibility_witness();
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->size(), kN + 2);
  const auto violation = f::HallChecker::check_subset(problem, *witness);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->capacity, kN + 1);
}

TEST(ConnectionProblem, EdgeCountSums) {
  f::ConnectionProblem p(3);
  p.add_request({0, 1});
  p.add_request({2});
  EXPECT_EQ(p.edge_count(), 3u);
}

TEST(ConnectionProblem, RejectsForeignBoxes) {
  f::ConnectionProblem p(2);
  EXPECT_THROW(p.add_request({5}), std::out_of_range);
  EXPECT_THROW(p.set_capacities(std::vector<std::uint32_t>{1}),
               std::invalid_argument);
}

// One problem refilled round after round (the simulator's use) must be
// indistinguishable from a freshly built one, whether it grows or shrinks.
TEST(ConnectionProblem, ClearedAndRefilledEqualsFresh) {
  p2pvod::util::Rng rng(0xC1EA);
  f::ConnectionProblem reused(6);
  int infeasible = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto requests = static_cast<std::uint32_t>(rng.next_below(15));
    const auto fresh = random_problem(rng, 6, requests, 2, 0.3);
    reused.clear();
    reused.set_capacities(fresh.capacities());
    for (std::uint32_t r = 0; r < requests; ++r)
      reused.add_request(fresh.candidates(r));
    ASSERT_EQ(reused.request_count(), requests);
    ASSERT_EQ(reused.edge_count(), fresh.edge_count());
    ASSERT_EQ(reused.capacities(), fresh.capacities());
    for (std::uint32_t r = 0; r < requests; ++r) {
      ASSERT_TRUE(std::ranges::equal(reused.candidates(r),
                                     fresh.candidates(r)))
          << "trial " << trial << " request " << r;
    }
    const auto a = reused.solve();
    const auto b = fresh.solve();
    ASSERT_EQ(a.assignment, b.assignment) << "trial " << trial;
    ASSERT_EQ(a.served, b.served);
    const auto witness = reused.infeasibility_witness();
    ASSERT_EQ(witness, fresh.infeasibility_witness()) << "trial " << trial;
    if (witness) ++infeasible;
  }
  EXPECT_GT(infeasible, 0);
}

TEST(ConnectionProblem, ClearKeepsBoundsChecks) {
  f::ConnectionProblem p(2);
  p.set_capacities(std::vector<std::uint32_t>{1, 1});
  p.add_request({0, 1});
  p.clear();
  EXPECT_EQ(p.request_count(), 0u);
  EXPECT_EQ(p.edge_count(), 0u);
  EXPECT_EQ(p.capacity(1), 1u);
  EXPECT_THROW((void)p.candidates(0), std::out_of_range);
  EXPECT_THROW(p.add_request({1, 2}), std::out_of_range);
  EXPECT_EQ(p.request_count(), 0u);  // a rejected request adds nothing
  EXPECT_EQ(p.edge_count(), 0u);
  p.add_request({1});
  EXPECT_EQ(p.candidates(0).size(), 1u);
  EXPECT_THROW((void)p.candidates(1), std::out_of_range);
}

// A row passed back from candidates() views the problem's own storage:
// appending it must copy its values, also when the append reallocates.
TEST(ConnectionProblem, AddRequestCopiesItsOwnRows) {
  f::ConnectionProblem p(4);
  p.add_request({0, 1, 2, 3});
  for (int i = 0; i < 12; ++i) p.add_request(p.candidates(0));
  p.add_request(p.candidates(5).subspan(2));
  for (std::uint32_t r = 0; r < 13; ++r) {
    EXPECT_EQ(std::vector<std::uint32_t>(p.candidates(r).begin(),
                                         p.candidates(r).end()),
              (std::vector<std::uint32_t>{0, 1, 2, 3}))
        << "request " << r;
  }
  EXPECT_EQ(std::vector<std::uint32_t>(p.candidates(13).begin(),
                                       p.candidates(13).end()),
            (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(p.edge_count(), 13u * 4 + 2);
}

// ----------------------------------------------------------------- hall

TEST(Hall, FeasibleInstancePassesAllSubsets) {
  f::ConnectionProblem p(2);
  p.set_capacity(0, 1);
  p.set_capacity(1, 1);
  p.add_request({0, 1});
  p.add_request({0, 1});
  EXPECT_TRUE(f::HallChecker::feasible(p));
}

TEST(Hall, DetectsViolation) {
  f::ConnectionProblem p(1);
  p.set_capacity(0, 1);
  p.add_request({0});
  p.add_request({0});
  const auto violation = f::HallChecker::find_violation(p);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->demand, 2u);
  EXPECT_EQ(violation->capacity, 1u);
}

TEST(Hall, SubsetChecker) {
  f::ConnectionProblem p(2);
  p.set_capacity(0, 0);
  p.set_capacity(1, 5);
  p.add_request({0});
  p.add_request({1});
  EXPECT_TRUE(f::HallChecker::check_subset(p, {0}).has_value());
  EXPECT_FALSE(f::HallChecker::check_subset(p, {1}).has_value());
}

TEST(Hall, RejectsHugeInstances) {
  f::ConnectionProblem p(1);
  p.set_capacity(0, 100);
  for (int i = 0; i < 30; ++i) p.add_request({0});
  EXPECT_THROW((void)f::HallChecker::find_violation(p),
               std::invalid_argument);
}

// Lemma 1 (min-cut max-flow): matching exists iff no Hall violation.
TEST(Hall, Lemma1EquivalenceOnRandomInstances) {
  p2pvod::util::Rng rng(123);
  int feasible_count = 0, infeasible_count = 0;
  for (int trial = 0; trial < 120; ++trial) {
    // Mean total capacity 7.5 vs 5 requests with dense edges: a healthy mix
    // of feasible and infeasible instances.
    auto problem = random_problem(rng, 5, 5, 3, 0.5);
    const bool by_flow = problem.solve().complete;
    const bool by_hall = f::HallChecker::feasible(problem);
    ASSERT_EQ(by_flow, by_hall) << "Lemma 1 equivalence failed, trial "
                                << trial;
    by_flow ? ++feasible_count : ++infeasible_count;
  }
  EXPECT_GT(feasible_count, 0);
  EXPECT_GT(infeasible_count, 0);
}

// ----------------------------------------------------------------- matcher

TEST(CsrMatcherRepair, MatchesFromScratch) {
  f::ConnectionProblem p(2);
  p.set_capacity(0, 1);
  p.set_capacity(1, 1);
  p.add_request({0, 1});
  p.add_request({0});
  f::CsrMatcher matcher;
  std::vector<std::int32_t> carry{-1, -1};
  const auto repaired = matcher.repair(p, carry);
  EXPECT_EQ(repaired.served, 2u);
  EXPECT_EQ(repaired.kept_connections, 0u);
  EXPECT_EQ(repaired.new_connections, 2u);
}

TEST(CsrMatcherRepair, KeepsValidCarries) {
  f::ConnectionProblem p(2);
  p.set_capacity(0, 1);
  p.set_capacity(1, 1);
  p.add_request({0, 1});
  p.add_request({0, 1});
  f::CsrMatcher matcher;
  // Previous round's wiring.
  std::vector<std::int32_t> carry{1, 0};
  const auto repaired = matcher.repair(p, carry);
  EXPECT_EQ(repaired.served, 2u);
  EXPECT_EQ(carry[0], 1);
  EXPECT_EQ(carry[1], 0);
  EXPECT_EQ(repaired.kept_connections, 2u);
  EXPECT_EQ(repaired.new_connections, 0u);
}

TEST(CsrMatcherRepair, DropsInvalidCarries) {
  f::ConnectionProblem p(2);
  p.set_capacity(0, 1);
  p.set_capacity(1, 1);
  p.add_request({1});  // box 0 no longer a candidate
  f::CsrMatcher matcher;
  std::vector<std::int32_t> carry{0};
  const auto repaired = matcher.repair(p, carry);
  EXPECT_EQ(repaired.served, 1u);
  EXPECT_EQ(carry[0], 1);
  EXPECT_EQ(repaired.kept_connections, 0u);
  EXPECT_EQ(repaired.new_connections, 1u);
}

// One matcher across rounds whose box counts differ: repair() re-sizes its
// per-box state from each problem.
TEST(CsrMatcherRepair, AgreesWithDinicOnRandomSequences) {
  p2pvod::util::Rng rng(555);
  f::CsrMatcher matcher;
  std::vector<std::int32_t> carry;
  std::uint64_t kept = 0;
  for (int round = 0; round < 40; ++round) {
    const auto boxes = static_cast<std::uint32_t>(6 + round % 3);
    auto problem = random_problem(rng, boxes, 10, 2, 0.35);
    carry.resize(problem.request_count(), -1);
    const auto repaired = matcher.repair(problem, carry);
    const auto reference = problem.solve();
    ASSERT_EQ(repaired.served, reference.served) << "round " << round;
    ASSERT_EQ(repaired.served,
              repaired.kept_connections + repaired.new_connections);
    kept += repaired.kept_connections;
  }
  EXPECT_GT(kept, 0u);
}

// Serving the last request of a 10^6-link chain displaces every carried
// connection in turn: a 10^6-deep augmenting path.
TEST(CsrMatcherRepair, MillionDeepChain) {
  constexpr std::uint32_t kN = 1'000'000;
  const auto problem = chain_problem(kN);
  std::vector<std::int32_t> carry(kN + 1, -1);
  for (std::uint32_t i = 0; i < kN; ++i) carry[i] = static_cast<std::int32_t>(i);
  f::CsrMatcher matcher;
  const auto repaired = matcher.repair(problem, carry);
  EXPECT_EQ(repaired.served, kN + 1);
  EXPECT_EQ(repaired.kept_connections, kN);
  EXPECT_EQ(repaired.new_connections, 1u);
  EXPECT_EQ(carry[kN], 0);
  EXPECT_EQ(carry[0], 1);
  EXPECT_EQ(carry[kN - 1], static_cast<std::int32_t>(kN));
}

// The lookahead changes which box a search takes, never whether it finds
// one. Random instances with zero-capacity boxes, empty rows,
// oversubscription and carries that went stale (box out of range, no longer
// a candidate, or over capacity once earlier carries are kept) go through
// repair() and through augment() on a CsrProblem mirror of the same rows.
TEST(CsrMatcherLookahead, AgreesWithDinicOnRandomInstances) {
  p2pvod::util::Rng rng(0x100CA);
  f::CsrMatcher repairer;  // one matcher across instances of varying size
  int empty_rows = 0;
  int stale_carries = 0;
  int short_rounds = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const auto boxes = static_cast<std::uint32_t>(1 + rng.next_below(12));
    const auto requests = static_cast<std::uint32_t>(rng.next_below(40));
    const auto problem = random_problem(rng, boxes, requests, 3,
                                        0.05 + 0.4 * rng.next_double());
    const auto reference = problem.solve();
    if (!reference.complete) ++short_rounds;

    // Carries: none, a candidate, any box, or a box that no longer exists.
    std::vector<std::int32_t> carry(requests, -1);
    for (std::uint32_t r = 0; r < requests; ++r) {
      const auto candidates = problem.candidates(r);
      if (candidates.empty()) ++empty_rows;
      const std::uint64_t kind = rng.next_below(10);
      if (kind < 4 && !candidates.empty()) {
        carry[r] = static_cast<std::int32_t>(
            candidates[rng.next_below(candidates.size())]);
      } else if (kind < 7) {
        carry[r] = static_cast<std::int32_t>(rng.next_below(boxes));
      } else if (kind == 7) {
        carry[r] = static_cast<std::int32_t>(boxes + rng.next_below(3));
      }
    }
    // repair() keeps exactly these: each carry, in request order, that is a
    // candidate of its request and fits what earlier kept carries left.
    std::vector<std::uint32_t> load(boxes, 0);
    std::vector<bool> keeps(requests, false);
    std::uint64_t expected_kept = 0;
    for (std::uint32_t r = 0; r < requests; ++r) {
      if (carry[r] < 0) continue;
      const auto box = static_cast<std::uint32_t>(carry[r]);
      const auto candidates = problem.candidates(r);
      if (box >= boxes || load[box] >= problem.capacity(box) ||
          std::find(candidates.begin(), candidates.end(), box) ==
              candidates.end()) {
        ++stale_carries;
        continue;
      }
      ++load[box];
      keeps[r] = true;
      ++expected_kept;
    }

    std::vector<std::int32_t> assignment = carry;
    const auto repaired = repairer.repair(problem, assignment);
    ASSERT_EQ(repaired.served, reference.served) << "trial " << trial;
    ASSERT_EQ(repaired.kept_connections, expected_kept) << "trial " << trial;
    ASSERT_EQ(repaired.served,
              repaired.kept_connections + repaired.new_connections);
    ASSERT_NO_THROW(f::validate_assignment(
        problem, f::MatchResult{assignment, repaired.served,
                                repaired.served == requests}))
        << "trial " << trial;
    for (std::uint32_t r = 0; r < requests; ++r) {
      // Augmenting paths may reroute a kept request, never unserve it.
      if (keeps[r]) {
        ASSERT_GE(assignment[r], 0) << "trial " << trial;
      }
    }

    // augment() over the CSR mirror: every row from an empty matching, then
    // again after a box goes offline and a few rows retire.
    f::CsrProblem csr;
    if (requests > 0) csr.ensure_row(requests - 1);
    for (std::uint32_t r = 0; r < requests; ++r) {
      for (const std::uint32_t b : problem.candidates(r)) csr.add_source(r, b);
    }
    f::CsrMatcher augmenter(boxes);
    augmenter.ensure_rows(requests);
    const auto check_augmenter = [&](const char* phase) {
      for (std::uint32_t r = 0; r < requests; ++r) {
        if (augmenter.assignment(r) < 0)
          (void)augmenter.augment(csr, problem.capacities(), r);
      }
      f::MatchResult match;
      for (std::uint32_t r = 0; r < requests; ++r) {
        match.assignment.push_back(augmenter.assignment(r));
        if (match.assignment.back() >= 0) ++match.served;
      }
      match.complete = match.served == requests;
      ASSERT_EQ(match.served, reference.served)
          << "trial " << trial << " " << phase;
      ASSERT_NO_THROW(f::validate_assignment(problem, match))
          << "trial " << trial << " " << phase;
    };
    check_augmenter("from empty");
    std::vector<std::uint32_t> freed;
    augmenter.unassign_box(static_cast<std::uint32_t>(rng.next_below(boxes)),
                           freed);
    for (std::uint32_t r = 0; r < requests; r += 3) augmenter.unassign(r);
    check_augmenter("after churn");
  }
  EXPECT_GT(empty_rows, 0);
  EXPECT_GT(stale_carries, 0);
  EXPECT_GT(short_rounds, 0);
}

// flow/csr_search_steps counts candidate boxes examined. Serving r1 = {0}
// behind r0 = {0, 1} (capacity 1 each): r0 takes box 0 (1 step); r1's
// lookahead finds box 0 full (1), its descent enters box 0 (1), and r0's
// lookahead passes box 0 and takes box 1 (2).
TEST(CsrMatcherLookahead, SearchStepsCountExaminedBoxes) {
  f::ConnectionProblem p(2);
  p.set_capacities(std::vector<std::uint32_t>{1, 1});
  p.add_request({0, 1});
  p.add_request({0});
  p2pvod::obs::Counter& steps =
      p2pvod::obs::MetricsRegistry::global().counter("flow/csr_search_steps");
  const std::uint64_t before = steps.value();
  f::CsrMatcher matcher;
  std::vector<std::int32_t> carry;
  EXPECT_EQ(matcher.repair(p, carry).served, 2u);
  EXPECT_EQ(carry, (std::vector<std::int32_t>{1, 0}));
  EXPECT_EQ(steps.value() - before, 5u);
}

// ----------------------------------------------------------------- min-cost

namespace {
f::EdgeCosts random_costs(p2pvod::util::Rng& rng,
                          const f::ConnectionProblem& problem,
                          p2pvod::flow::Cost max_cost) {
  f::EdgeCosts costs(problem.request_count());
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    for (std::size_t j = 0; j < problem.candidates(r).size(); ++j) {
      costs[r].push_back(
          static_cast<f::Cost>(rng.next_below(max_cost + 1)));
    }
  }
  return costs;
}

void check_valid(const f::ConnectionProblem& problem,
                 const f::MinCostResult& result) {
  const auto degrees = result.match.box_degrees(problem.box_count());
  for (std::uint32_t b = 0; b < problem.box_count(); ++b)
    ASSERT_LE(degrees[b], problem.capacity(b));
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    if (result.match.assignment[r] < 0) continue;
    const auto& cands = problem.candidates(r);
    ASSERT_NE(std::find(cands.begin(), cands.end(),
                        static_cast<std::uint32_t>(
                            result.match.assignment[r])),
              cands.end());
  }
}
}  // namespace

TEST(MinCostMatcher, PrefersCheapEdge) {
  f::ConnectionProblem p(2);
  p.set_capacity(0, 1);
  p.set_capacity(1, 1);
  p.add_request({0, 1});
  const auto result = f::MinCostMatcher::solve(p, {{5, 2}});
  EXPECT_TRUE(result.match.complete);
  EXPECT_EQ(result.match.assignment[0], 1);
  EXPECT_EQ(result.total_cost, 2);
}

TEST(MinCostMatcher, MaximalityBeatsCheapness) {
  // Serving both requests requires the expensive wiring; a maximum matching
  // must never be traded for a cheaper partial one.
  f::ConnectionProblem p(2);
  p.set_capacity(0, 1);
  p.set_capacity(1, 1);
  p.add_request({0, 1});
  p.add_request({0});
  const auto result = f::MinCostMatcher::solve(p, {{0, 100}, {0}});
  EXPECT_TRUE(result.match.complete);
  EXPECT_EQ(result.match.assignment[0], 1);
  EXPECT_EQ(result.match.assignment[1], 0);
  EXPECT_EQ(result.total_cost, 100);
}

TEST(MinCostMatcher, ZeroCostsDegradeToDinic) {
  p2pvod::util::Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    auto problem = random_problem(rng, 7, 12, 2, 0.35);
    f::EdgeCosts zero(problem.request_count());
    for (std::uint32_t r = 0; r < problem.request_count(); ++r)
      zero[r].assign(problem.candidates(r).size(), 0);
    const auto mincost = f::MinCostMatcher::solve(problem, zero);
    const auto dinic = problem.solve();
    ASSERT_EQ(mincost.match.served, dinic.served) << "trial " << trial;
    ASSERT_EQ(mincost.match.assignment, dinic.assignment) << "trial " << trial;
    ASSERT_EQ(mincost.total_cost, 0);
  }
}

// Acceptance property: on randomized small instances the solver agrees
// with exhaustive enumeration on BOTH optimality criteria — matching size
// first, total cost second.
TEST(MinCostMatcher, AgreesWithBruteForceOnRandomInstances) {
  p2pvod::util::Rng rng(31337);
  for (int trial = 0; trial < 80; ++trial) {
    auto problem = random_problem(rng, 5, 6, 2, 0.45);
    const auto costs = random_costs(rng, problem, 7);
    const auto fast = f::MinCostMatcher::solve(problem, costs);
    const auto slow = f::min_cost_brute_force(problem, costs);
    ASSERT_EQ(fast.match.served, slow.match.served) << "trial " << trial;
    ASSERT_EQ(fast.total_cost, slow.total_cost) << "trial " << trial;
    check_valid(problem, fast);
  }
}

// The matching size must equal the cost-blind maximum at any cost profile:
// costs steer, they never shrink feasibility.
TEST(MinCostMatcher, ServedCountMatchesDinicUnderAnyCosts) {
  p2pvod::util::Rng rng(2718);
  for (int trial = 0; trial < 40; ++trial) {
    auto problem = random_problem(rng, 8, 14, 3, 0.3);
    const auto costs = random_costs(rng, problem, 9);
    const auto mincost = f::MinCostMatcher::solve(problem, costs);
    const auto dinic = problem.solve();
    ASSERT_EQ(mincost.match.served, dinic.served) << "trial " << trial;
    check_valid(problem, mincost);
  }
}

TEST(MinCostMatcher, DeterministicAcrossRepeatSolves) {
  p2pvod::util::Rng rng(99);
  auto problem = random_problem(rng, 6, 10, 2, 0.4);
  const auto costs = random_costs(rng, problem, 5);
  const auto first = f::MinCostMatcher::solve(problem, costs);
  const auto second = f::MinCostMatcher::solve(problem, costs);
  EXPECT_EQ(first.match.assignment, second.match.assignment);
  EXPECT_EQ(first.total_cost, second.total_cost);
}

TEST(MinCostMatcher, RejectsBadShapesAndNegativeCosts) {
  f::ConnectionProblem p(2);
  p.set_capacity(0, 1);
  p.add_request({0});
  EXPECT_THROW((void)f::MinCostMatcher::solve(p, {}),
               std::invalid_argument);
  EXPECT_THROW((void)f::MinCostMatcher::solve(p, {{1, 2}}),
               std::invalid_argument);
  EXPECT_THROW((void)f::MinCostMatcher::solve(p, {{-1}}),
               std::invalid_argument);
  EXPECT_THROW((void)f::min_cost_brute_force(p, {{-1}}),
               std::invalid_argument);
}

TEST(MinCostBruteForce, RejectsHugeInstances) {
  f::ConnectionProblem p(8);
  for (std::uint32_t b = 0; b < 8; ++b) p.set_capacity(b, 8);
  f::EdgeCosts costs;
  for (int r = 0; r < 12; ++r) {
    p.add_request({0, 1, 2, 3, 4, 5, 6, 7});
    costs.push_back({0, 0, 0, 0, 0, 0, 0, 0});
  }
  EXPECT_THROW((void)f::min_cost_brute_force(p, costs),
               std::invalid_argument);
}

// ------------------------------------------- min-cost: reference and bounds

namespace {

/// The successive-shortest-path solver MinCostMatcher::solve used before the
/// primal-dual phases: one Dijkstra over the whole residual network (Johnson
/// potentials) per augmenting path. Kept as the differential reference.
f::MinCostResult ssp_reference(const f::ConnectionProblem& problem,
                               const f::EdgeCosts& costs) {
  constexpr f::Cost kInf = std::numeric_limits<f::Cost>::max() / 4;
  const std::uint32_t boxes = problem.box_count();
  const std::uint32_t requests = problem.request_count();
  f::FlowNetwork network(boxes + requests + 2);
  const f::NodeId source = boxes + requests;
  const f::NodeId sink = source + 1;
  std::vector<f::Cost> edge_cost;
  const auto add_edge = [&](f::NodeId from, f::NodeId to, f::Capacity cap,
                            f::Cost cost) {
    const f::EdgeId id = network.add_edge(from, to, cap);
    edge_cost.resize(id + 2, 0);
    edge_cost[id] = cost;
    edge_cost[id + 1] = -cost;
    return id;
  };
  for (std::uint32_t b = 0; b < boxes; ++b) {
    if (problem.capacity(b) > 0) add_edge(source, b, problem.capacity(b), 0);
  }
  std::vector<std::vector<f::EdgeId>> request_box_edges(requests);
  for (std::uint32_t r = 0; r < requests; ++r) {
    const auto& candidates = problem.candidates(r);
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      request_box_edges[r].push_back(
          add_edge(candidates[j], boxes + r, 1, costs[r][j]));
    }
    add_edge(boxes + r, sink, 1, 0);
  }

  const f::NodeId nodes = network.node_count();
  std::vector<f::Cost> potential(nodes, 0);
  std::vector<f::Cost> dist(nodes);
  std::vector<f::EdgeId> parent_edge(nodes);
  std::vector<bool> settled(nodes);
  for (;;) {
    dist.assign(nodes, kInf);
    settled.assign(nodes, false);
    dist[source] = 0;
    using Entry = std::pair<f::Cost, f::NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    queue.push({0, source});
    while (!queue.empty()) {
      const auto [d, v] = queue.top();
      queue.pop();
      if (settled[v]) continue;
      settled[v] = true;
      for (const f::EdgeId e : network.adjacency(v)) {
        if (network.residual(e) <= 0) continue;
        const f::NodeId to = network.edge_to(e);
        const f::Cost reduced = edge_cost[e] + potential[v] - potential[to];
        if (dist[v] + reduced < dist[to]) {
          dist[to] = dist[v] + reduced;
          parent_edge[to] = e;
          queue.push({dist[to], to});
        }
      }
    }
    if (dist[sink] >= kInf) break;
    for (f::NodeId v = 0; v < nodes; ++v) {
      if (dist[v] < kInf) potential[v] += dist[v];
    }
    for (f::NodeId v = sink; v != source;) {
      const f::EdgeId e = parent_edge[v];
      network.push(e, 1);
      v = network.edge_to(e ^ 1u);
    }
  }

  f::MinCostResult result;
  result.match.assignment.assign(requests, -1);
  for (std::uint32_t r = 0; r < requests; ++r) {
    const auto& candidates = problem.candidates(r);
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (network.flow_on(request_box_edges[r][j]) > 0) {
        result.match.assignment[r] = static_cast<std::int32_t>(candidates[j]);
        result.total_cost += costs[r][j];
        ++result.match.served;
        break;
      }
    }
  }
  result.match.complete = result.match.served == requests;
  return result;
}

/// random_problem with the shapes the round loop can produce: zero-capacity
/// boxes, empty candidate rows, demand beyond Σ capacity, and the odd box
/// listed twice in a row (the duplicate gets its own cost).
f::ConnectionProblem varied_problem(p2pvod::util::Rng& rng) {
  const auto boxes = static_cast<std::uint32_t>(1 + rng.next_below(12));
  const auto requests = static_cast<std::uint32_t>(rng.next_below(31));
  const auto max_capacity = static_cast<std::uint32_t>(rng.next_below(4));
  constexpr double kDensity[] = {0.05, 0.2, 0.4, 0.7};
  const double density = kDensity[rng.next_below(4)];
  f::ConnectionProblem problem(boxes);
  for (std::uint32_t b = 0; b < boxes; ++b) {
    problem.set_capacity(
        b, static_cast<std::uint32_t>(rng.next_below(max_capacity + 1)));
  }
  for (std::uint32_t r = 0; r < requests; ++r) {
    std::vector<std::uint32_t> cands;
    for (std::uint32_t b = 0; b < boxes; ++b) {
      if (rng.next_bool(density)) cands.push_back(b);
    }
    if (!cands.empty() && rng.next_bool(0.1)) cands.push_back(cands.front());
    problem.add_request(std::move(cands));
  }
  return problem;
}

f::Cost phases_so_far() {
  return static_cast<f::Cost>(p2pvod::obs::MetricsRegistry::global()
                                  .counter("flow/min_cost_phases")
                                  .value());
}

}  // namespace

// The primal-dual solver and the successive-shortest-path loop it replaced
// reach the same optimum (served count and total cost) on every instance,
// and validate_min_cost accepts the result. Ties may resolve differently.
TEST(MinCostMatcher, MatchesSuccessiveShortestPathsReference) {
  p2pvod::util::Rng rng(0x5550);
  int oversubscribed = 0;
  int costed = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const auto problem = varied_problem(rng);
    const auto costs = random_costs(rng, problem, trial % 2 == 0 ? 1 : 7);
    const auto fast = f::MinCostMatcher::solve(problem, costs);
    const auto reference = ssp_reference(problem, costs);
    ASSERT_EQ(fast.match.served, reference.match.served) << "trial " << trial;
    ASSERT_EQ(fast.total_cost, reference.total_cost) << "trial " << trial;
    ASSERT_NO_THROW(f::validate_min_cost(problem, costs, fast))
        << "trial " << trial;
    std::uint64_t slots = 0;
    for (const std::uint32_t c : problem.capacities()) slots += c;
    if (problem.request_count() > slots) ++oversubscribed;
    if (fast.total_cost > 0) ++costed;
  }
  // The generator must keep covering the hard shapes.
  EXPECT_GT(oversubscribed, 100);
  EXPECT_GT(costed, 200);
}

// Costs past kMaxEdgeCost could overflow a Dijkstra sum or reach the
// "unreachable" distance and silently unserve a request: they are refused.
TEST(MinCostMatcher, RejectsCostsAboveBound) {
  f::ConnectionProblem p(1);
  p.set_capacity(0, 1);
  p.add_request({0});
  constexpr f::Cost kMax = std::numeric_limits<f::Cost>::max();
  EXPECT_THROW((void)f::MinCostMatcher::solve(p, {{kMax / 4}}),
               std::invalid_argument);
  EXPECT_THROW((void)f::MinCostMatcher::solve(p, {{kMax}}),
               std::invalid_argument);
  EXPECT_THROW((void)f::MinCostMatcher::solve(p, {{f::kMaxEdgeCost + 1}}),
               std::invalid_argument);
  const auto at_bound = f::MinCostMatcher::solve(p, {{f::kMaxEdgeCost}});
  EXPECT_EQ(at_bound.match.served, 1u);
  EXPECT_EQ(at_bound.total_cost, f::kMaxEdgeCost);
}

// Every cost at the bound on a chain whose last request reroutes all the
// others: the deepest path sums stay exact.
TEST(MinCostMatcher, ChainAtCostBoundSolvesExactly) {
  constexpr std::uint32_t kN = 1000;
  const auto problem = chain_problem(kN);
  f::EdgeCosts costs(kN + 1, {f::kMaxEdgeCost, f::kMaxEdgeCost});
  costs[kN] = {f::kMaxEdgeCost};
  const auto result = f::MinCostMatcher::solve(problem, costs);
  EXPECT_EQ(result.match.served, kN + 1);
  EXPECT_EQ(result.total_cost,
            static_cast<f::Cost>(kN + 1) * f::kMaxEdgeCost);
  EXPECT_EQ(result.total_cost, ssp_reference(problem, costs).total_cost);
  EXPECT_NO_THROW(f::validate_min_cost(problem, costs, result));
}

// Non-zero costs keep the Dinic fallback out: each r_i prefers box i
// (cost 0) over box i+1 (cost 1), so the first phase seats r_0..r_{n-1} at
// cost 0 and the second reroutes the whole chain for r_n — one admissible
// path 2·10^5 edges deep, walked without recursion. Three Dijkstra passes
// in all: distance 0, distance n, and the one that finds the sink cut off.
TEST(MinCostMatcher, DeepChainDoesNotRecurse) {
  constexpr std::uint32_t kN = 100'000;
  const auto problem = chain_problem(kN);
  f::EdgeCosts costs(kN + 1, {0, 1});
  costs[kN] = {0};
  const f::Cost phases_before = phases_so_far();
  const auto result = f::MinCostMatcher::solve(problem, costs);
  EXPECT_EQ(phases_so_far() - phases_before, 3);
  EXPECT_TRUE(result.match.complete);
  EXPECT_EQ(result.match.served, kN + 1);
  EXPECT_EQ(result.total_cost, static_cast<f::Cost>(kN));
  EXPECT_EQ(result.match.assignment[kN], 0);
  EXPECT_EQ(result.match.assignment[0], 1);
  EXPECT_EQ(result.match.assignment[kN - 1], static_cast<std::int32_t>(kN));
}

// ------------------------------------------------------- validate_min_cost

// Request 0 moved onto the costlier box 1 while box 0 sits idle: a valid,
// maximum assignment, but the residual cycle box0 -> r0 -> box1 -> source
// -> box0 costs 3 - 5 < 0.
TEST(ValidateMinCost, RejectsCostlierAssignment) {
  f::ConnectionProblem p(2);
  p.set_capacity(0, 1);
  p.set_capacity(1, 1);
  p.add_request({0, 1});
  const f::EdgeCosts costs = {{3, 5}};
  f::MinCostResult costly;
  costly.match.assignment = {1};
  costly.match.served = 1;
  costly.match.complete = true;
  costly.total_cost = 5;
  EXPECT_THROW(f::validate_min_cost(p, costs, costly), std::logic_error);

  // Serving the cheaper of two requests competing for one slot is the
  // optimum; serving the costlier one is caught through the sink.
  f::ConnectionProblem q(1);
  q.set_capacity(0, 1);
  q.add_request({0});
  q.add_request({0});
  const f::EdgeCosts shared = {{4}, {1}};
  f::MinCostResult wrong_request;
  wrong_request.match.assignment = {0, -1};
  wrong_request.match.served = 1;
  wrong_request.total_cost = 4;
  EXPECT_THROW(f::validate_min_cost(q, shared, wrong_request),
               std::logic_error);
  wrong_request.match.assignment = {-1, 0};
  wrong_request.total_cost = 1;
  EXPECT_NO_THROW(f::validate_min_cost(q, shared, wrong_request));
}

TEST(ValidateMinCost, RejectsWrongTotalsAndLostMaximality) {
  f::ConnectionProblem p(2);
  p.set_capacity(0, 1);
  p.set_capacity(1, 1);
  p.add_request({0, 1});
  p.add_request({0});
  const f::EdgeCosts costs = {{0, 100}, {0}};
  auto result = f::MinCostMatcher::solve(p, costs);
  auto misreported = result;
  misreported.total_cost = 0;
  EXPECT_THROW(f::validate_min_cost(p, costs, misreported), std::logic_error);

  // The cheap partial matching: r0 on box 0, r1 unserved.
  f::MinCostResult partial;
  partial.match.assignment = {0, -1};
  partial.match.served = 1;
  EXPECT_THROW(f::validate_min_cost(p, costs, partial), std::logic_error);

  // A structurally broken assignment fails validate_assignment first.
  result.match.assignment[1] = 1;  // box 1 is not a candidate of r1
  EXPECT_THROW(f::validate_min_cost(p, costs, result), std::logic_error);
  EXPECT_THROW(f::validate_min_cost(p, {{0, -1}, {0}}, result),
               std::invalid_argument);
}

// ---------------------------------------------------------------- group caps

namespace {

/// Zone-style groups over a random problem: box b lives in zone b % zones,
/// request r in zone r % zones, and an edge's group is the directed zone
/// pair. Mirrors how the simulator maps link caps onto enforce_group_caps.
f::EdgeGroups zone_groups(const f::ConnectionProblem& problem,
                          std::uint32_t zones) {
  f::EdgeGroups groups(problem.request_count());
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    for (const std::uint32_t b : problem.candidates(r)) {
      groups[r].push_back((b % zones) * zones + (r % zones));
    }
  }
  return groups;
}

/// Count each group's usage under an assignment and check it against caps.
void check_group_budgets(const f::ConnectionProblem& problem,
                         const f::EdgeGroups& groups,
                         const std::vector<std::uint32_t>& caps,
                         const std::vector<std::int32_t>& assignment) {
  std::vector<std::uint32_t> used(caps.size(), 0);
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    if (assignment[r] < 0) continue;
    const auto& cands = problem.candidates(r);
    const auto it = std::find(cands.begin(), cands.end(),
                              static_cast<std::uint32_t>(assignment[r]));
    ASSERT_NE(it, cands.end());
    const std::uint32_t g =
        groups[r][static_cast<std::size_t>(it - cands.begin())];
    if (g != f::kUncappedGroup) ++used[g];
  }
  for (std::size_t g = 0; g < caps.size(); ++g) {
    if (caps[g] != f::kUncappedGroup) {
      ASSERT_LE(used[g], caps[g]);
    }
  }
}

}  // namespace

TEST(GroupCaps, AdmissionDropsOverCapThenRescues) {
  // Both requests matched onto box 0 (zone 0) from zone-0 requests is fine;
  // cap the 0->0 link at 1 and the second connection must be dropped, then
  // rescued onto box 1 over the uncapped 1->0 link.
  f::ConnectionProblem p(2);
  p.set_capacity(0, 2);
  p.set_capacity(1, 2);
  p.add_request({0, 1});
  p.add_request({0, 1});
  const f::EdgeCosts costs{{0, 1}, {0, 1}};
  const f::EdgeGroups groups{{0, 1}, {0, 1}};
  const std::vector<std::uint32_t> caps{1, f::kUncappedGroup};

  auto result = f::MinCostMatcher::solve(p, costs).match;
  ASSERT_EQ(result.served, 2u);
  ASSERT_EQ(result.assignment[0], 0);
  ASSERT_EQ(result.assignment[1], 0);

  const auto outcome = f::enforce_group_caps(p, costs, groups, caps, result);
  EXPECT_EQ(outcome.rejections, 1u);
  EXPECT_EQ(outcome.rescues, 1u);
  EXPECT_EQ(result.served, 2u);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.assignment[0], 0);
  EXPECT_EQ(result.assignment[1], 1);  // rescued over the uncapped group
}

TEST(GroupCaps, RescueRespectsBoxCapacity) {
  // The only alternative server has no spare upload slot: the dropped
  // request must stay unserved, never overloading the box.
  f::ConnectionProblem p(2);
  p.set_capacity(0, 2);
  p.set_capacity(1, 1);
  p.add_request({0, 1});
  p.add_request({0, 1});
  p.add_request({1});
  const f::EdgeCosts costs{{0, 0}, {0, 0}, {0}};
  const f::EdgeGroups groups{{0, 1}, {0, 1}, {1}};
  const std::vector<std::uint32_t> caps{1, f::kUncappedGroup};

  auto result = f::MinCostMatcher::solve(p, costs).match;
  ASSERT_EQ(result.served, 3u);
  const auto outcome = f::enforce_group_caps(p, costs, groups, caps, result);
  // Request 2 pins box 1, so requests 0 and 1 both sat on box 0's capped
  // group and the second was dropped. Its rescue candidates: box 0 is out of
  // group budget, box 1 out of upload slots -> it stays unserved.
  EXPECT_EQ(outcome.rejections, 1u);
  EXPECT_EQ(outcome.rescues, 0u);
  EXPECT_EQ(result.served, 2u);
  const auto degrees = result.box_degrees(2);
  EXPECT_LE(degrees[0], 2u);
  EXPECT_LE(degrees[1], 1u);
}

TEST(GroupCaps, UnlimitedBudgetAndUncappedEdgesNeverDrop) {
  // A caps[] entry of kUncappedGroup means unlimited budget; a groups[][j]
  // entry of kUncappedGroup means the edge is outside every group. Neither
  // may ever reject, no matter how much load they carry.
  f::ConnectionProblem p(1);
  p.set_capacity(0, 8);
  f::EdgeCosts costs;
  f::EdgeGroups groups;
  for (int r = 0; r < 8; ++r) {
    p.add_request({0});
    costs.push_back({0});
    groups.push_back({r % 2 == 0 ? 0u : f::kUncappedGroup});
  }
  const std::vector<std::uint32_t> caps{f::kUncappedGroup};
  auto result = p.solve();
  ASSERT_EQ(result.served, 8u);
  const auto outcome = f::enforce_group_caps(p, costs, groups, caps, result);
  EXPECT_EQ(outcome.rejections, 0u);
  EXPECT_EQ(outcome.rescues, 0u);
  EXPECT_EQ(result.served, 8u);
}

TEST(GroupCaps, RescuePicksCheapestThenLowestBox) {
  f::ConnectionProblem p(3);
  p.set_capacity(0, 2);  // room for both, so min-cost parks both on box 0
  p.set_capacity(1, 1);
  p.set_capacity(2, 1);
  p.add_request({0});
  p.add_request({0, 1, 2});
  // Both on the capped group through box 0 -> request 1 dropped; boxes 1 and
  // 2 tie on cost, the lower id must win.
  const f::EdgeCosts costs{{0}, {0, 3, 3}};
  const f::EdgeGroups groups{{0}, {0, 1, 1}};
  const std::vector<std::uint32_t> caps{1, f::kUncappedGroup};
  auto result = f::MinCostMatcher::solve(p, costs).match;
  ASSERT_EQ(result.assignment[0], 0);
  ASSERT_EQ(result.assignment[1], 0);
  const auto outcome = f::enforce_group_caps(p, costs, groups, caps, result);
  EXPECT_EQ(outcome.rescues, 1u);
  EXPECT_EQ(result.assignment[1], 1);
}

TEST(GroupCaps, RejectsBadShapesAndGroupIds) {
  f::ConnectionProblem p(1);
  p.set_capacity(0, 1);
  p.add_request({0});
  auto result = p.solve();
  // Row-count mismatch.
  EXPECT_THROW((void)f::enforce_group_caps(p, {{0}}, {}, {1}, result),
               std::invalid_argument);
  // Row-shape mismatch.
  EXPECT_THROW((void)f::enforce_group_caps(p, {{0}}, {{0, 1}}, {1}, result),
               std::invalid_argument);
  // Out-of-range group id.
  EXPECT_THROW((void)f::enforce_group_caps(p, {{0}}, {{7}}, {1}, result),
               std::invalid_argument);
}

TEST(CappedBruteForce, UnlimitedCapsMatchUncappedReference) {
  p2pvod::util::Rng rng(909);
  for (int trial = 0; trial < 20; ++trial) {
    auto problem = random_problem(rng, 4, 5, 2, 0.5);
    const auto costs = random_costs(rng, problem, 5);
    const auto groups = zone_groups(problem, 2);
    const std::vector<std::uint32_t> caps(4, f::kUncappedGroup);
    const auto capped =
        f::min_cost_capped_brute_force(problem, costs, groups, caps);
    const auto plain = f::min_cost_brute_force(problem, costs);
    ASSERT_EQ(capped.match.served, plain.match.served) << "trial " << trial;
    ASSERT_EQ(capped.total_cost, plain.total_cost) << "trial " << trial;
  }
}

// Acceptance property: on randomized capped instances,
//   admission-only served <= admission+rescue served <= exact capped served,
// and every assignment respects box capacities and group budgets. The exact
// solver upper-bounds the two-pass heuristic by construction.
TEST(GroupCaps, HeuristicBoundedByExactCappedSolver) {
  p2pvod::util::Rng rng(24601);
  for (int trial = 0; trial < 60; ++trial) {
    auto problem = random_problem(rng, 5, 6, 2, 0.45);
    const auto costs = random_costs(rng, problem, 4);
    const auto groups = zone_groups(problem, 2);
    std::vector<std::uint32_t> caps(4);
    for (auto& cap : caps) {
      cap = rng.next_bool(0.25)
                ? f::kUncappedGroup
                : static_cast<std::uint32_t>(rng.next_below(3));
    }

    auto heuristic = f::MinCostMatcher::solve(problem, costs).match;
    const auto outcome =
        f::enforce_group_caps(problem, costs, groups, caps, heuristic);
    ASSERT_LE(outcome.rescues, outcome.rejections) << "trial " << trial;
    const std::uint32_t admission_only = heuristic.served - static_cast<std::uint32_t>(outcome.rescues);

    const auto exact =
        f::min_cost_capped_brute_force(problem, costs, groups, caps);
    ASSERT_LE(admission_only, heuristic.served) << "trial " << trial;
    ASSERT_LE(heuristic.served, exact.match.served) << "trial " << trial;

    check_group_budgets(problem, groups, caps, heuristic.assignment);
    check_group_budgets(problem, groups, caps, exact.match.assignment);
    const auto degrees = heuristic.box_degrees(problem.box_count());
    for (std::uint32_t b = 0; b < problem.box_count(); ++b)
      ASSERT_LE(degrees[b], problem.capacity(b)) << "trial " << trial;
  }
}
