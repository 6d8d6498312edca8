// Min-cost connection matching: among all maximum matchings of a
// ConnectionProblem, find one of minimum total edge cost.
//
// The reduction extends the §2.3 feasibility network with per-edge costs
// (source->box and request->sink edges cost 0, the candidate edge (b, r)
// costs whatever the caller says — in the simulator, the zone-pair transit
// cost between server and requester). The solver is the primal-dual method,
// which does its work per distance level rather than per served chunk. Each
// phase runs one Dijkstra on reduced costs (cost + p[from] - p[to]) and adds
// the distances to the potentials p of the reachable nodes, then pushes a
// maximum flow through the admissible subgraph — residual edges of reduced
// cost exactly 0 — with Dinic-style BFS levels, current arcs and an
// iterative DFS. The loop stops when Dijkstra no longer reaches the sink.
//
// Why it is exact: potentials start at 0 and every original cost is
// non-negative, so they start feasible, and Dijkstra's update keeps every
// residual reduced cost non-negative. A zero-reduced-cost path is a
// shortest path, so each augmentation keeps the flow min-cost for its value,
// and the reverse edges it opens have reduced cost 0, so the potentials stay
// feasible. The flow is maximum when the sink is unreachable, so the final
// matching has the same size as Dinic's and the minimum cost among maximum
// matchings — the same `served` and `total_cost` as one Dijkstra per
// augmenting path (successive shortest paths), the solver this replaced.
// Which optimal matching comes back among ties differs from that solver;
// enforce_group_caps, which runs after the solve, can see the difference.
//
// When every cost is zero the solver falls back to the plain Dinic solve —
// the cost machinery must never change feasibility answers, and cost-blind
// callers get Dinic's exact assignment.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/bipartite.hpp"

namespace p2pvod::flow {

using Cost = std::int64_t;

/// Per-request candidate costs: costs[r][j] is the cost of serving request r
/// from candidates(r)[j]. Shapes must match the problem exactly.
using EdgeCosts = std::vector<std::vector<Cost>>;

/// Largest accepted edge cost. A simple residual path crosses at most two
/// candidate edges per request, so with fewer than 2^32 requests every
/// potential stays within 2^33 * kMaxEdgeCost in magnitude and every
/// Dijkstra sum below 2^35 * kMaxEdgeCost = 2^60, under the solver's
/// "unreachable" distance (2^61 - 1): no sum can overflow or be mistaken for
/// unreachable.
inline constexpr Cost kMaxEdgeCost = Cost{1} << 25;

struct MinCostResult {
  MatchResult match;
  Cost total_cost = 0;
};

class MinCostMatcher {
 public:
  /// Solve for a maximum matching of minimum total cost. Every cost must lie
  /// in [0, kMaxEdgeCost]; throws std::invalid_argument on a shape mismatch
  /// or a cost out of range. Deterministic for a given problem (no RNG,
  /// fixed iteration order).
  [[nodiscard]] static MinCostResult solve(const ConnectionProblem& problem,
                                           const EdgeCosts& costs);
};

/// Throws std::logic_error unless `result` is a maximum matching of minimum
/// cost for `problem` under `costs`, checked without the solver's
/// potentials:
///   - validate_assignment passes and `total_cost` is the assignment's cost
///     (an assigned box listed twice among the candidates counts at its
///     cheapest entry);
///   - `served` equals the Dinic solve's;
///   - the residual network of the assignment has no negative-cost cycle
///     (Bellman-Ford), so no rerouting of served chunks is cheaper.
/// Throws std::invalid_argument when `costs` fails the solver's contract.
void validate_min_cost(const ConnectionProblem& problem,
                       const EdgeCosts& costs, const MinCostResult& result);

/// Exponential reference: enumerate every assignment, keep the best
/// (maximum served, then minimum cost). For the property tests cross-checking
/// MinCostMatcher on small instances; throws std::invalid_argument when the
/// search space exceeds ~2^22 states.
[[nodiscard]] MinCostResult min_cost_brute_force(
    const ConnectionProblem& problem, const EdgeCosts& costs);

/// Per-edge cap groups: groups[r][j] names the shared-capacity group of the
/// edge serving request r from candidates(r)[j] (in the simulator, the
/// directed zone-pair link between the server's and the requester's zones).
/// Same shape contract as EdgeCosts.
using EdgeGroups = std::vector<std::vector<std::uint32_t>>;

/// "This edge belongs to no cap group." A caps[] entry of the same value
/// means the group exists but its budget is unlimited. Numerically equal to
/// net::kUnlimitedLink — the simulator pins that with a static_assert so the
/// topology's cap matrix can be passed through unchanged.
inline constexpr std::uint32_t kUncappedGroup =
    static_cast<std::uint32_t>(-1);

/// What enforce_group_caps did to the matching. `rejections` counts pass-1
/// admission drops — every connection over a group's cap, whether or not
/// pass 2 later rescued it — and `rescues` counts the dropped requests pass 2
/// re-seated, so served-by-admission-alone = result.served - rescues.
struct GroupCapOutcome {
  std::uint64_t rejections = 0;  ///< pass-1 drops (rescued or not)
  std::uint64_t rescues = 0;     ///< pass-2 re-seats of dropped requests
};

/// Cap enforcement over a solved matching, in two deterministic passes:
/// pass 1 walks requests in order and drops any connection whose group is out
/// of budget (admission control); pass 2 gives each dropped request one
/// greedy rescue — the cheapest candidate (ties to the lowest box id) with
/// spare box capacity and group budget. A rescue never displaces a kept
/// connection, so the result can fall short of the true capped optimum;
/// min_cost_capped_brute_force is the exact reference bounding that loss.
/// Mutates `result` (assignment/served/complete) in place. Throws
/// std::invalid_argument on a shape mismatch, an out-of-range group id, or an
/// assignment that is not among the request's candidates.
GroupCapOutcome enforce_group_caps(const ConnectionProblem& problem,
                                   const EdgeCosts& costs,
                                   const EdgeGroups& groups,
                                   const std::vector<std::uint32_t>& caps,
                                   MatchResult& result);

/// Exponential reference for the capped problem: the best assignment (maximum
/// served, then minimum cost) that respects box capacities AND the group
/// caps. Upper-bounds what admission control + rescue can serve; same ~2^22
/// state guard as min_cost_brute_force. Exact capped matching is not a plain
/// flow problem — routing flow through a shared group node would let a
/// request borrow a non-candidate box — hence the exhaustive search.
[[nodiscard]] MinCostResult min_cost_capped_brute_force(
    const ConnectionProblem& problem, const EdgeCosts& costs,
    const EdgeGroups& groups, const std::vector<std::uint32_t>& caps);

}  // namespace p2pvod::flow
