#include "flow/min_cost.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "flow/graph.hpp"
#include "flow/verify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace p2pvod::flow {

namespace {

constexpr Cost kInfCost = std::numeric_limits<Cost>::max() / 4;
// The header's overflow argument: below 2^32 requests, every Dijkstra sum
// is under (8 * 2^32 + 1) * kMaxEdgeCost.
static_assert(kMaxEdgeCost <= kInfCost / ((Cost{8} << 32) + 1),
              "kMaxEdgeCost lets a path sum reach kInfCost");

// Solver work counters. All kStable: the algorithm is sequential and
// deterministic per instance, and the multiset of instances solved is
// thread-count-invariant under the repo's seeding contract.
obs::Counter& solves_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("flow/min_cost_solves");
  return counter;
}
obs::Counter& phases_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("flow/min_cost_phases");
  return counter;
}
obs::Counter& augmentations_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("flow/min_cost_augmentations");
  return counter;
}
obs::Counter& potential_updates_counter() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "flow/min_cost_potential_updates");
  return counter;
}
obs::Histogram& path_length_histogram() {
  static obs::Histogram& histogram = obs::MetricsRegistry::global().histogram(
      "flow/min_cost_path_length", obs::pow2_bounds(8));
  return histogram;
}

void validate(const ConnectionProblem& problem, const EdgeCosts& costs) {
  if (costs.size() != problem.request_count())
    throw std::invalid_argument(
        "MinCostMatcher: costs row count != request count");
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    if (costs[r].size() != problem.candidates(r).size())
      throw std::invalid_argument(
          "MinCostMatcher: costs row shape != candidate set");
    for (const Cost c : costs[r]) {
      if (c < 0)
        throw std::invalid_argument("MinCostMatcher: negative edge cost");
      if (c > kMaxEdgeCost)
        throw std::invalid_argument(
            "MinCostMatcher: edge cost above kMaxEdgeCost");
    }
  }
}

void validate_groups(const ConnectionProblem& problem,
                     const EdgeGroups& groups,
                     const std::vector<std::uint32_t>& caps) {
  if (groups.size() != problem.request_count())
    throw std::invalid_argument(
        "enforce_group_caps: groups row count != request count");
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    if (groups[r].size() != problem.candidates(r).size())
      throw std::invalid_argument(
          "enforce_group_caps: groups row shape != candidate set");
    for (const std::uint32_t g : groups[r]) {
      if (g != kUncappedGroup && g >= caps.size())
        throw std::invalid_argument(
            "enforce_group_caps: group id out of range");
    }
  }
}

// The primal-dual loop over one residual network. Potentials start at 0
// (feasible: every original cost is non-negative) and only grow by Dijkstra
// distances, so every residual edge out of a reachable node keeps a
// non-negative reduced cost; augmenting only along zero-reduced-cost
// (admissible) edges keeps the flow min-cost for its value and gives each
// new reverse edge reduced cost 0 as well.
class PrimalDual {
 public:
  PrimalDual(FlowNetwork& network, const std::vector<Cost>& edge_cost,
             NodeId source, NodeId sink)
      : network_(network),
        edge_cost_(edge_cost),
        source_(source),
        sink_(sink),
        potential_(network.node_count(), 0),
        dist_(network.node_count()),
        level_(network.node_count()),
        next_arc_(network.node_count()) {}

  /// One Dijkstra on reduced costs; adds each reachable node's distance to
  /// its potential. False when the sink is unreachable (flow is maximum).
  bool reprice() {
    phases_counter().add();
    dist_.assign(dist_.size(), kInfCost);
    dist_[source_] = 0;
    heap_.assign(1, {0, source_});
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const auto [d, v] = heap_.back();
      heap_.pop_back();
      if (d > dist_[v]) continue;  // stale entry
      for (const EdgeId e : network_.adjacency(v)) {
        if (network_.residual(e) <= 0) continue;
        const NodeId to = network_.edge_to(e);
        const Cost candidate = d + reduced_cost(v, e);
        if (candidate < dist_[to]) {
          dist_[to] = candidate;
          heap_.emplace_back(candidate, to);
          std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
        }
      }
    }
    if (dist_[sink_] >= kInfCost) return false;

    std::uint64_t updated = 0;
    for (NodeId v = 0; v < potential_.size(); ++v) {
      if (dist_[v] < kInfCost) {
        potential_[v] += dist_[v];
        ++updated;
      }
    }
    potential_updates_counter().add(updated);
    return true;
  }

  /// BFS levels over the admissible subgraph; true when the sink is reached.
  bool build_levels() {
    level_.assign(level_.size(), -1);
    level_[source_] = 0;
    bfs_.assign(1, source_);
    for (std::size_t head = 0; head < bfs_.size(); ++head) {
      const NodeId v = bfs_[head];
      for (const EdgeId e : network_.adjacency(v)) {
        const NodeId to = network_.edge_to(e);
        if (level_[to] < 0 && admissible(v, e)) {
          level_[to] = level_[v] + 1;
          bfs_.push_back(to);
        }
      }
    }
    return level_[sink_] >= 0;
  }

  /// Augment along admissible level-graph paths until none is left. The
  /// DFS keeps its path on an explicit edge stack (augmenting paths can be
  /// as long as the network) and advances per-node current arcs, so each
  /// edge is skipped at most once per call.
  void blocking_flow() {
    next_arc_.assign(next_arc_.size(), 0);
    path_.clear();
    NodeId v = source_;
    for (;;) {
      if (v == sink_) {
        augment();
        path_.clear();
        v = source_;
        continue;
      }
      const auto& edges = network_.adjacency(v);
      std::size_t& arc = next_arc_[v];
      while (arc < edges.size() && !next_level(v, edges[arc])) ++arc;
      if (arc < edges.size()) {
        path_.push_back(edges[arc]);
        v = network_.edge_to(edges[arc]);
        continue;
      }
      level_[v] = -1;  // dead end; prune for the rest of this call
      if (path_.empty()) return;
      const EdgeId back = path_.back();
      path_.pop_back();
      v = network_.edge_to(back ^ 1u);
      ++next_arc_[v];
    }
  }

 private:
  Cost reduced_cost(NodeId from, EdgeId e) const {
    return edge_cost_[e] + potential_[from] -
           potential_[network_.edge_to(e)];
  }
  bool admissible(NodeId from, EdgeId e) const {
    return network_.residual(e) > 0 && reduced_cost(from, e) == 0;
  }
  /// An admissible edge one BFS level down: an arc of the level graph.
  bool next_level(NodeId from, EdgeId e) const {
    return level_[network_.edge_to(e)] == level_[from] + 1 &&
           admissible(from, e);
  }

  /// Push the bottleneck along path_ (always 1 in the matching network:
  /// every path ends on a unit request->sink edge).
  void augment() {
    Capacity bottleneck = kInfCapacity;
    for (const EdgeId e : path_)
      bottleneck = std::min(bottleneck, network_.residual(e));
    for (const EdgeId e : path_) network_.push(e, bottleneck);
    augmentations_counter().add();
    path_length_histogram().observe(path_.size());
  }

  FlowNetwork& network_;
  const std::vector<Cost>& edge_cost_;
  NodeId source_;
  NodeId sink_;
  std::vector<Cost> potential_;
  std::vector<Cost> dist_;
  std::vector<std::int64_t> level_;
  std::vector<std::size_t> next_arc_;
  std::vector<EdgeId> path_;
  std::vector<NodeId> bfs_;
  std::vector<std::pair<Cost, NodeId>> heap_;
};

bool all_zero(const EdgeCosts& costs) {
  for (const auto& row : costs) {
    for (const Cost c : row) {
      if (c != 0) return false;
    }
  }
  return true;
}

}  // namespace

MinCostResult MinCostMatcher::solve(const ConnectionProblem& problem,
                                    const EdgeCosts& costs) {
  OBS_SPAN("flow/min_cost");
  solves_counter().add();
  validate(problem, costs);

  // All-zero costs: every maximum matching is min-cost, so the plain Dinic
  // feasibility solve is the answer (and the cheaper path).
  if (all_zero(costs)) {
    MinCostResult result;
    result.match = problem.solve();
    return result;
  }

  const std::uint32_t boxes = problem.box_count();
  const std::uint32_t requests = problem.request_count();
  FlowNetwork network(boxes + requests + 2);
  const NodeId source = boxes + requests;
  const NodeId sink = source + 1;

  // edge_cost[e] is the cost of traversing (forward or residual) edge e;
  // reverse edges refund the forward cost.
  std::vector<Cost> edge_cost;
  const auto add_edge = [&](NodeId from, NodeId to, Capacity cap, Cost cost) {
    const EdgeId id = network.add_edge(from, to, cap);
    edge_cost.resize(id + 2, 0);
    edge_cost[id] = cost;
    edge_cost[id + 1] = -cost;
    return id;
  };

  for (std::uint32_t b = 0; b < boxes; ++b) {
    if (problem.capacity(b) > 0) add_edge(source, b, problem.capacity(b), 0);
  }
  std::vector<std::vector<EdgeId>> request_box_edges(requests);
  for (std::uint32_t r = 0; r < requests; ++r) {
    const auto candidates = problem.candidates(r);
    request_box_edges[r].reserve(candidates.size());
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      request_box_edges[r].push_back(
          add_edge(candidates[j], boxes + r, 1, costs[r][j]));
    }
    add_edge(boxes + r, sink, 1, 0);
  }

  PrimalDual solver(network, edge_cost, source, sink);
  while (solver.reprice()) {
    while (solver.build_levels()) solver.blocking_flow();
  }

  MinCostResult result;
  result.match.assignment.assign(requests, -1);
  for (std::uint32_t r = 0; r < requests; ++r) {
    const auto candidates = problem.candidates(r);
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (network.flow_on(request_box_edges[r][j]) > 0) {
        result.match.assignment[r] = static_cast<std::int32_t>(candidates[j]);
        result.total_cost += costs[r][j];
        ++result.match.served;
        break;
      }
    }
  }
  result.match.complete = (result.match.served == requests);
  return result;
}

void validate_min_cost(const ConnectionProblem& problem,
                       const EdgeCosts& costs, const MinCostResult& result) {
  validate(problem, costs);
  validate_assignment(problem, result.match);
  const auto fail = [](const std::string& detail) {
    throw std::logic_error("validate_min_cost: " + detail);
  };

  // The assignment's residual network, numbered as in the solver: boxes,
  // requests, source, sink. Each arc is a residual edge with spare capacity.
  struct Arc {
    NodeId from;
    NodeId to;
    Cost cost;
  };
  const std::uint32_t boxes = problem.box_count();
  const std::uint32_t requests = problem.request_count();
  const NodeId source = boxes + requests;
  const NodeId sink = source + 1;
  std::vector<Arc> arcs;
  const std::vector<std::uint32_t> degree =
      result.match.box_degrees(boxes);
  for (std::uint32_t b = 0; b < boxes; ++b) {
    if (degree[b] < problem.capacity(b)) arcs.push_back({source, b, 0});
    if (degree[b] > 0) arcs.push_back({b, source, 0});
  }
  Cost total = 0;
  for (std::uint32_t r = 0; r < requests; ++r) {
    const auto candidates = problem.candidates(r);
    const std::int32_t assigned = result.match.assignment[r];
    std::size_t used = candidates.size();  // the candidate entry serving r
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (static_cast<std::int32_t>(candidates[j]) == assigned &&
          (used == candidates.size() || costs[r][j] < costs[r][used]))
        used = j;
    }
    const NodeId node = boxes + r;
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (j == used) {
        arcs.push_back({node, candidates[j], -costs[r][j]});
      } else {
        arcs.push_back({candidates[j], node, costs[r][j]});
      }
    }
    if (used < candidates.size()) {
      total += costs[r][used];
      arcs.push_back({sink, node, 0});
    } else {
      arcs.push_back({node, sink, 0});
    }
  }
  if (total != result.total_cost)
    fail("total_cost " + std::to_string(result.total_cost) +
         " but the assignment costs " + std::to_string(total));
  const std::uint32_t maximum = problem.solve().served;
  if (result.match.served != maximum)
    fail("served " + std::to_string(result.match.served) +
         " but the maximum matching serves " + std::to_string(maximum));

  // Bellman-Ford from a virtual root at distance 0 to every node: distances
  // settle within node-count passes unless a negative cycle keeps them
  // falling.
  const NodeId nodes = sink + 1;
  std::vector<Cost> dist(nodes, 0);
  for (NodeId pass = 0; pass <= nodes; ++pass) {
    bool changed = false;
    for (const Arc& arc : arcs) {
      if (dist[arc.from] + arc.cost < dist[arc.to]) {
        dist[arc.to] = dist[arc.from] + arc.cost;
        changed = true;
      }
    }
    if (!changed) return;
  }
  fail("the residual network has a negative-cost cycle: a cheaper maximum "
       "matching exists");
}

MinCostResult min_cost_brute_force(const ConnectionProblem& problem,
                                   const EdgeCosts& costs) {
  validate(problem, costs);
  const std::uint32_t requests = problem.request_count();

  double states = 1.0;
  for (std::uint32_t r = 0; r < requests; ++r) {
    states *= static_cast<double>(problem.candidates(r).size() + 1);
    if (states > static_cast<double>(1u << 22))
      throw std::invalid_argument(
          "min_cost_brute_force: instance too large to enumerate");
  }

  std::vector<std::uint32_t> remaining(problem.capacities());
  std::vector<std::int32_t> assignment(requests, -1);
  MinCostResult best;
  best.match.assignment.assign(requests, -1);
  best.total_cost = kInfCost;

  // Depth-first over requests: leave r unserved or give it any candidate
  // with spare capacity; keep (max served, min cost) at the leaves.
  const auto recurse = [&](const auto& self, std::uint32_t r,
                           std::uint32_t served, Cost cost) -> void {
    if (r == requests) {
      if (served > best.match.served ||
          (served == best.match.served && cost < best.total_cost)) {
        best.match.served = served;
        best.total_cost = cost;
        best.match.assignment = assignment;
      }
      return;
    }
    const auto candidates = problem.candidates(r);
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      const std::uint32_t b = candidates[j];
      if (remaining[b] == 0) continue;
      --remaining[b];
      assignment[r] = static_cast<std::int32_t>(b);
      self(self, r + 1, served + 1, cost + costs[r][j]);
      assignment[r] = -1;
      ++remaining[b];
    }
    self(self, r + 1, served, cost);
  };
  recurse(recurse, 0, 0, 0);  // the all-unserved leaf always updates `best`

  best.match.complete = (best.match.served == requests);
  return best;
}

GroupCapOutcome enforce_group_caps(const ConnectionProblem& problem,
                                   const EdgeCosts& costs,
                                   const EdgeGroups& groups,
                                   const std::vector<std::uint32_t>& caps,
                                   MatchResult& result) {
  validate(problem, costs);
  validate_groups(problem, groups, caps);
  if (result.assignment.size() != problem.request_count())
    throw std::invalid_argument(
        "enforce_group_caps: result shape != request count");

  std::vector<std::uint32_t> budget(caps);
  // The candidate index of request r's assignment — groups and costs are
  // candidate-indexed, the assignment is a box id.
  const auto candidate_index = [&](std::uint32_t r, std::uint32_t box) {
    const auto candidates = problem.candidates(r);
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (candidates[j] == box) return j;
    }
    throw std::invalid_argument(
        "enforce_group_caps: assigned box is not a candidate");
  };

  GroupCapOutcome outcome;
  // Pass 1 — admission control in request order: connections beyond a
  // group's cap are dropped and counted. Deterministic (no RNG, fixed
  // order).
  std::vector<std::uint32_t> rejected;
  for (std::uint32_t r = 0; r < result.assignment.size(); ++r) {
    const std::int32_t assigned = result.assignment[r];
    if (assigned < 0) continue;
    const std::uint32_t g =
        groups[r][candidate_index(r, static_cast<std::uint32_t>(assigned))];
    if (g == kUncappedGroup) continue;
    std::uint32_t& left = budget[g];
    if (left == kUncappedGroup) continue;  // unlimited budget
    if (left == 0) {
      result.assignment[r] = -1;
      --result.served;
      ++outcome.rejections;
      rejected.push_back(r);
    } else {
      --left;
    }
  }

  // Pass 2 — one greedy rescue attempt per dropped request: the cheapest
  // candidate (ties to the lowest box id) with spare box capacity and group
  // budget. No augmenting here; a rescue never displaces a kept connection.
  if (!rejected.empty()) {
    std::vector<std::uint32_t> degree =
        result.box_degrees(problem.box_count());
    for (const std::uint32_t r : rejected) {
      const auto candidates = problem.candidates(r);
      std::int32_t best = -1;
      std::size_t best_j = 0;
      for (std::size_t j = 0; j < candidates.size(); ++j) {
        const std::uint32_t b = candidates[j];
        if (degree[b] >= problem.capacity(b)) continue;
        const std::uint32_t g = groups[r][j];
        if (g != kUncappedGroup && budget[g] == 0) continue;
        if (best < 0 || costs[r][j] < costs[r][best_j] ||
            (costs[r][j] == costs[r][best_j] &&
             b < static_cast<std::uint32_t>(best))) {
          best = static_cast<std::int32_t>(b);
          best_j = j;
        }
      }
      if (best < 0) continue;
      result.assignment[r] = best;
      ++result.served;
      ++outcome.rescues;
      ++degree[static_cast<std::uint32_t>(best)];
      const std::uint32_t g = groups[r][best_j];
      if (g != kUncappedGroup && budget[g] != kUncappedGroup) --budget[g];
    }
  }
  result.complete =
      (result.served == static_cast<std::uint32_t>(result.assignment.size()));
  return outcome;
}

MinCostResult min_cost_capped_brute_force(
    const ConnectionProblem& problem, const EdgeCosts& costs,
    const EdgeGroups& groups, const std::vector<std::uint32_t>& caps) {
  validate(problem, costs);
  validate_groups(problem, groups, caps);
  const std::uint32_t requests = problem.request_count();

  double states = 1.0;
  for (std::uint32_t r = 0; r < requests; ++r) {
    states *= static_cast<double>(problem.candidates(r).size() + 1);
    if (states > static_cast<double>(1u << 22))
      throw std::invalid_argument(
          "min_cost_capped_brute_force: instance too large to enumerate");
  }

  std::vector<std::uint32_t> remaining(problem.capacities());
  std::vector<std::uint32_t> budget(caps);
  std::vector<std::int32_t> assignment(requests, -1);
  MinCostResult best;
  best.match.assignment.assign(requests, -1);
  best.total_cost = kInfCost;

  // min_cost_brute_force's DFS plus a group-budget dimension: an edge in a
  // capped group consumes one unit of that group's budget for the subtree.
  const auto recurse = [&](const auto& self, std::uint32_t r,
                           std::uint32_t served, Cost cost) -> void {
    if (r == requests) {
      if (served > best.match.served ||
          (served == best.match.served && cost < best.total_cost)) {
        best.match.served = served;
        best.total_cost = cost;
        best.match.assignment = assignment;
      }
      return;
    }
    const auto candidates = problem.candidates(r);
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      const std::uint32_t b = candidates[j];
      if (remaining[b] == 0) continue;
      const std::uint32_t g = groups[r][j];
      const bool capped = g != kUncappedGroup && budget[g] != kUncappedGroup;
      if (capped && budget[g] == 0) continue;
      --remaining[b];
      if (capped) --budget[g];
      assignment[r] = static_cast<std::int32_t>(b);
      self(self, r + 1, served + 1, cost + costs[r][j]);
      assignment[r] = -1;
      if (capped) ++budget[g];
      ++remaining[b];
    }
    self(self, r + 1, served, cost);
  };
  recurse(recurse, 0, 0, 0);  // the all-unserved leaf always updates `best`

  best.match.complete = (best.match.served == requests);
  return best;
}

}  // namespace p2pvod::flow
