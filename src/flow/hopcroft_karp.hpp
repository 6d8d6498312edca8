// Capacity-aware Hopcroft–Karp for bipartite degree-constrained matching.
//
// Left vertices are stripe requests (each must be matched exactly once);
// right vertices are boxes with integral capacity cap_b = ⌊u_b c⌋ (§2.2:
// "each box b has degree at most u_b c"). The classical algorithm generalizes
// to right capacities by treating a right vertex as free while its matched
// degree is below cap_b — the phase structure and O(E sqrt(V)) bound carry
// over (equivalent to HK on the graph with cap_b copies of each box, without
// materializing the copies).
//
// No round engine uses it: ConnectionProblem::solve runs Dinic, which
// degenerates into Hopcroft–Karp on these networks. It stays as an
// independent oracle that tests and micro-benchmarks cross-check against.
#pragma once

#include <cstdint>
#include <vector>

namespace p2pvod::flow {

class HopcroftKarp {
 public:
  /// adjacency[r] lists candidate boxes of request r; capacities[b] is box
  /// b's degree budget.
  HopcroftKarp(const std::vector<std::vector<std::uint32_t>>& adjacency,
               std::vector<std::uint32_t> capacities);

  /// Maximum number of requests that can be simultaneously matched.
  std::uint32_t solve();

  /// After solve(): assignment[r] = box serving request r, or -1 if unmatched.
  [[nodiscard]] const std::vector<std::int32_t>& assignment() const {
    return match_left_;
  }

 private:
  bool bfs_layers();
  bool dfs_augment(std::uint32_t request);

  const std::vector<std::vector<std::uint32_t>>& adjacency_;
  std::vector<std::uint32_t> capacity_;
  std::vector<std::uint32_t> degree_;        // matched degree per box
  std::vector<std::int32_t> match_left_;     // request -> box
  std::vector<std::uint32_t> layer_;         // BFS layer per request
  std::vector<std::uint32_t> box_layer_;     // BFS layer per box
  std::vector<std::vector<std::uint32_t>> box_matches_;  // box -> requests
  static constexpr std::uint32_t kInfLayer = 0xffffffffu;
};

}  // namespace p2pvod::flow
