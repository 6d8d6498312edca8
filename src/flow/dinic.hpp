// Dinic's maximum-flow algorithm.
//
// On the bipartite unit-request networks produced by the connection-matching
// reduction (§2.2 of the paper) Dinic runs in O(E sqrt(V)) — it degenerates
// exactly into Hopcroft–Karp — so one solver covers both the homogeneous and
// the weighted heterogeneous case (box capacities ⌊u_b c⌋ > 1).
//
// The blocking-flow DFS runs on an explicit frame stack: a level graph can
// be as deep as the network (a chain of displacements through 10^6 boxes),
// far past what recursion survives.
#pragma once

#include <vector>

#include "flow/graph.hpp"

namespace p2pvod::flow {

class Dinic {
 public:
  explicit Dinic(FlowNetwork& network) : network_(network) {}

  /// Compute the maximum flow from `source` to `sink`. The network keeps the
  /// final flow (inspect via FlowNetwork::flow_on); call reset_flow() to reuse.
  Capacity max_flow(NodeId source, NodeId sink);

  /// Nodes reachable from `source` in the residual graph after max_flow();
  /// the source side of a minimum cut (used to extract Hall-violating sets).
  [[nodiscard]] std::vector<bool> min_cut_source_side(NodeId source) const;

 private:
  /// One DFS frame: node `v` may push at most `limit`, has pushed `pushed`;
  /// the arc it is exploring is next_arc_[v].
  struct Frame {
    NodeId v;
    Capacity limit;
    Capacity pushed;
  };

  bool build_levels(NodeId source, NodeId sink);
  /// Push a blocking flow along the current level graph; returns its value.
  Capacity blocking_flow(NodeId source, NodeId sink);

  FlowNetwork& network_;
  std::vector<std::int32_t> level_;
  std::vector<std::uint32_t> next_arc_;
  std::vector<Frame> stack_;
};

}  // namespace p2pvod::flow
