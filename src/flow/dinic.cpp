#include "flow/dinic.hpp"

#include <algorithm>
#include <deque>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace p2pvod::flow {

namespace {

// kStable: sequential algorithm, deterministic per instance.
obs::Counter& solves_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("flow/dinic_solves");
  return counter;
}
obs::Counter& phases_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("flow/dinic_phases");
  return counter;
}

}  // namespace

bool Dinic::build_levels(NodeId source, NodeId sink) {
  level_.assign(network_.node_count(), -1);
  std::deque<NodeId> queue;
  level_[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (const EdgeId e : network_.adjacency(v)) {
      const NodeId w = network_.to_[e];
      if (network_.cap_[e] > 0 && level_[w] < 0) {
        level_[w] = level_[v] + 1;
        queue.push_back(w);
      }
    }
  }
  return level_[sink] >= 0;
}

Capacity Dinic::blocking_flow(NodeId source, NodeId sink) {
  // Each frame is one call of the textbook recursive DFS: try the current
  // arc; when the child returns flow, push it and retry the same arc (it may
  // still have residual capacity); when it returns none, advance the arc. A
  // node whose arcs run out is a dead end for the rest of the phase.
  stack_.assign(1, Frame{source, kInfCapacity, 0});
  Capacity returned = 0;  // flow pushed by the frame just popped
  bool resumed = false;   // the top frame's child has just returned
  for (;;) {
    Frame& f = stack_.back();
    const NodeId v = f.v;
    bool done = v == sink || f.limit == 0;
    if (done) {
      f.pushed = f.limit;
    } else {
      auto& arc = next_arc_[v];
      const auto& edges = network_.adjacency_[v];
      if (resumed) {
        resumed = false;
        if (returned > 0) {
          network_.push(edges[arc], returned);
          f.pushed += returned;
          done = f.pushed == f.limit;
        } else {
          ++arc;
        }
      }
      if (!done) {
        while (arc < edges.size()) {
          const EdgeId e = edges[arc];
          if (network_.cap_[e] > 0 &&
              level_[network_.to_[e]] == level_[v] + 1)
            break;
          ++arc;
        }
        if (arc < edges.size()) {
          const EdgeId e = edges[arc];
          const Capacity limit = std::min(f.limit - f.pushed, network_.cap_[e]);
          stack_.push_back({network_.to_[e], limit, 0});  // invalidates f
          continue;
        }
        level_[v] = -1;  // dead end; prune for this phase
      }
    }
    returned = stack_.back().pushed;
    stack_.pop_back();
    if (stack_.empty()) return returned;
    resumed = true;
  }
}

Capacity Dinic::max_flow(NodeId source, NodeId sink) {
  OBS_SPAN("flow/dinic");
  solves_counter().add();
  Capacity total = 0;
  while (build_levels(source, sink)) {
    phases_counter().add();
    next_arc_.assign(network_.node_count(), 0);
    total += blocking_flow(source, sink);
  }
  return total;
}

std::vector<bool> Dinic::min_cut_source_side(NodeId source) const {
  std::vector<bool> reachable(network_.node_count(), false);
  std::deque<NodeId> queue;
  reachable[source] = true;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (const EdgeId e : network_.adjacency(v)) {
      const NodeId w = network_.to_[e];
      if (network_.cap_[e] > 0 && !reachable[w]) {
        reachable[w] = true;
        queue.push_back(w);
      }
    }
  }
  return reachable;
}

}  // namespace p2pvod::flow
