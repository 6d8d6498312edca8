#include "flow/matcher.hpp"

#include <stdexcept>

namespace p2pvod::flow {

IncrementalMatcher::IncrementalMatcher(std::uint32_t box_count)
    : box_count_(box_count) {}

bool IncrementalMatcher::augment(
    const ConnectionProblem& problem, std::uint32_t request,
    std::vector<std::int32_t>& assignment, std::vector<std::uint32_t>& degree,
    std::vector<std::vector<std::uint32_t>>& served_by,
    std::vector<bool>& visited_box) {
  for (const std::uint32_t b : problem.candidates(request)) {
    if (visited_box[b]) continue;
    visited_box[b] = true;
    if (degree[b] < problem.capacity(b)) {
      assignment[request] = static_cast<std::int32_t>(b);
      served_by[b].push_back(request);
      ++degree[b];
      return true;
    }
    for (auto& other : served_by[b]) {
      if (augment(problem, other, assignment, degree, served_by,
                  visited_box)) {
        // `other` found a different box; its slot on b goes to `request`.
        other = request;
        assignment[request] = static_cast<std::int32_t>(b);
        return true;
      }
    }
  }
  return false;
}

MatchResult IncrementalMatcher::solve(const ConnectionProblem& problem,
                                      const std::vector<std::int32_t>& carry) {
  if (problem.box_count() != box_count_)
    throw std::invalid_argument("IncrementalMatcher: box count changed");

  const std::uint32_t requests = problem.request_count();
  std::vector<std::int32_t> assignment(requests, -1);
  std::vector<std::uint32_t> degree(box_count_, 0);
  std::vector<std::vector<std::uint32_t>> served_by(box_count_);

  // Phase 1: keep carried connections that are still valid.
  for (std::uint32_t r = 0; r < requests && r < carry.size(); ++r) {
    const std::int32_t prev = carry[r];
    if (prev < 0) continue;
    const auto b = static_cast<std::uint32_t>(prev);
    if (b >= box_count_ || degree[b] >= problem.capacity(b)) continue;
    bool still_candidate = false;
    for (const std::uint32_t cand : problem.candidates(r)) {
      if (cand == b) {
        still_candidate = true;
        break;
      }
    }
    if (!still_candidate) continue;
    assignment[r] = prev;
    served_by[b].push_back(r);
    ++degree[b];
    ++stats_.kept_connections;
  }

  // Phase 2: augmenting paths for the rest. Kuhn with per-request visited
  // reset; exhaustive, so the final matching is maximum given the kept edges.
  // (Keeping edges cannot reduce the max matching size: any kept edge lies in
  // some maximum matching of this bipartite b-matching by the exchange
  // argument, applied one kept edge at a time.)
  std::vector<bool> visited_box(box_count_);
  for (std::uint32_t r = 0; r < requests; ++r) {
    if (assignment[r] >= 0) continue;
    visited_box.assign(box_count_, false);
    if (augment(problem, r, assignment, degree, served_by, visited_box))
      ++stats_.new_connections;
  }

  MatchResult result;
  result.assignment = std::move(assignment);
  for (const std::int32_t a : result.assignment) {
    if (a >= 0) ++result.served;
  }
  result.complete = (result.served == requests);
  return result;
}

}  // namespace p2pvod::flow
