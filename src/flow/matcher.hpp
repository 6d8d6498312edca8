// Round-to-round matching with connection reuse.
//
// The paper's model lets boxes keep connections across rounds and only wire
// new ones (one round is "the time necessary for a box to establish a
// connection", §1.1). IncrementalMatcher exploits that: requests that keep a
// still-valid server stay put; only new/broken requests are (re)matched via
// augmenting paths. Results are always verified identical in service count
// to a from-scratch solve (SimulatorOptions::verify_incremental).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "flow/bipartite.hpp"

namespace p2pvod::flow {

struct IncrementalStats {
  std::uint64_t kept_connections = 0;
  std::uint64_t new_connections = 0;
};

class IncrementalMatcher {
 public:
  explicit IncrementalMatcher(std::uint32_t box_count);

  /// Solve the round's problem given `carry`: carry[r] is the box that served
  /// request r in the previous round (or -1 if new). Carried assignments are
  /// kept when the box is still a candidate and capacity permits; remaining
  /// requests are matched with Kuhn-style augmentation over the residual
  /// capacities. Returns the same MatchResult contract as
  /// ConnectionProblem::solve (maximum matching: augmentation is exhaustive).
  [[nodiscard]] MatchResult solve(const ConnectionProblem& problem,
                                  const std::vector<std::int32_t>& carry);

  [[nodiscard]] const IncrementalStats& stats() const noexcept {
    return stats_;
  }

 private:
  bool augment(const ConnectionProblem& problem, std::uint32_t request,
               std::vector<std::int32_t>& assignment,
               std::vector<std::uint32_t>& degree,
               std::vector<std::vector<std::uint32_t>>& served_by,
               std::vector<bool>& visited_box);

  std::uint32_t box_count_;
  IncrementalStats stats_;
};

}  // namespace p2pvod::flow
