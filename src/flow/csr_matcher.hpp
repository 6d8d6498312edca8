// Incremental b-matching repair: the round loop's cost-blind matcher.
//
// The paper's model lets boxes keep connections across rounds and only wire
// new ones (one round is "the time necessary for a box to establish a
// connection", §1.1). CsrMatcher serves both round engines with one
// augmenting-path search:
//   - sparse (E16): the matching itself stays alive across rounds over a
//     CsrProblem. Retiring requests unassign their slot, churned boxes
//     bulk-unassign everything they served, and each round only the
//     currently unmatched slots seed augment() calls;
//   - dense: repair() takes the round's freshly built ConnectionProblem and
//     last round's assignment, keeps every carried connection that is still
//     valid and augments the rest.
//
// Before it descends, the search looks ahead (MC21, Duff 1981): when it
// first enters a row it scans the whole row once for a box below capacity
// and takes it. Only a row whose boxes are all saturated descends into a
// box's servings, so a free box late in a row is found without a deep
// detour through the earlier ones. Degrees do not change during a search,
// so every box the descent marks visited is saturated and the descent never
// tests capacity itself.
//
// Two ingredients keep an augmentation O(edges explored):
//   - visited marks are epoch stamps (one uint32 per box, bumped per call),
//     so there is no per-call O(n) clear;
//   - the alternating-path search is an explicit frame stack, not recursion,
//     so a million-deep path cannot smash the C++ stack.
//
// The search is still a depth-first search for an augmenting path in which
// a box is explored at most once: the lookahead only changes which box, and
// so which path, is taken first. It finds a path whenever one exists, and
// starting from any valid partial matching, exhaustively augmenting every
// unmatched slot yields a maximum matching (Berge). Either engine therefore
// serves exactly as many requests as a from-scratch solve — the equivalence
// the simulator's verify path checks. flow/csr_search_steps counts the
// candidate boxes the search examines (lookahead scans plus descents), over
// augment() and repair() alike.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flow/bipartite.hpp"
#include "flow/csr_problem.hpp"

namespace p2pvod::flow {

class CsrMatcher {
 public:
  /// No per-box state until the first repair() sizes it from its problem.
  CsrMatcher() = default;
  /// Per-box state for `box_count` boxes, for augment() over a CsrProblem.
  explicit CsrMatcher(std::uint32_t box_count);

  /// Grow the slot table so slots [0, rows) are addressable.
  void ensure_rows(std::uint32_t rows);

  /// Box serving `row`, or -1.
  [[nodiscard]] std::int32_t assignment(std::uint32_t row) const {
    return assignment_.at(row);
  }
  /// Connections currently served by `box`.
  [[nodiscard]] std::uint32_t degree(std::uint32_t box) const {
    return degree_.at(box);
  }

  /// Drop `row`'s assignment (request retired, or its server left the row).
  void unassign(std::uint32_t row);

  /// Drop every connection `box` serves (it went offline). The affected rows
  /// are appended to `out` so the caller can re-augment them.
  void unassign_box(std::uint32_t box, std::vector<std::uint32_t>& out);

  /// Find an augmenting path from unmatched `row` and apply it. Capacity is
  /// indexed by box id; candidate rows come from `csr`. Returns true when
  /// `row` ends up served (every displaced row stays served).
  bool augment(const CsrProblem& csr, std::span<const std::uint32_t> capacity,
               std::uint32_t row);

  struct RepairResult {
    std::uint32_t served = 0;  ///< size of the maximum matching
    std::uint64_t kept_connections = 0;  ///< carried connections kept
    std::uint64_t new_connections = 0;   ///< requests served by augmenting
  };

  /// Dense round: discard the current matching, re-size per-box state to
  /// `problem`, keep each carry[r] (the box that served request r last
  /// round, or -1) that is still a candidate of r with spare capacity, in
  /// request order, then augment every other request in order. On return
  /// `carry` holds the new maximum matching, one entry per request in
  /// ConnectionProblem::solve()'s form (box or -1). The matcher swaps its
  /// buffer with `carry`, so a steady-state round allocates nothing; its
  /// own slot state is then stale, and only another repair() may follow.
  RepairResult repair(const ConnectionProblem& problem,
                      std::vector<std::int32_t>& carry);

 private:
  struct Frame {
    std::uint32_t row;  ///< request slot this frame tries to serve
    std::uint32_t ci;   ///< index into the row's candidate list
    std::uint32_t si;   ///< index into served_by_[candidate] when descending
    bool in_box;        ///< true while iterating the candidate's servings
  };

  void next_epoch();
  void assign(std::uint32_t row, std::uint32_t box);
  /// The augmenting-path search behind augment() and repair(): `rows_of(r)`
  /// yields row r's candidate boxes. Sets `max_depth` to the deepest frame
  /// stack reached and adds the candidate boxes examined to `steps`.
  template <class RowsOf>
  bool search(const RowsOf& rows_of, std::span<const std::uint32_t> capacity,
              std::uint32_t row, std::size_t& max_depth, std::uint64_t& steps);

  std::vector<std::int32_t> assignment_;           ///< per slot, -1 = free
  std::vector<std::uint32_t> degree_;              ///< per box
  std::vector<std::vector<std::uint32_t>> served_by_;  ///< per box: slots
  std::vector<std::uint32_t> visit_mark_;          ///< per box, epoch stamp
  std::uint32_t epoch_ = 0;
  std::vector<Frame> stack_;  ///< reused across augment calls
};

}  // namespace p2pvod::flow
