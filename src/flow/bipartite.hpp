// ConnectionProblem: one round of the paper's connection-matching question.
//
// Given the set Y of active stripe requests and, for each request, the set
// B(x) of boxes currently possessing the needed data (static replicas plus
// playback caches, §2.2), find a sub-graph where every request has degree 1
// and every box b has degree at most ⌊u_b c⌋. Lemma 1 reduces existence to a
// max-flow computation; this class owns the reduction and result extraction.
//
// Storage is CSR: request r's candidates are boxes_[offsets_[r],
// offsets_[r + 1]). One problem can be refilled round after round: clear()
// drops the requests but keeps every buffer's capacity, so a steady-state
// refill does no heap allocation. The spans candidates() returns view that
// storage: add_request() and clear() invalidate them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "flow/graph.hpp"

namespace p2pvod::flow {

struct MatchResult {
  /// assignment[r] = serving box for request r, or -1 if unserved.
  std::vector<std::int32_t> assignment;
  std::uint32_t served = 0;
  bool complete = false;  ///< every request served

  /// Per-box degree under the returned assignment.
  [[nodiscard]] std::vector<std::uint32_t> box_degrees(
      std::uint32_t box_count) const;
};

class ConnectionProblem {
 public:
  explicit ConnectionProblem(std::uint32_t box_count);

  /// Set box capacity (stripe connections per round), ⌊u_b c⌋.
  void set_capacity(std::uint32_t box, std::uint32_t capacity);
  /// Copy every box's capacity into the existing buffer; throws
  /// std::invalid_argument unless there is one per box.
  void set_capacities(std::span<const std::uint32_t> capacities);

  /// Add a request and its candidate server set; returns request index.
  /// Throws std::out_of_range (and adds nothing) for a box >= box_count().
  std::uint32_t add_request(std::span<const std::uint32_t> candidate_boxes);
  std::uint32_t add_request(const std::vector<std::uint32_t>& candidate_boxes) {
    return add_request(std::span<const std::uint32_t>(candidate_boxes));
  }

  /// Drop every request. Box count and capacities stay; buffers keep their
  /// capacity for the next refill.
  void clear() noexcept;

  [[nodiscard]] std::uint32_t box_count() const noexcept {
    return static_cast<std::uint32_t>(capacity_.size());
  }
  [[nodiscard]] std::uint32_t request_count() const noexcept {
    return static_cast<std::uint32_t>(offsets_.size() - 1);
  }
  /// Request's candidate boxes; throws std::out_of_range for a bad index.
  [[nodiscard]] std::span<const std::uint32_t> candidates(
      std::uint32_t request) const;
  [[nodiscard]] std::uint32_t capacity(std::uint32_t box) const {
    return capacity_.at(box);
  }
  [[nodiscard]] const std::vector<std::uint32_t>& capacities() const noexcept {
    return capacity_;
  }
  [[nodiscard]] std::uint64_t edge_count() const noexcept {
    return boxes_.size();
  }

  /// Maximum matching by Dinic max-flow on the §2.3 network.
  [[nodiscard]] MatchResult solve() const;

  /// When infeasible, extract a witness violating Lemma 1: a set X of requests
  /// with total demanded stripes |X| exceeding the capacity of B(X). Derived
  /// from the min-cut of the flow network. Empty optional when feasible.
  [[nodiscard]] std::optional<std::vector<std::uint32_t>>
  infeasibility_witness() const;

 private:
  /// Candidates of request r without the bounds check.
  [[nodiscard]] std::span<const std::uint32_t> row(std::uint32_t r) const {
    return {boxes_.data() + offsets_[r], boxes_.data() + offsets_[r + 1]};
  }

  std::vector<std::uint32_t> capacity_;
  std::vector<std::size_t> offsets_{0};  ///< request_count() + 1 entries
  std::vector<std::uint32_t> boxes_;     ///< every request's candidates
};

}  // namespace p2pvod::flow
