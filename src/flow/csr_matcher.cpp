#include "flow/csr_matcher.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace p2pvod::flow {

namespace {

/// Search accounting. The multiset of searches and their outcomes is fixed
/// by the round schedule (calls happen sequentially within one trial), so
/// every metric is thread-count-invariant.
struct SearchCounters {
  obs::Counter& augments;  ///< augment() calls
  obs::Histogram& depth;   ///< augment()'s deepest frame stack
  obs::Counter& steps;     ///< candidate boxes examined, both entry points
  static SearchCounters& get() {
    static SearchCounters counters{
        obs::MetricsRegistry::global().counter("flow/csr_augments"),
        obs::MetricsRegistry::global().histogram("flow/csr_augment_depth",
                                                 obs::pow2_bounds(12)),
        obs::MetricsRegistry::global().counter("flow/csr_search_steps")};
    return counters;
  }
};

}  // namespace

CsrMatcher::CsrMatcher(std::uint32_t box_count)
    : degree_(box_count, 0),
      served_by_(box_count),
      visit_mark_(box_count, 0) {}

void CsrMatcher::ensure_rows(std::uint32_t rows) {
  if (rows > assignment_.size()) assignment_.resize(rows, -1);
}

void CsrMatcher::unassign(std::uint32_t row) {
  const std::int32_t assigned = assignment_.at(row);
  if (assigned < 0) return;
  assignment_[row] = -1;
  const auto box = static_cast<std::uint32_t>(assigned);
  auto& servings = served_by_[box];
  servings.erase(std::find(servings.begin(), servings.end(), row));
  --degree_[box];
}

void CsrMatcher::unassign_box(std::uint32_t box,
                              std::vector<std::uint32_t>& out) {
  auto& servings = served_by_.at(box);
  for (const std::uint32_t row : servings) {
    assignment_[row] = -1;
    out.push_back(row);
  }
  servings.clear();
  degree_[box] = 0;
}

void CsrMatcher::next_epoch() {
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(visit_mark_.begin(), visit_mark_.end(), 0u);
    epoch_ = 0;
  }
  ++epoch_;
}

void CsrMatcher::assign(std::uint32_t row, std::uint32_t box) {
  assignment_[row] = static_cast<std::int32_t>(box);
  served_by_[box].push_back(row);
  ++degree_[box];
}

template <class RowsOf>
bool CsrMatcher::search(const RowsOf& rows_of,
                        std::span<const std::uint32_t> capacity,
                        std::uint32_t row, std::size_t& max_depth,
                        std::uint64_t& steps) {
  max_depth = 1;
  std::uint64_t examined = 0;
  next_epoch();
  stack_.clear();
  stack_.push_back({row, 0, 0, false});
  while (!stack_.empty()) {
    Frame& f = stack_.back();
    const std::span<const std::uint32_t> candidates = rows_of(f.row);
    if (!f.in_box) {
      if (f.ci == 0) {
        // First entry (leaving a box always advances ci): look ahead over
        // the whole row for a box below capacity.
        for (std::uint32_t i = 0; i < candidates.size(); ++i) {
          const std::uint32_t box = candidates[i];
          if (degree_[box] >= capacity[box]) continue;
          // Free slot found: commit the whole alternating path. The tail
          // row takes the free slot; every ancestor overwrites the serving
          // its child vacated (served_by_ positions stay put, so no vector
          // churn along the path).
          steps += examined + i + 1;
          assign(f.row, box);
          for (std::size_t k = stack_.size() - 1; k-- > 0;) {
            const Frame& parent = stack_[k];
            const std::uint32_t parent_box = rows_of(parent.row)[parent.ci];
            served_by_[parent_box][parent.si] = parent.row;
            assignment_[parent.row] = static_cast<std::int32_t>(parent_box);
          }
          return true;
        }
        examined += candidates.size();
      }
      // Every box of the row is saturated: descend into the next one this
      // search has not explored yet.
      while (f.ci < candidates.size() &&
             visit_mark_[candidates[f.ci]] == epoch_) {
        ++examined;
        ++f.ci;
      }
      if (f.ci == candidates.size()) {
        stack_.pop_back();
        if (!stack_.empty()) ++stack_.back().si;
        continue;
      }
      ++examined;
      visit_mark_[candidates[f.ci]] = epoch_;
      f.in_box = true;
      f.si = 0;
    }
    const auto& servings = served_by_[candidates[f.ci]];
    if (f.si >= servings.size()) {
      f.in_box = false;
      ++f.ci;
      continue;
    }
    // Descend: can servings[f.si] be rerouted elsewhere? (Push invalidates
    // `f`; the loop re-derives the reference next iteration.)
    stack_.push_back({servings[f.si], 0, 0, false});
    max_depth = std::max(max_depth, stack_.size());
  }
  steps += examined;
  return false;
}

bool CsrMatcher::augment(const CsrProblem& csr,
                         std::span<const std::uint32_t> capacity,
                         std::uint32_t row) {
  OBS_SPAN("flow/csr_augment");
  SearchCounters& counters = SearchCounters::get();
  counters.augments.add();
  std::size_t max_depth = 1;
  std::uint64_t steps = 0;
  const bool served = search(
      [&csr](std::uint32_t r) { return csr.row(r); }, capacity, row,
      max_depth, steps);
  counters.depth.observe(max_depth);
  counters.steps.add(steps);
  return served;
}

CsrMatcher::RepairResult CsrMatcher::repair(
    const ConnectionProblem& problem, std::vector<std::int32_t>& carry) {
  const std::uint32_t boxes = problem.box_count();
  const std::uint32_t requests = problem.request_count();
  const std::span<const std::uint32_t> capacity = problem.capacities();
  degree_.assign(boxes, 0);
  served_by_.resize(boxes);
  for (auto& servings : served_by_) servings.clear();
  visit_mark_.resize(boxes, 0);  // stale marks are older epochs
  assignment_.assign(requests, -1);

  RepairResult result;
  // Keep carried connections that are still valid.
  for (std::uint32_t r = 0; r < requests && r < carry.size(); ++r) {
    if (carry[r] < 0) continue;
    const auto box = static_cast<std::uint32_t>(carry[r]);
    if (box >= boxes || degree_[box] >= capacity[box]) continue;
    const std::span<const std::uint32_t> candidates = problem.candidates(r);
    if (std::find(candidates.begin(), candidates.end(), box) ==
        candidates.end())
      continue;
    assign(r, box);
    ++result.kept_connections;
  }

  // Augment the rest. Exhaustive from a valid partial matching, so the
  // result is maximum (Berge): keeping edges never costs a served request.
  const auto rows_of = [&problem](std::uint32_t r) {
    return problem.candidates(r);
  };
  std::size_t max_depth = 1;
  std::uint64_t steps = 0;
  for (std::uint32_t r = 0; r < requests; ++r) {
    if (assignment_[r] < 0 && search(rows_of, capacity, r, max_depth, steps))
      ++result.new_connections;
  }
  SearchCounters::get().steps.add(steps);

  result.served = static_cast<std::uint32_t>(result.kept_connections +
                                             result.new_connections);
  assignment_.swap(carry);
  return result;
}

}  // namespace p2pvod::flow
