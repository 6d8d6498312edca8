#include "flow/verify.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace p2pvod::flow {

namespace {

[[noreturn]] void fail(const std::string& detail) {
  throw std::logic_error("validate_assignment: " + detail);
}

}  // namespace

void validate_assignment(const ConnectionProblem& problem,
                         const MatchResult& result) {
  const std::uint32_t requests = problem.request_count();
  if (result.assignment.size() != requests)
    fail("assignment has " + std::to_string(result.assignment.size()) +
         " entries for " + std::to_string(requests) + " requests");

  std::vector<std::uint32_t> degree(problem.box_count(), 0);
  std::uint32_t matched = 0;
  for (std::uint32_t r = 0; r < requests; ++r) {
    const std::int32_t assigned = result.assignment[r];
    if (assigned < 0) continue;
    const auto box = static_cast<std::uint32_t>(assigned);
    if (box >= problem.box_count())
      fail("request " + std::to_string(r) + " assigned box " +
           std::to_string(box) + " out of range (" +
           std::to_string(problem.box_count()) + " boxes)");
    // Linear membership scan: candidate lists are not required to be sorted
    // here, and the validator must not inherit the assumption under test.
    const auto candidates = problem.candidates(r);
    if (std::find(candidates.begin(), candidates.end(), box) ==
        candidates.end())
      fail("request " + std::to_string(r) + " assigned box " +
           std::to_string(box) + " which is not among its " +
           std::to_string(candidates.size()) + " candidates");
    if (++degree[box] > problem.capacity(box))
      fail("box " + std::to_string(box) + " over capacity " +
           std::to_string(problem.capacity(box)) + " at request " +
           std::to_string(r) + " (degree " + std::to_string(degree[box]) +
           ")");
    ++matched;
  }
  if (result.served != matched)
    fail("served count " + std::to_string(result.served) + " but " +
         std::to_string(matched) + " requests are assigned");
  if (result.complete != (matched == requests))
    fail("complete flag " + std::string(result.complete ? "set" : "unset") +
         " with " + std::to_string(matched) + "/" + std::to_string(requests) +
         " requests served");
}

}  // namespace p2pvod::flow
