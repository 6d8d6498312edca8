// Playback-cache availability index.
//
// §1.1: "a box stores the video it is playing, as data arrives, in a cache
// ... this cache contains all the data most recently viewed up to a video
// file size." §2.2 turns that into the availability rule we index here: the
// data at position (t - t_i) of stripe s is possessed by every box whose own
// request for s was issued at t_j with  t - T <= t_j < t_i  (strictly earlier
// joiners still inside the retention window).
//
// The index stores, per stripe, the cache grants (box, entry round) and
// answers "who can serve request (s, t_i) at round t" — excluding the
// requester itself. It is the simulator's only record of cache expiry:
// prune() visits only the stripes whose entries left the window, from a
// round-keyed calendar, and reports every entry it drops.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "model/ids.hpp"

namespace p2pvod::sim {

class CacheIndex {
 public:
  /// One cache entry: `box` holds `stripe` as if it started at `entry`.
  struct Entry {
    model::StripeId stripe;
    model::BoxId box;
    model::Round entry;
  };

  CacheIndex(std::uint32_t stripe_count, model::Round window);

  /// Record that `box` holds the stream of `stripe` as if started at `entry`,
  /// and book the stripe for pruning at entry + window + 1.
  void grant(model::StripeId stripe, model::BoxId box, model::Round entry);

  /// Append to `out` every box that, per the §2.2 rule, possesses the chunk a
  /// request issued at `issue` needs at round `now`; `exclude` (the
  /// requester) is skipped. Returns the number of boxes appended.
  std::size_t collect_servers(model::StripeId stripe, model::Round issue,
                              model::Round now, model::BoxId exclude,
                              std::vector<model::BoxId>& out) const;

  /// Drop every entry that left the retention window (entry < now - window)
  /// by visiting only the stripes booked for a round <= now. When `expired`
  /// is non-null, each dropped entry is appended to it, exactly once. An
  /// entry that died in remove_box is never reported.
  void prune(model::Round now, std::vector<Entry>* expired = nullptr);

  /// Drop every entry of `box` (the box failed: its cache is gone). Returns
  /// the number of entries removed. When `affected` is non-null, the id of
  /// each stripe that lost at least one entry is appended once (the sparse
  /// candidate index needs to know which rows to strip).
  std::uint64_t remove_box(model::BoxId box,
                           std::vector<model::StripeId>* affected = nullptr);

  [[nodiscard]] std::uint64_t entry_count() const noexcept { return entries_; }

  /// Throw std::logic_error unless entry_count() equals the per-stripe sum
  /// and, as of the last prune(now), no entry is older than now - window.
  void check_invariants() const;

 private:
  using Due = std::pair<model::Round, model::StripeId>;

  std::vector<std::vector<Entry>> per_stripe_;
  /// (round an entry leaves the window, its stripe), earliest first. A
  /// stripe may repeat; a revisit finds nothing left to drop.
  std::priority_queue<Due, std::vector<Due>, std::greater<>> calendar_;
  model::Round window_;
  /// `now - window` of the last prune: no held entry is older.
  model::Round pruned_below_ = std::numeric_limits<model::Round>::min();
  std::uint64_t entries_ = 0;
};

}  // namespace p2pvod::sim
