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
//
// Storage. Each stripe's entries form one contiguous row, in grant order,
// inside a single pooled arena (a span handle {offset, size, capacity} per
// stripe, not a vector per stripe). A full row relocates to the arena tail
// with doubled capacity; erasures shift the row in place and keep grant
// order; a row that empties gives its span back. The arena compacts once
// the slots holding no entry (abandoned spans and unused row capacity) are
// at least half of it and it has at least 4096 slots — flow::CsrProblem's
// floor — so it never holds more than twice the entries plus that floor.
//
// Beside the rows, every box has a chain of its grants {stripe, entry} in
// one slab with a free list. prune() unlinks each dropped entry from its
// box's chain, so the chains hold exactly the in-window grants, and
// remove_box() walks only the failed box's chain: it costs O(the box's
// entries + the rows they sit in), not O(stripes).
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
  /// and book the stripe for pruning at entry + window + 1. `box` must be a
  /// real box (not kInvalidBox).
  void grant(model::StripeId stripe, model::BoxId box, model::Round entry);

  /// Append to `out` every box that, per the §2.2 rule, possesses the chunk a
  /// request issued at `issue` needs at round `now`; `exclude` (the
  /// requester) is skipped. Boxes come in grant order. Returns the number of
  /// boxes appended.
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
  /// each stripe that lost at least one entry is appended once, in ascending
  /// order (the sparse candidate index needs to know which rows to strip).
  /// Costs O(the box's entries + the rows they sit in).
  std::uint64_t remove_box(model::BoxId box,
                           std::vector<model::StripeId>* affected = nullptr);

  [[nodiscard]] std::uint64_t entry_count() const noexcept { return entries_; }

  /// Throw std::logic_error unless the rows and the box chains agree:
  ///   - entry_count() equals the row sum and the chain sum, and every held
  ///     entry appears exactly once in its box's chain;
  ///   - as of the last prune(now), no row entry or chained grant is older
  ///     than now - window;
  ///   - every row lies inside the arena, the slab holds only chained or
  ///     free nodes, and the arena holds at most twice the entries plus the
  ///     compaction floor (bounded memory).
  void check_invariants() const;

 private:
  using Due = std::pair<model::Round, model::StripeId>;

  /// One stripe's row: pool_[offset, offset + size), room for `capacity`.
  struct Span {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };
  /// One grant on its box's chain; `next` links the chain or the free list.
  struct ChainNode {
    model::Round entry;
    model::StripeId stripe;
    std::uint32_t next;
  };
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  /// Move `row` to the arena tail with room for `capacity` entries.
  void relocate(Span& row, std::uint32_t capacity);
  /// Stable-erase the entries of `row` matching `drop`; a row left empty
  /// gives its span back. Returns the number erased.
  template <typename Drop>
  std::uint32_t erase_from_row(Span& row, Drop drop);
  /// Remove one chain node of `box` recording (stripe, entry).
  void unlink(model::BoxId box, model::StripeId stripe, model::Round entry);
  void maybe_compact();

  std::vector<Span> rows_;
  /// The arena every row spans into.
  std::vector<Entry> pool_;
  /// The chain slab; free nodes are linked from free_node_.
  std::vector<ChainNode> nodes_;
  std::uint32_t free_node_ = kNil;
  /// First node of each box's chain; kNil = no grants.
  std::vector<std::uint32_t> chain_head_;
  /// (round an entry leaves the window, its stripe), earliest first. A
  /// stripe may repeat; a revisit finds nothing left to drop.
  std::priority_queue<Due, std::vector<Due>, std::greater<>> calendar_;
  model::Round window_;
  /// `now - window` of the last prune: no held entry is older.
  model::Round pruned_below_ = std::numeric_limits<model::Round>::min();
  std::uint64_t entries_ = 0;
  /// remove_box's rows, reused across calls.
  std::vector<model::StripeId> scratch_stripes_;
};

}  // namespace p2pvod::sim
