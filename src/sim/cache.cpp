#include "sim/cache.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>

#include "obs/trace.hpp"

namespace p2pvod::sim {

namespace {

/// flow::CsrProblem's compaction floor: smaller arenas never compact.
constexpr std::size_t kCompactFloor = 4096;

}  // namespace

CacheIndex::CacheIndex(std::uint32_t stripe_count, model::Round window)
    : rows_(stripe_count), window_(window) {
  if (window <= 0) throw std::invalid_argument("CacheIndex: window <= 0");
}

void CacheIndex::relocate(Span& row, std::uint32_t capacity) {
  if (pool_.size() + capacity > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("CacheIndex: arena exceeds 2^32 slots");
  const auto offset = static_cast<std::uint32_t>(pool_.size());
  pool_.resize(pool_.size() + capacity);
  std::copy_n(pool_.begin() + row.offset, row.size, pool_.begin() + offset);
  row.offset = offset;
  row.capacity = capacity;
}

template <typename Drop>
std::uint32_t CacheIndex::erase_from_row(Span& row, Drop drop) {
  // In grant order, so `drop` sees (and prune reports) entries in that order.
  Entry* const begin = pool_.data() + row.offset;
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < row.size; ++i) {
    if (!drop(begin[i])) begin[kept++] = begin[i];
  }
  const std::uint32_t erased = row.size - kept;
  row.size = kept;
  if (kept == 0) row = Span{};
  return erased;
}

void CacheIndex::unlink(model::BoxId box, model::StripeId stripe,
                        model::Round entry) {
  for (std::uint32_t* link = &chain_head_[box]; *link != kNil;
       link = &nodes_[*link].next) {
    ChainNode& grant = nodes_[*link];
    if (grant.stripe != stripe || grant.entry != entry) continue;
    const std::uint32_t freed = *link;
    *link = grant.next;
    grant.next = free_node_;
    free_node_ = freed;
    return;
  }
  throw std::logic_error("CacheIndex: entry missing from its box's chain");
}

void CacheIndex::maybe_compact() {
  // Slots holding no entry: abandoned spans and unused row capacity.
  const std::size_t unused = pool_.size() - entries_;
  if (pool_.size() < kCompactFloor || unused * 2 < pool_.size()) return;
  OBS_SPAN("sim/cache_compact");
  std::vector<Entry> pool;
  pool.reserve(entries_);
  for (Span& row : rows_) {
    const auto offset = static_cast<std::uint32_t>(pool.size());
    pool.insert(pool.end(), pool_.begin() + row.offset,
                pool_.begin() + row.offset + row.size);
    row.offset = offset;
    row.capacity = row.size;
  }
  pool_ = std::move(pool);
}

void CacheIndex::grant(model::StripeId stripe, model::BoxId box,
                       model::Round entry) {
  if (stripe >= rows_.size()) throw std::out_of_range("CacheIndex::grant");
  if (box == model::kInvalidBox)
    throw std::out_of_range("CacheIndex::grant: invalid box");
  Span& row = rows_[stripe];
  if (row.size == row.capacity)
    relocate(row, std::max<std::uint32_t>(1, 2 * row.capacity));
  pool_[row.offset + row.size] = {stripe, box, entry};
  ++row.size;

  if (box >= chain_head_.size()) chain_head_.resize(box + 1, kNil);
  std::uint32_t node = free_node_;
  if (node != kNil) {
    free_node_ = nodes_[node].next;
  } else {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[node] = {entry, stripe, chain_head_[box]};
  chain_head_[box] = node;

  ++entries_;
  calendar_.emplace(entry + window_ + 1, stripe);
  maybe_compact();
}

std::size_t CacheIndex::collect_servers(model::StripeId stripe,
                                        model::Round issue, model::Round now,
                                        model::BoxId exclude,
                                        std::vector<model::BoxId>& out) const {
  if (stripe >= rows_.size())
    throw std::out_of_range("CacheIndex::collect_servers");
  const model::Round oldest = now - window_;
  const Span& row = rows_[stripe];
  const Entry* const begin = pool_.data() + row.offset;
  std::size_t appended = 0;
  for (const Entry* e = begin; e != begin + row.size; ++e) {
    if (e->entry >= oldest && e->entry < issue && e->box != exclude) {
      out.push_back(e->box);
      ++appended;
    }
  }
  return appended;
}

std::uint64_t CacheIndex::remove_box(model::BoxId box,
                                     std::vector<model::StripeId>* affected) {
  if (box >= chain_head_.size()) return 0;
  // Free the box's chain, remembering the rows it pointed into.
  scratch_stripes_.clear();
  std::uint32_t node = chain_head_[box];
  while (node != kNil) {
    ChainNode& grant = nodes_[node];
    scratch_stripes_.push_back(grant.stripe);
    const std::uint32_t next = grant.next;
    grant.next = free_node_;
    free_node_ = node;
    node = next;
  }
  chain_head_[box] = kNil;
  const std::size_t chained = scratch_stripes_.size();
  std::sort(scratch_stripes_.begin(), scratch_stripes_.end());
  scratch_stripes_.erase(
      std::unique(scratch_stripes_.begin(), scratch_stripes_.end()),
      scratch_stripes_.end());

  std::uint64_t removed = 0;
  for (const model::StripeId stripe : scratch_stripes_) {
    removed += erase_from_row(rows_[stripe],
                              [box](const Entry& e) { return e.box == box; });
  }
  if (removed != chained)
    throw std::logic_error("CacheIndex: box chain disagrees with the rows");
  if (affected != nullptr)
    affected->insert(affected->end(), scratch_stripes_.begin(),
                     scratch_stripes_.end());
  entries_ -= removed;
  maybe_compact();
  return removed;
}

void CacheIndex::prune(model::Round now, std::vector<Entry>* expired) {
  pruned_below_ = now - window_;
  while (!calendar_.empty() && calendar_.top().first <= now) {
    Span& row = rows_[calendar_.top().second];
    calendar_.pop();
    entries_ -= erase_from_row(row, [&](const Entry& e) {
      if (e.entry >= pruned_below_) return false;
      if (expired != nullptr) expired->push_back(e);
      unlink(e.box, e.stripe, e.entry);
      return true;
    });
  }
  maybe_compact();
}

void CacheIndex::check_invariants() const {
  const auto fail = [](const char* what) {
    throw std::logic_error(std::string("CacheIndex: ") + what);
  };
  using Grant = std::tuple<model::BoxId, model::StripeId, model::Round>;

  std::vector<Grant> held;
  held.reserve(entries_);
  std::uint64_t spanned = 0;
  for (model::StripeId stripe = 0; stripe < rows_.size(); ++stripe) {
    const Span& row = rows_[stripe];
    if (row.size > row.capacity ||
        std::uint64_t{row.offset} + row.capacity > pool_.size())
      fail("a row lies outside the arena");
    spanned += row.capacity;
    for (std::uint32_t i = 0; i < row.size; ++i) {
      const Entry& e = pool_[row.offset + i];
      if (e.stripe != stripe) fail("an entry sits in another stripe's row");
      if (e.entry < pruned_below_) fail("an expired entry survived prune");
      held.emplace_back(e.box, e.stripe, e.entry);
    }
  }
  if (held.size() != entries_) fail("entry_count != per-stripe sum");
  if (spanned > pool_.size()) fail("rows overlap in the arena");

  std::vector<Grant> chained;
  chained.reserve(entries_);
  for (model::BoxId box = 0; box < chain_head_.size(); ++box) {
    for (std::uint32_t node = chain_head_[box]; node != kNil;
         node = nodes_[node].next) {
      if (chained.size() >= nodes_.size()) fail("a box chain loops");
      const ChainNode& grant = nodes_[node];
      if (grant.entry < pruned_below_)
        fail("a chained grant is older than the last prune");
      chained.emplace_back(box, grant.stripe, grant.entry);
    }
  }
  if (chained.size() != entries_) fail("entry_count != summed chain lengths");
  std::uint64_t free_nodes = 0;
  for (std::uint32_t node = free_node_; node != kNil; node = nodes_[node].next)
    if (++free_nodes > nodes_.size()) fail("the free list loops");
  if (chained.size() + free_nodes != nodes_.size())
    fail("a slab node is neither chained nor free");
  std::sort(held.begin(), held.end());
  std::sort(chained.begin(), chained.end());
  if (held != chained) fail("the box chains disagree with the rows");

  if (pool_.size() > 2 * entries_ + kCompactFloor)
    fail("arena exceeds twice the entries plus the compaction floor");
}

}  // namespace p2pvod::sim
