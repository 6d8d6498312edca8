#include "sim/cache.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace p2pvod::sim {

CacheIndex::CacheIndex(std::uint32_t stripe_count, model::Round window)
    : per_stripe_(stripe_count), window_(window) {
  if (window <= 0) throw std::invalid_argument("CacheIndex: window <= 0");
}

void CacheIndex::grant(model::StripeId stripe, model::BoxId box,
                       model::Round entry) {
  if (stripe >= per_stripe_.size())
    throw std::out_of_range("CacheIndex::grant");
  per_stripe_[stripe].push_back({stripe, box, entry});
  ++entries_;
  calendar_.emplace(entry + window_ + 1, stripe);
}

std::size_t CacheIndex::collect_servers(model::StripeId stripe,
                                        model::Round issue, model::Round now,
                                        model::BoxId exclude,
                                        std::vector<model::BoxId>& out) const {
  if (stripe >= per_stripe_.size())
    throw std::out_of_range("CacheIndex::collect_servers");
  const model::Round oldest = now - window_;
  std::size_t appended = 0;
  for (const Entry& e : per_stripe_[stripe]) {
    if (e.entry >= oldest && e.entry < issue && e.box != exclude) {
      out.push_back(e.box);
      ++appended;
    }
  }
  return appended;
}

std::uint64_t CacheIndex::remove_box(model::BoxId box,
                                     std::vector<model::StripeId>* affected) {
  std::uint64_t removed = 0;
  for (model::StripeId stripe = 0; stripe < per_stripe_.size(); ++stripe) {
    const auto dropped = std::erase_if(
        per_stripe_[stripe], [box](const Entry& e) { return e.box == box; });
    if (dropped > 0 && affected != nullptr) affected->push_back(stripe);
    removed += dropped;
  }
  entries_ -= removed;
  return removed;
}

void CacheIndex::prune(model::Round now, std::vector<Entry>* expired) {
  pruned_below_ = now - window_;
  const auto gone = [this](const Entry& e) { return e.entry < pruned_below_; };
  while (!calendar_.empty() && calendar_.top().first <= now) {
    auto& entries = per_stripe_[calendar_.top().second];
    calendar_.pop();
    if (expired != nullptr)
      std::copy_if(entries.begin(), entries.end(),
                   std::back_inserter(*expired), gone);
    entries_ -= std::erase_if(entries, gone);
  }
}

void CacheIndex::check_invariants() const {
  std::uint64_t held = 0;
  for (const auto& entries : per_stripe_) {
    held += entries.size();
    for (const Entry& e : entries) {
      if (e.entry < pruned_below_)
        throw std::logic_error("CacheIndex: an expired entry survived prune");
    }
  }
  if (held != entries_)
    throw std::logic_error("CacheIndex: entry_count != per-stripe sum");
}

}  // namespace p2pvod::sim
