#include "sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "flow/hall.hpp"
#include "flow/verify.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "workload/demand.hpp"

namespace p2pvod::sim {

namespace {

// The round loop writes only RunReport; publish_round() mirrors each step's
// delta of the fields below into the process-wide obs counters, aggregated
// across every Simulator instance. kStable: each trial is sequential and
// fully determined by its seed, and the multiset of trials evaluated is
// thread-count-invariant under the repo's seeding contract. (Exception:
// speculative calibration evaluates a thread-count-dependent probe set — see
// the Observability notes in the README; pin P2PVOD_PROBE_WIDTH=1 to compare
// across thread counts there.)
struct PublishedField {
  const char* counter;
  std::uint64_t (*value_of)(const RunReport&);
  /// Registered and fed only by simulators on the sparse engine.
  bool sparse_only;
};

template <auto Field>
std::uint64_t read(const RunReport& report) {
  return static_cast<std::uint64_t>(report.*Field);
}

constexpr auto kPublished = std::to_array<PublishedField>({
    {"sim/rounds", read<&RunReport::rounds>, false},
    {"sim/demands_admitted", read<&RunReport::demands_admitted>, false},
    {"sim/demands_rejected", read<&RunReport::demands_rejected>, false},
    {"sim/chunks_matched", read<&RunReport::chunks_served>, false},
    {"sim/chunks_unmatched", read<&RunReport::chunks_stalled>, false},
    {"sim/matcher_edges", read<&RunReport::matcher_edges>, false},
    {"sim/intra_zone_chunks", read<&RunReport::intra_zone_chunks>, false},
    {"sim/cross_zone_chunks", read<&RunReport::cross_zone_chunks>, false},
    {"sim/link_cap_rejections", read<&RunReport::link_cap_rejections>, false},
    {"sim/link_cap_rescues", read<&RunReport::link_cap_rescues>, false},
    {"sim/sparse_rows_built", read<&RunReport::rows_built>, true},
    {"sim/sparse_row_patches", read<&RunReport::row_patches>, true},
    {"sim/sparse_full_rebuilds", read<&RunReport::sparse_full_rebuilds>, true},
    {"sim/sparse_expiry_events", read<&RunReport::sparse_expiry_events>, true},
    {"sim/sparse_kept_connections", read<&RunReport::kept_connections>, true},
    {"sim/sparse_new_connections", read<&RunReport::new_connections>, true},
});

using PublishedCounters = std::array<obs::Counter*, kPublished.size()>;

PublishedCounters resolve_counters(bool sparse) {
  auto& registry = obs::MetricsRegistry::global();
  PublishedCounters handles{};
  for (std::size_t i = 0; i < kPublished.size(); ++i) {
    if (sparse || !kPublished[i].sparse_only)
      handles[i] = &registry.counter(kPublished[i].counter);
  }
  return handles;
}

/// Counter handles for kPublished, resolved once per engine kind; the dense
/// set leaves sparse-only entries null so dense-only processes never
/// register sim/sparse_*.
const PublishedCounters& published_counters(bool sparse) {
  static const PublishedCounters dense = resolve_counters(false);
  if (!sparse) return dense;
  static const PublishedCounters all = resolve_counters(true);
  return all;
}

obs::Histogram& round_active_requests() {
  static obs::Histogram& histogram = obs::MetricsRegistry::global().histogram(
      "sim/round_active_requests", obs::pow2_bounds(16));
  return histogram;
}

}  // namespace

// solve_zone_aware feeds net::Cost values into flow::EdgeCosts; the aliases
// live in layers that don't include each other, so pin their agreement here.
static_assert(std::is_same_v<net::Cost, flow::Cost>,
              "net::Cost and flow::Cost must be the same type");

Simulator::Simulator(const model::Catalog& catalog,
                     const model::CapacityProfile& profile,
                     const alloc::Allocation& allocation,
                     RequestStrategy& strategy, SimulatorOptions options)
    : catalog_(catalog),
      profile_(profile),
      allocation_(allocation),
      strategy_(strategy),
      options_(std::move(options)),
      swarms_(catalog.video_count()),
      cache_(catalog.stripe_count(), catalog.duration()),
      busy_until_(profile.size(), 0) {
  if (allocation_.box_count() != profile_.size())
    throw std::invalid_argument("Simulator: allocation/profile size mismatch");
  if (allocation_.stripe_count() != catalog_.stripe_count())
    throw std::invalid_argument(
        "Simulator: allocation/catalog stripe mismatch");
  if (options_.topology != nullptr &&
      options_.topology->box_count() != profile_.size())
    throw std::invalid_argument("Simulator: topology/profile size mismatch");
  const std::uint32_t c = catalog_.stripes_per_video();
  if (options_.capacity_override.empty()) {
    capacity_slots_.resize(profile_.size());
    for (model::BoxId b = 0; b < profile_.size(); ++b)
      capacity_slots_[b] = profile_.upload_slots(b, c);
  } else {
    if (options_.capacity_override.size() != profile_.size())
      throw std::invalid_argument(
          "Simulator: capacity_override size mismatch");
    capacity_slots_ = options_.capacity_override;
  }
  for (const std::uint32_t slots : capacity_slots_)
    total_capacity_slots_ += slots;
  nominal_capacity_ = capacity_slots_;
  online_.assign(profile_.size(), true);

  // The sparse engine repairs last round's matching and is blind to costs,
  // so it cannot honor a topology.
  if (options_.sparse && options_.topology != nullptr)
    throw std::invalid_argument(
        "Simulator: sparse engine cannot honor a topology (cost-aware "
        "matching is dense-only)");
  if (options_.sparse) {
    sparse_ = std::make_unique<SparseRoundState>(profile_.size(),
                                                 catalog_.stripe_count());
  }
}

bool Simulator::box_idle(model::BoxId b) const {
  return online_.at(b) && now_ >= busy_until_.at(b);
}

std::uint32_t Simulator::idle_box_count() const {
  std::uint32_t idle = 0;
  for (model::BoxId b = 0; b < profile_.size(); ++b) {
    if (box_idle(b)) ++idle;
  }
  return idle;
}

void Simulator::admit(const Demand& demand) {
  if (!catalog_.contains_video(demand.video))
    throw std::out_of_range("Simulator: demand for unknown video");
  if (demand.box >= profile_.size())
    throw std::out_of_range("Simulator: demand from unknown box");
  if (!online_[demand.box] || !box_idle(demand.box)) {
    ++report_.demands_rejected;
    return;
  }
  const std::uint64_t ticket = swarms_.enter(demand.video, now_);

  // Validate every plan before the demand leaves any other trace: a
  // malformed plan throws, and a plan whose requester is offline (e.g. a
  // custom strategy routed through a dead relay) rejects the demand; both
  // roll back the enter() above. Plans with no requester are
  // forwarding-from-storage (the §4 relay holds the stripe statically): they
  // register cache grants but no network request. Playback can start once
  // every stripe has delivered its first chunk to the viewer; with no
  // network requests the box plays from local storage.
  scratch_plans_.clear();
  std::uint32_t network_requests = 0;
  model::Round viewer_last_entry = now_;
  bool servable = true;
  try {
    strategy_.plan(demand.box, demand.video, ticket, now_, *this,
                   scratch_plans_);
    for (const PlannedRequest& plan : scratch_plans_) {
      if (plan.issue < now_)
        throw std::logic_error("Simulator: plan issued in the past");
      if (!catalog_.contains(plan.stripe))
        throw std::out_of_range("Simulator: plan for unknown stripe");
      for (const CacheGrant& grant : plan.grants) {
        if (grant.box >= profile_.size())
          throw std::out_of_range("Simulator: cache grant to unknown box");
        if (grant.box == demand.box)
          viewer_last_entry = std::max(viewer_last_entry, grant.entry);
      }
      if (plan.requester == model::kInvalidBox) continue;
      servable = online_.at(plan.requester) && servable;
      ++network_requests;
    }
  } catch (...) {
    swarms_.cancel_enter(demand.video);
    throw;
  }
  if (!servable) {
    swarms_.cancel_enter(demand.video);
    ++report_.demands_rejected;
    return;
  }
  ++report_.demands_admitted;
  const model::Round playback_start = viewer_last_entry + 1;
  const model::Round ends = playback_start + catalog_.duration();

  const auto session_id = static_cast<SessionId>(sessions_.size());
  sessions_.push_back({demand.box, demand.video, now_, playback_start, ends,
                       network_requests});
  busy_until_[demand.box] = ends;
  end_events_[ends].push_back(session_id);

  // Start-up delay measured from the start of the arrival interval [t-1, t[:
  // preloading gives (t+1)+1 - (t-1) = 3 rounds, as in §3.
  report_.startup_delay.add(playback_start - (now_ - 1));

  for (const PlannedRequest& plan : scratch_plans_) {
    for (const CacheGrant& grant : plan.grants) {
      cache_.grant(plan.stripe, grant.box, grant.entry);
      if (sparse_ != nullptr)
        sparse_->on_grant(plan.stripe, grant.box, grant.entry);
    }
    if (plan.requester == model::kInvalidBox) continue;
    ++report_.requests_issued;
    pending_[plan.issue].push_back({plan, session_id});
  }
}

void Simulator::activate_pending() {
  const auto it = pending_.find(now_);
  if (it == pending_.end()) return;
  for (const PendingRequest& pending : it->second) {
    const std::uint32_t slot =
        sparse_ != nullptr
            ? sparse_->add_request(pending.plan.stripe, pending.plan.issue,
                                   pending.plan.requester)
            : kNoSparseSlot;
    live_.push_back(pending.plan.stripe, pending.plan.issue,
                    pending.plan.requester, pending.session, slot);
  }
  pending_.erase(it);
}

void Simulator::solve_round() {
  if (live_.empty()) return;
  OBS_SPAN("sim/solve_round");

  const std::uint32_t served =
      sparse_ != nullptr ? solve_round_sparse() : solve_round_dense();

  report_.chunks_served += served;
  const std::uint64_t unserved = live_.size() - served;
  if (unserved > 0) {
    report_.chunks_stalled += unserved;
    if (report_.first_stall < 0) {
      report_.first_stall = now_;
      record_stall_witness();
    }
    if (options_.strict) {
      report_.success = false;
      stalled_ = true;
    }
  }

  if (total_capacity_slots_ > 0) {
    report_.upload_utilization.add(static_cast<double>(served) /
                                   static_cast<double>(total_capacity_slots_));
  }
}

void Simulator::collect_candidates(model::StripeId stripe,
                                   model::Round issue, model::BoxId requester,
                                   std::vector<model::BoxId>& out) const {
  for (const model::BoxId holder : allocation_.holders(stripe)) {
    if (holder != requester && online_[holder]) out.push_back(holder);
  }
  cache_.collect_servers(stripe, issue, now_, requester, out);
}

const flow::ConnectionProblem& Simulator::fill_connection_problem() {
  OBS_SPAN("sim/build_candidates");
  if (!problem_) problem_.emplace(profile_.size());
  flow::ConnectionProblem& problem = *problem_;
  problem.clear();
  problem.set_capacities(capacity_slots_);
  for (std::size_t i = 0; i < live_.size(); ++i) {
    scratch_candidates_.clear();
    collect_candidates(live_.stripe[i], live_.issue[i], live_.requester[i],
                       scratch_candidates_);
    std::sort(scratch_candidates_.begin(), scratch_candidates_.end());
    scratch_candidates_.erase(
        std::unique(scratch_candidates_.begin(), scratch_candidates_.end()),
        scratch_candidates_.end());
    problem.add_request(scratch_candidates_);
  }
  return problem;
}

void Simulator::record_stall_witness() {
  const flow::ConnectionProblem& problem = fill_connection_problem();
  auto witness = problem.infeasibility_witness();
  if (!witness) return;  // link caps can stall a Hall-feasible round
  report_.stall_witness_size = static_cast<std::uint32_t>(witness->size());
  if (checks_enabled())
    stall_record_.emplace(StallRecord{problem, std::move(*witness)});
}

std::uint32_t Simulator::solve_round_dense() {
  const flow::ConnectionProblem& problem = fill_connection_problem();
  report_.rows_built += live_.size();  // dense collects every row, every round
  report_.matcher_edges += problem.edge_count();

  OBS_SPAN("sim/match");
  if (options_.topology != nullptr) {
    flow::MatchResult result = solve_zone_aware(problem);
    live_.carry = std::move(result.assignment);
    return result.served;
  }
  // Connection reuse is cost-blind, so only this branch keeps carries.
  const auto repaired = matcher_.repair(problem, live_.carry);
  report_.kept_connections += repaired.kept_connections;
  report_.new_connections += repaired.new_connections;
  if (options_.verify_incremental) verify_round(problem, repaired.served);
  return repaired.served;
}

std::uint32_t Simulator::solve_round_sparse() {
  std::uint32_t served = 0;
  {
    OBS_SPAN("sim/match");
    served = sparse_->solve(
        capacity_slots_, std::bind_front(&Simulator::collect_candidates, this));
  }
  report_.matcher_edges += sparse_->edge_count();
  for (std::size_t i = 0; i < live_.size(); ++i)
    live_.carry[i] = sparse_->assignment(live_.slot[i]);
  const SparseStats& stats = sparse_->stats();
  report_.kept_connections = stats.kept_connections;
  report_.new_connections = stats.new_connections;
  report_.rows_built = stats.rows_built;
  report_.row_patches = stats.row_patches;
  report_.sparse_full_rebuilds = stats.full_rebuilds;
  report_.sparse_expiry_events = stats.expiry_events;

  if (options_.verify_incremental) {
    // The sparse rows are persistent, so the reference problem is rebuilt
    // from ground truth: a row that drifted shows up as a wrong assignment.
    verify_round(fill_connection_problem(), served);
  }
  return served;
}

void Simulator::verify_round(const flow::ConnectionProblem& problem,
                             std::uint32_t served) const {
  // Membership and capacity violations surface in validate_assignment with
  // the offending request named; a served-count mismatch against the
  // reference solve catches lost maximality.
  flow::validate_assignment(
      problem, flow::MatchResult{live_.carry, served, served == live_.size()});
  if (problem.solve().served != served)
    throw std::logic_error(
        "Simulator: round matching disagrees with reference solve");
}

flow::MatchResult Simulator::solve_zone_aware(
    const flow::ConnectionProblem& problem) {
  const net::Topology& topology = *options_.topology;

  // Candidate edge (b, r) costs the zone-pair transit from b's zone into the
  // requester's zone; the solver minimizes the round's total transit among
  // maximum matchings (so feasibility answers match the Dinic path exactly).
  flow::EdgeCosts costs(live_.size());
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const net::ZoneId dest = topology.zone_of(live_.requester[i]);
    const auto candidates = problem.candidates(static_cast<std::uint32_t>(i));
    costs[i].reserve(candidates.size());
    for (const std::uint32_t b : candidates) {
      costs[i].push_back(topology.cost(topology.zone_of(b), dest));
    }
  }
  flow::MinCostResult solved = flow::MinCostMatcher::solve(problem, costs);
  // Checked before link caps: admission control may legitimately drop
  // connections the min-cost optimum keeps.
  if (options_.verify_incremental)
    flow::validate_min_cost(problem, costs, solved);
  flow::MatchResult result = std::move(solved.match);

  if (topology.has_link_caps()) enforce_link_caps(problem, costs, result);

  // Per-round zone accounting over the final assignment.
  std::uint64_t intra = 0;
  std::uint64_t cross = 0;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const std::int32_t assigned = result.assignment[i];
    if (assigned < 0) continue;
    const auto b = static_cast<model::BoxId>(assigned);
    const net::ZoneId from = topology.zone_of(b);
    const net::ZoneId to = topology.zone_of(live_.requester[i]);
    (from == to ? intra : cross) += 1;
    report_.zone_cost_total += topology.cost(from, to);
  }
  report_.intra_zone_chunks += intra;
  report_.cross_zone_chunks += cross;
  if (intra + cross > 0) {
    report_.cross_zone_fraction.add(static_cast<double>(cross) /
                                    static_cast<double>(intra + cross));
  }
  return result;
}

// The topology's "no cap" sentinel must be flow's "no group / unlimited
// budget" sentinel for the cap matrix to pass through unchanged.
static_assert(net::kUnlimitedLink == flow::kUncappedGroup,
              "net::kUnlimitedLink and flow::kUncappedGroup must agree");

void Simulator::enforce_link_caps(const flow::ConnectionProblem& problem,
                                  const flow::EdgeCosts& costs,
                                  flow::MatchResult& result) {
  const net::Topology& topology = *options_.topology;
  const std::uint32_t zones = topology.zone_count();

  // Each candidate edge's cap group is the directed zone-pair link it would
  // cross; the flattened link-cap matrix is the budget table.
  flow::EdgeGroups groups(live_.size());
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const net::ZoneId dest = topology.zone_of(live_.requester[i]);
    const auto candidates = problem.candidates(static_cast<std::uint32_t>(i));
    groups[i].reserve(candidates.size());
    for (const std::uint32_t b : candidates) {
      groups[i].push_back(
          static_cast<std::uint32_t>(topology.zone_of(b)) * zones + dest);
    }
  }
  std::vector<std::uint32_t> caps(static_cast<std::size_t>(zones) * zones);
  for (net::ZoneId a = 0; a < zones; ++a) {
    for (net::ZoneId b = 0; b < zones; ++b) {
      caps[static_cast<std::size_t>(a) * zones + b] = topology.link_cap(a, b);
    }
  }

  const flow::GroupCapOutcome outcome =
      flow::enforce_group_caps(problem, costs, groups, caps, result);
  report_.link_cap_rejections += outcome.rejections;
  report_.link_cap_rescues += outcome.rescues;
}

void Simulator::retire_completed() {
  const model::Round duration = catalog_.duration();
  std::size_t write = 0;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_.position(i, now_) + 1 >= duration) {
      // Last chunk delivered this round; the request retires.
      Session& session = sessions_[live_.session[i]];
      if (session.pending_requests == 0)
        throw std::logic_error("Simulator: session underflow");
      --session.pending_requests;
      if (sparse_ != nullptr) sparse_->remove_request(live_.slot[i]);
      continue;
    }
    live_.move_to(write, i);
    ++write;
  }
  live_.resize(write);
}

void Simulator::abort_session(SessionId id) {
  Session& session = sessions_.at(id);
  if (session.aborted) return;
  if (session.ends <= now_) return;  // already finished normally
  session.aborted = true;
  swarms_.leave(session.video);
  ++report_.sessions_aborted;
  busy_until_[session.box] = std::min(busy_until_[session.box], now_);

  // Drop the session's live requests (order-preserving, keeps carry aligned;
  // the prefix before its first one stays put) and its not-yet-activated
  // pending requests.
  const std::span<const SessionId> owners(live_.session);
  auto write = static_cast<std::size_t>(
      std::find(owners.begin(), owners.end(), id) - owners.begin());
  for (std::size_t i = write; i < live_.size(); ++i) {
    if (live_.session[i] == id) {
      if (sparse_ != nullptr) sparse_->remove_request(live_.slot[i]);
      continue;
    }
    live_.move_to(write, i);
    ++write;
  }
  live_.resize(write);
  for (auto& [round, pending] : pending_) {
    std::erase_if(pending, [id](const PendingRequest& p) {
      return p.session == id;
    });
    (void)round;
  }
}

void Simulator::set_box_online(model::BoxId box, bool online) {
  OBS_SPAN("sim/churn");
  if (box >= profile_.size())
    throw std::out_of_range("Simulator::set_box_online");
  if (online_[box] == online) return;
  online_[box] = online;
  // ±delta, not a rescan: churn is per-event, and an O(n) sweep here was a
  // round-loop hot spot of its own at production n with per-round failures.
  const std::uint32_t was = capacity_slots_[box];
  const std::uint32_t is = online ? nominal_capacity_[box] : 0u;
  capacity_slots_[box] = is;
  total_capacity_slots_ = total_capacity_slots_ - was + is;

  if (online) {
    busy_until_[box] = now_;  // rejoins idle; static storage is intact
    if (sparse_ != nullptr)
      sparse_->on_box_online(box, allocation_.stored(box));
    return;
  }

  ++report_.box_failures;
  // Volatile cache dies with the box; the sparse index also needs to strip
  // the box from the rows of every stripe it could serve.
  scratch_cache_stripes_.clear();
  cache_.remove_box(box,
                    sparse_ != nullptr ? &scratch_cache_stripes_ : nullptr);
  if (sparse_ != nullptr)
    sparse_->on_box_offline(box, allocation_.stored(box),
                            scratch_cache_stripes_);

  // Abort the playback the box was watching and every session that relied
  // on it as the downloading requester (the §4 relay channel). A box
  // watches at most one session at a time, the one it is busy for: it ends
  // at busy_until_[box], so it sits in that round's end events.
  scratch_doomed_.clear();
  if (const model::Round ends = busy_until_[box]; ends > now_) {
    if (const auto it = end_events_.find(ends); it != end_events_.end()) {
      for (const SessionId id : it->second) {
        const Session& session = sessions_[id];
        if (!session.aborted && session.box == box)
          scratch_doomed_.push_back(id);
      }
    }
  }
  const std::span<const model::BoxId> requesters(live_.requester);
  for (std::size_t i = 0; i < requesters.size(); ++i) {
    if (requesters[i] == box) scratch_doomed_.push_back(live_.session[i]);
  }
  for (const auto& [round, pending] : pending_) {
    for (const PendingRequest& p : pending) {
      if (p.plan.requester == box) scratch_doomed_.push_back(p.session);
    }
    (void)round;
  }
  // Ascending session id, the order a sweep over every session gives: the
  // sparse engine frees request slots in abort order.
  std::sort(scratch_doomed_.begin(), scratch_doomed_.end());
  scratch_doomed_.erase(
      std::unique(scratch_doomed_.begin(), scratch_doomed_.end()),
      scratch_doomed_.end());
  for (const SessionId id : scratch_doomed_) abort_session(id);
}

void Simulator::step(const std::vector<Demand>& demands) {
  if (stalled_ && options_.strict) return;

  // 1. Sessions ending now free their boxes and leave their swarms.
  if (const auto it = end_events_.find(now_); it != end_events_.end()) {
    for (const SessionId id : it->second) {
      const Session& session = sessions_[id];
      if (session.aborted) continue;  // churn already settled this one
      swarms_.leave(session.video);
      ++report_.sessions_completed;
    }
    end_events_.erase(it);
  }

  // 2. Freeze f(t) for the growth rule, then 3./4. admit demands.
  swarms_.begin_round(now_);
  for (const Demand& demand : demands) admit(demand);

  // 5. Activate requests issued this round; drop expired cache entries
  //    (the sparse engine retires their sources from its rows).
  activate_pending();
  {
    OBS_SPAN("sim/cache_prune");
    scratch_expired_.clear();
    cache_.prune(now_, sparse_ != nullptr ? &scratch_expired_ : nullptr);
    if (sparse_ != nullptr) sparse_->on_expire(scratch_expired_);
  }

  // 6. Connection matching for this round.
  const std::uint64_t active = live_.size();
  report_.active_requests.add(static_cast<double>(active));
  solve_round();

  // 7. Retire requests whose final chunk was delivered.
  if (!(stalled_ && options_.strict)) retire_completed();

  report_.peak_swarm = swarms_.peak_size();
  report_.rounds = now_ + 1;
  if (checks_enabled()) check_invariants();
  publish_round(active);

  // End-of-round time-series sample (one relaxed load when disabled). The
  // label is the round just simulated.
  if (obs::RoundSeries::active()) obs::RoundSeries::tick(now_);
  ++now_;
}

void Simulator::publish_round(std::uint64_t active_requests) {
  static_assert(kPublished.size() == kPublishedFields);
  const PublishedCounters& counters = published_counters(sparse_ != nullptr);
  for (std::size_t i = 0; i < kPublished.size(); ++i) {
    if (counters[i] == nullptr) continue;
    const std::uint64_t value = kPublished[i].value_of(report_);
    if (value != published_[i]) counters[i]->add(value - published_[i]);
    published_[i] = value;
  }
  round_active_requests().observe(active_requests);
}

bool Simulator::checks_enabled() const noexcept {
#ifdef NDEBUG
  return options_.verify_incremental;
#else
  return true;
#endif
}

void Simulator::check_invariants() const {
  const auto fail = [](const char* what) {
    throw std::logic_error(std::string("Simulator invariant broken: ") + what);
  };

  std::uint64_t capacity = 0;
  for (const std::uint32_t slots : capacity_slots_) capacity += slots;
  if (capacity != total_capacity_slots_)
    fail("total_capacity_slots != sum of capacity_slots");

  // A session is live until churn aborts it or its end event fires (the
  // event's round leaves end_events_ when step() processes it).
  const auto is_live = [this](const Session& session) {
    return !session.aborted && end_events_.contains(session.ends);
  };
  std::vector<std::uint32_t> swarm(catalog_.video_count(), 0);
  for (const Session& session : sessions_) {
    if (!is_live(session)) continue;
    ++swarm[session.video];
    // set_box_online finds the playback a failed box watches by this.
    if (busy_until_[session.box] != session.ends)
      fail("a live session's box is not busy until the session ends");
  }
  for (model::VideoId v = 0; v < swarm.size(); ++v) {
    if (swarms_.size(v) != swarm[v])
      fail("swarm size != live sessions of the video");
  }

  std::vector<std::uint32_t> requests(sessions_.size(), 0);
  for (std::size_t i = 0; i < live_.size(); ++i) ++requests[live_.session[i]];
  for (const auto& [round, pending] : pending_) {
    for (const PendingRequest& p : pending) ++requests[p.session];
    (void)round;
  }
  for (SessionId id = 0; id < sessions_.size(); ++id) {
    if (is_live(sessions_[id]) &&
        sessions_[id].pending_requests != requests[id])
      fail("session pending_requests != live + not-yet-activated requests");
  }

  if (static_cast<double>(report_.chunks_served + report_.chunks_stalled) !=
      report_.active_requests.sum())
    fail("chunks served + stalled != sum of per-round active requests");

  cache_.check_invariants();

  if (stall_record_.has_value() &&
      !flow::HallChecker::check_subset(stall_record_->problem,
                                       stall_record_->witness))
    fail("stall witness does not violate Hall's condition");
}

RunReport Simulator::run(workload::DemandGenerator& generator,
                         model::Round rounds) {
  for (model::Round t = 0; t < rounds; ++t) {
    const std::vector<Demand> demands = generator.demands(*this);
    step(demands);
    if (stalled_ && options_.strict) break;
  }
  return report_;
}

}  // namespace p2pvod::sim
