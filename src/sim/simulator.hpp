// The round-based fully-distributed VoD simulator (DESIGN.md S5).
//
// One step() is one time round of the paper's model (§1.1): demands arrive,
// the request strategy turns them into stripe requests, and a connection
// matching (Lemma 1) is computed over all active requests — every active
// request must receive its current chunk from a box possessing it (static
// replica or playback cache), with box b serving at most ⌊u_b c⌋ stripe
// connections. In strict mode an unserved request ends the run: the demand
// sequence defeated the allocation.
//
// Round pipeline (at round t):
//   1. sessions ending at t release their boxes and leave their swarms
//   2. swarm sizes are frozen (the f(t) of the growth rule)
//   3. demands are admitted (busy boxes reject; one video per box)
//   4. the strategy plans requests; cache grants are registered
//   5. requests issued at t activate; expired cache entries are pruned
//   6. the connection matching is solved; chunks are accounted
//   7. requests that received their last chunk retire
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "alloc/allocation.hpp"
#include "flow/bipartite.hpp"
#include "flow/csr_matcher.hpp"
#include "flow/min_cost.hpp"
#include "model/capacity.hpp"
#include "net/topology.hpp"
#include "model/catalog.hpp"
#include "model/ids.hpp"
#include "sim/cache.hpp"
#include "sim/report.hpp"
#include "sim/request.hpp"
#include "sim/sparse_round.hpp"
#include "sim/strategy.hpp"
#include "sim/swarm.hpp"

namespace p2pvod::workload {
class DemandGenerator;
}  // namespace p2pvod::workload

namespace p2pvod::sim {

/// A user demand: box wants to play video. Demands arriving at round t are
/// the paper's "demand during [t-1, t[" — the strategy reacts at t.
struct Demand {
  model::BoxId box;
  model::VideoId video;
};

struct SimulatorOptions {
  /// Cross-check every round's matching against a from-scratch Dinic solve
  /// (zone-aware rounds: flow::validate_min_cost, which adds the min-cost
  /// optimality check) and run check_invariants() after every step (tests;
  /// expensive).
  bool verify_incremental = false;
  /// Stop at the first unserved request (the paper's feasibility semantics).
  /// When false, stalls are counted and positions advance (continuity metric).
  bool strict = true;
  /// Per-box upload override in stripe slots (hetero relay reserves upload);
  /// empty = ⌊u_b c⌋ from the capacity profile.
  std::vector<std::uint32_t> capacity_override;
  /// Zone topology (not owned; must outlive the simulator). When set, each
  /// round's matching minimizes total zone-pair cost among maximum matchings
  /// (flow/min_cost) and cross-zone traffic is accounted in RunReport; link
  /// caps, when present, admission-control per-zone-pair connections.
  /// Connection reuse is not cost-aware, so zone-aware rounds re-solve.
  const net::Topology* topology = nullptr;
  /// Million-box path (E16): keep the candidate adjacency in a persistent
  /// CSR structure patched by deltas instead of rebuilt per round, and
  /// repair last round's matching from the unmatched slots only. Serves
  /// exactly as many requests as the dense solve (both are maximum
  /// matchings; verify_incremental cross-checks the assignment itself);
  /// connection-level assignments may differ. Incompatible with `topology` —
  /// cost-aware matching is dense-only, and asking for both throws
  /// std::invalid_argument.
  bool sparse = false;
};

class Simulator {
 public:
  Simulator(const model::Catalog& catalog,
            const model::CapacityProfile& profile,
            const alloc::Allocation& allocation, RequestStrategy& strategy,
            SimulatorOptions options = {});

  /// Advance one round with the given demands. No-op once stalled in strict
  /// mode.
  void step(const std::vector<Demand>& demands);

  /// Churn extension: take a box offline or bring it back.
  ///
  /// Going offline models a crash: the box's upload capacity drops to zero,
  /// its static replicas and cached data become unreachable, every playback
  /// it was watching is aborted, and — relay case — every session it was
  /// forwarding for is aborted too (the §4 reserved channel dies with it).
  /// Coming back restores capacity and static storage; the playback cache is
  /// gone (it was volatile state).
  ///
  /// Cost follows neither the catalog nor the run's history: the cache index
  /// walks only the box's own grants and the watched session is found
  /// through the box's end event; the relayed sessions take one scan of the
  /// live and pending requests. Aborts run in ascending session id.
  void set_box_online(model::BoxId box, bool online);
  [[nodiscard]] bool box_online(model::BoxId box) const {
    return online_.at(box);
  }

  /// Drive `rounds` rounds pulling demands from `generator`; returns the
  /// final report (also kept, see report()).
  RunReport run(workload::DemandGenerator& generator, model::Round rounds);

  // --- queries (used by strategies, workloads, tests) ---
  [[nodiscard]] model::Round now() const noexcept { return now_; }
  [[nodiscard]] const model::Catalog& catalog() const noexcept {
    return catalog_;
  }
  [[nodiscard]] const model::CapacityProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] const alloc::Allocation& allocation() const noexcept {
    return allocation_;
  }
  [[nodiscard]] const SwarmRegistry& swarms() const noexcept {
    return swarms_;
  }
  [[nodiscard]] bool box_idle(model::BoxId b) const;
  [[nodiscard]] std::uint32_t idle_box_count() const;
  [[nodiscard]] bool stalled() const noexcept { return stalled_; }
  [[nodiscard]] std::uint32_t active_request_count() const noexcept {
    return static_cast<std::uint32_t>(live_.size());
  }
  [[nodiscard]] const RunReport& report() const noexcept { return report_; }
  [[nodiscard]] std::uint32_t capacity_slots(model::BoxId b) const {
    return capacity_slots_.at(b);
  }
  [[nodiscard]] std::uint64_t total_capacity_slots() const noexcept {
    return total_capacity_slots_;
  }
  /// True when rounds run on the sparse CSR engine.
  [[nodiscard]] bool sparse_active() const noexcept {
    return sparse_ != nullptr;
  }

  /// Re-derive the simulator's incremental bookkeeping from scratch and
  /// throw std::logic_error naming the first invariant that disagrees:
  ///   - total_capacity_slots() == Σ capacity_slots(b)
  ///   - each swarm's size == its sessions neither aborted nor ended, and
  ///     each such session's box is busy until the session ends
  ///   - each live session's pending request count == its live plus
  ///     not-yet-activated requests
  ///   - cumulative chunks served + stalled == Σ per-round active requests
  ///   - the cache index's own check (CacheIndex::check_invariants)
  ///   - the first stall's recorded witness violates Hall's condition
  /// step() runs it after every round under verify_incremental and in
  /// builds without NDEBUG.
  void check_invariants() const;

 private:
  struct Session {
    model::BoxId box;
    model::VideoId video;
    model::Round demand_round;
    model::Round playback_start;
    model::Round ends;  ///< first round the box is idle again
    std::uint32_t pending_requests;
    bool aborted = false;  ///< killed by churn; end event becomes a no-op
  };

  struct PendingRequest {
    PlannedRequest plan;
    SessionId session;
  };

  void admit(const Demand& demand);
  void activate_pending();
  void solve_round();
  /// Dense engine: build this round's ConnectionProblem from scratch and
  /// solve it (zone-aware min-cost, or CsrMatcher::repair of last round's
  /// assignment). Returns requests served.
  std::uint32_t solve_round_dense();
  /// Sparse engine: patch-and-repair round on the persistent CSR state.
  std::uint32_t solve_round_sparse();
  /// verify_incremental: live_.carry, serving `served` requests, must be a
  /// valid assignment for `problem` serving as many requests as a
  /// from-scratch Dinic solve; throws std::logic_error otherwise.
  void verify_round(const flow::ConnectionProblem& problem,
                    std::uint32_t served) const;
  /// Ground-truth candidates of one request at this round (duplicates
  /// allowed): online static holders other than the requester, then every
  /// cache entry that serves it (CacheIndex::collect_servers).
  void collect_candidates(model::StripeId stripe, model::Round issue,
                          model::BoxId requester,
                          std::vector<model::BoxId>& out) const;
  /// Refill problem_ with the round's dense ConnectionProblem, collected
  /// from ground truth (also the reference the sparse verify path validates
  /// against), and return it. The one collection routine for every dense
  /// consumer; the reference stays valid until the next refill.
  const flow::ConnectionProblem& fill_connection_problem();
  /// Hall-violating witness for the first stall (refills problem_; runs
  /// once per run at most). Keeps a copy of the problem and the witness for
  /// check_invariants() when checks are on.
  void record_stall_witness();
  /// Cost-aware matching for the round (options_.topology set): min-cost
  /// solve (checked by flow::validate_min_cost under verify_incremental),
  /// link-cap admission control, cross-zone accounting.
  [[nodiscard]] flow::MatchResult solve_zone_aware(
      const flow::ConnectionProblem& problem);
  /// Link-cap enforcement: maps each candidate edge to its directed
  /// zone-pair group and delegates to flow::enforce_group_caps (pass-1
  /// admission drops are RunReport::link_cap_rejections, pass-2 re-seats are
  /// link_cap_rescues). `costs` is the same matrix the min-cost solve used.
  void enforce_link_caps(const flow::ConnectionProblem& problem,
                         const flow::EdgeCosts& costs,
                         flow::MatchResult& result);
  void retire_completed();
  void abort_session(SessionId id);
  /// Mirror this step's RunReport delta into the process-wide sim/* obs
  /// counters (the only place the round loop writes them) and observe the
  /// round's active-request count.
  void publish_round(std::uint64_t active_requests);
  [[nodiscard]] bool checks_enabled() const noexcept;

  const model::Catalog& catalog_;
  const model::CapacityProfile& profile_;
  const alloc::Allocation& allocation_;
  RequestStrategy& strategy_;
  SimulatorOptions options_;

  SwarmRegistry swarms_;
  CacheIndex cache_;
  /// Dense cost-blind rounds; sizes its per-box state on first use, so the
  /// sparse and zone-aware engines never pay for it.
  flow::CsrMatcher matcher_;
  /// The round's dense problem, refilled in place by
  /// fill_connection_problem() so its buffers survive across rounds. Made
  /// on the first fill, so a sparse run without verification never pays
  /// for its per-box capacity array.
  std::optional<flow::ConnectionProblem> problem_;
  /// Persistent CSR adjacency + matching; null on the dense engine.
  std::unique_ptr<SparseRoundState> sparse_;

  std::vector<Session> sessions_;
  std::vector<model::Round> busy_until_;
  std::map<model::Round, std::vector<PendingRequest>> pending_;
  std::map<model::Round, std::vector<SessionId>> end_events_;
  LiveRequestSoA live_;  ///< live requests + carry, struct-of-arrays
  std::vector<std::uint32_t> capacity_slots_;
  std::vector<std::uint32_t> nominal_capacity_;  ///< restored on recovery
  std::vector<bool> online_;
  std::uint64_t total_capacity_slots_ = 0;

  RunReport report_;
  /// RunReport fields mirrored into sim/* obs counters (kPublished in
  /// simulator.cpp) and the values already published (see publish_round).
  static constexpr std::size_t kPublishedFields = 16;
  std::array<std::uint64_t, kPublishedFields> published_{};
  /// First stall's problem and Hall witness; kept only when checks are on.
  struct StallRecord {
    flow::ConnectionProblem problem;
    std::vector<std::uint32_t> witness;
  };
  std::optional<StallRecord> stall_record_;
  model::Round now_ = 0;
  bool stalled_ = false;

  // scratch buffers reused across rounds
  std::vector<model::BoxId> scratch_candidates_;
  std::vector<PlannedRequest> scratch_plans_;
  std::vector<model::StripeId> scratch_cache_stripes_;
  std::vector<CacheIndex::Entry> scratch_expired_;
  std::vector<SessionId> scratch_doomed_;  ///< set_box_online's aborts
};

}  // namespace p2pvod::sim
