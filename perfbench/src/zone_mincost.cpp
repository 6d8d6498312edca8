// zone_mincost: the cost-aware dense path. 192 boxes in 12 round-robin
// zones (intra-zone cost 0, cross-zone cost 1, no link caps), u = 1.5 on the
// E2 protocol (c = 4, k = 6, d = 4, T = 12), demand_proportional placement
// fed the 0.8-Zipf forecast, a 0.8-Zipf audience at rate 0.45, 48
// non-strict rounds. No churn and no sparse work: flow/min_cost is nearly
// the whole run and grows super-linearly with the live requests per round.
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocator.hpp"
#include "bench.hpp"
#include "model/capacity.hpp"
#include "model/catalog.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace perfbench {

namespace {

namespace alloc = p2pvod::alloc;
namespace model = p2pvod::model;
namespace net = p2pvod::net;
namespace util = p2pvod::util;
namespace workload = p2pvod::workload;

constexpr std::uint32_t kBoxes = 192;
constexpr std::uint32_t kZones = 12;
constexpr double kUpload = 1.5;
constexpr double kStorage = 4.0;
constexpr std::uint32_t kStripes = 4;
constexpr std::uint32_t kReplicas = 6;
constexpr model::Round kDuration = 12;
constexpr model::Round kRounds = 48;
constexpr double kZipfAlpha = 0.8;
constexpr double kDemandRate = 0.45;
constexpr std::uint32_t kVideos =
    static_cast<std::uint32_t>(kStorage * kBoxes / kReplicas);

/// Outputs fixed by the instance: the served count and the min-cost
/// objective (Σ zone-pair cost of served chunks).
struct Served {
  std::uint64_t served = 0;
  std::uint64_t stalled = 0;
  std::int64_t zone_cost = 0;
  bool operator==(const Served&) const = default;
};

/// Outputs on record for kRecordedSeed.
constexpr Served kRecorded{25613, 0, 9813};

/// Expected concurrent viewers per video under the audience below: the
/// forecast demand_proportional placement is fed.
std::vector<double> forecast() {
  const workload::ZipfSampler sampler(kVideos, kZipfAlpha);
  std::vector<double> demand(kVideos);
  for (std::uint32_t v = 0; v < kVideos; ++v)
    demand[v] = kBoxes * kDemandRate * kDuration * sampler.probability(v);
  return demand;
}

net::Topology topology() {
  net::Topology zones = net::Topology::uniform(kBoxes, kZones);
  zones.set_uniform_cost(0, 1);
  return zones;
}

sim::SimulatorOptions simulator_options(const net::Topology& zones) {
  sim::SimulatorOptions options;
  options.strict = false;
  options.topology = &zones;
  return options;
}

struct Instance {
  explicit Instance(std::uint64_t seed)
      : catalog(spanned("bench/catalog",
                        [] {
                          return model::Catalog(kVideos, kStripes, kDuration);
                        })),
        profile(spanned("bench/profile",
                        [] {
                          return model::CapacityProfile::homogeneous(
                              kBoxes, kUpload, kStorage);
                        })),
        zones(spanned("bench/topology", [] { return topology(); })),
        allocation(spanned("bench/allocate",
                           [&] {
                             alloc::PlacementContext context;
                             context.topology = &zones;
                             context.demand = forecast();
                             util::Rng rng(util::child_seed(seed, 1));
                             return alloc::make_allocator(
                                        alloc::Scheme::kDemandProportional)
                                 ->allocate(catalog, profile, kReplicas, rng,
                                            context);
                           })),
        simulator(spanned("bench/simulator",
                          [&] {
                            return sim::Simulator(catalog, profile,
                                                  allocation, strategy,
                                                  simulator_options(zones));
                          })),
        audience(spanned("bench/audience", [&] {
          return workload::ZipfDemand(kVideos, kZipfAlpha, kDemandRate,
                                      util::child_seed(seed, 2));
        })) {}

  model::Catalog catalog;
  model::CapacityProfile profile;
  net::Topology zones;
  alloc::Allocation allocation;
  sim::PreloadingStrategy strategy;
  sim::Simulator simulator;
  workload::ZipfDemand audience;
};

struct Episode {
  std::uint64_t offered = 0;
  double run_s = 0.0;
};

Episode run_episode(Instance& instance, Layers* layers) {
  Episode episode;
  const obs::WallTimer run_timer;
  for (model::Round round = 0; round < kRounds; ++round) {
    const std::vector<sim::Demand> demands = spanned("bench/demands", [&] {
      return instance.audience.demands(instance.simulator);
    });
    episode.offered += demands.size();
    const obs::WallTimer step_timer;
    spanned("bench/step", [&] { instance.simulator.step(demands); });
    if (layers != nullptr) layers->step_ms.push_back(step_timer.seconds() * 1e3);
    trace_cut();
  }
  episode.run_s = run_timer.seconds();
  if (layers != nullptr) layers->demands += static_cast<double>(episode.offered);
  return episode;
}

}  // namespace

void zone_mincost(const RunConfig& config, Outcome& out) {
  const std::uint64_t seed = util::child_seed(config.seed, 0xE17);
  std::optional<Served> first;
  const auto rep = [&](Layers* layers) {
    const obs::WallTimer setup_timer;
    Instance instance(seed);
    const double setup = setup_timer.seconds();
    const Episode episode = run_episode(instance, layers);
    const sim::RunReport& report = instance.simulator.report();
    check_report(out, report, episode.offered, "zone_mincost");
    // Intra-zone cost 0 and cross-zone cost 1: the objective counts the
    // cross-zone chunks exactly.
    out.check(report.zone_cost_total ==
                  static_cast<std::int64_t>(report.cross_zone_chunks),
              "zone_mincost: zone_cost_total != cross_zone_chunks");
    const Served served{report.chunks_served, report.chunks_stalled,
                        report.zone_cost_total};
    if (!first) first = served;
    out.check(served == *first,
              "zone_mincost: outputs differ between repetitions");
    out.attempted += kRounds;
    if (layers != nullptr) layers->add_report(report);
    return std::pair{setup, episode.run_s};
  };

  const Traced traced = measure_reps(config, out, rep);
  out.notes.push_back("outputs served=" + std::to_string(first->served) +
                      " stalled=" + std::to_string(first->stalled) +
                      " zone_cost_total=" + std::to_string(first->zone_cost));
  if (config.seed == kRecordedSeed)
    out.check(first == kRecorded,
              "zone_mincost: served/stalled/zone cost differ from the record");
  if (config.trace)
    out.notes.push_back(
        "share flow.min_cost_s/run_s=" +
        std::to_string(traced.layers.min_cost_s / traced.run_s));
}

}  // namespace perfbench
