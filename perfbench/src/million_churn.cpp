// million_churn: the E16 top rung. 10^6 boxes (u = 2, c = 4, k = 6, d = 4,
// T = 12), permutation placement, sparse round engine, a 0.6-Zipf audience
// at rate 0.01 and E16's churn drizzle (n / 10^5 boxes offline per round for
// 4 rounds), 20 non-strict rounds. Placement dominates setup and churn
// dominates the rounds; the working set (~520 MB) dwarfs every cache.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "alloc/permutation.hpp"
#include "bench.hpp"
#include "model/capacity.hpp"
#include "model/catalog.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace perfbench {

namespace {

namespace alloc = p2pvod::alloc;
namespace model = p2pvod::model;
namespace util = p2pvod::util;
namespace workload = p2pvod::workload;

constexpr std::uint32_t kBoxes = 1'000'000;
/// Same shape, small enough to check every round against the dense solve.
constexpr std::uint32_t kCheckBoxes = 4000;
constexpr double kUpload = 2.0;
constexpr double kStorage = 4.0;
constexpr std::uint32_t kStripes = 4;
constexpr std::uint32_t kReplicas = 6;
constexpr model::Round kDuration = 12;
constexpr model::Round kRounds = 20;
constexpr model::Round kOutage = 4;
constexpr double kZipfAlpha = 0.6;
constexpr double kDemandRate = 0.01;

/// Served and stalled request-rounds of one episode; fixed by the instance.
struct Served {
  std::uint64_t served = 0;
  std::uint64_t stalled = 0;
  bool operator==(const Served&) const = default;
};

/// Outputs on record for kRecordedSeed (10^6 boxes, then the check instance).
constexpr Served kRecordedMain{6178327, 0};
constexpr Served kRecordedCheck{25923, 0};

sim::SimulatorOptions simulator_options(bool verify) {
  sim::SimulatorOptions options;
  options.strict = false;
  options.sparse = true;
  options.verify_incremental = verify;
  return options;
}

/// Everything setup builds, each public constructor or call under its own
/// span.
struct Instance {
  Instance(std::uint32_t n, std::uint64_t seed, bool verify)
      : catalog(spanned("bench/catalog",
                        [&] {
                          return model::Catalog(
                              std::max<std::uint32_t>(
                                  2, static_cast<std::uint32_t>(
                                         kStorage * n / kReplicas)),
                              kStripes, kDuration);
                        })),
        profile(spanned("bench/profile",
                        [&] {
                          return model::CapacityProfile::homogeneous(
                              n, kUpload, kStorage);
                        })),
        allocation(spanned("bench/allocate",
                           [&] {
                             util::Rng rng(util::child_seed(seed, 1));
                             return alloc::PermutationAllocator().allocate(
                                 catalog, profile, kReplicas, rng);
                           })),
        simulator(spanned("bench/simulator",
                          [&] {
                            return sim::Simulator(catalog, profile,
                                                  allocation, strategy,
                                                  simulator_options(verify));
                          })),
        audience(spanned("bench/audience", [&] {
          return workload::ZipfDemand(catalog.video_count(), kZipfAlpha,
                                      kDemandRate, util::child_seed(seed, 2));
        })) {}

  model::Catalog catalog;
  model::CapacityProfile profile;
  alloc::Allocation allocation;
  sim::PreloadingStrategy strategy;
  sim::Simulator simulator;
  workload::ZipfDemand audience;
};

struct Episode {
  std::uint64_t offered = 0;  ///< demands handed to step()
  double run_s = 0.0;
};

/// kRounds rounds of churn drizzle + demands + step. A round-robin cursor
/// fails n / 10^5 boxes per round, each back after kOutage rounds. Per-call
/// durations land in `layers` when given.
Episode run_episode(Instance& instance, std::uint32_t n, Layers* layers) {
  sim::Simulator& simulator = instance.simulator;
  const std::uint32_t per_round = std::max<std::uint32_t>(1, n / 100000);
  std::deque<std::pair<model::Round, model::BoxId>> down;  // (up round, box)
  std::uint32_t cursor = 0;
  Episode episode;
  const auto churn = [&](model::BoxId box, bool online) {
    const obs::WallTimer timer;
    spanned("bench/churn", [&] { simulator.set_box_online(box, online); });
    if (layers != nullptr) {
      layers->churn_calls += 1;
      if (!online) layers->churn_offline_ms.push_back(timer.seconds() * 1e3);
    }
  };

  const obs::WallTimer run_timer;
  for (model::Round round = 0; round < kRounds; ++round) {
    while (!down.empty() && down.front().first <= round) {
      churn(down.front().second, true);
      down.pop_front();
    }
    for (std::uint32_t i = 0; i < per_round; ++i) {
      const model::BoxId victim = cursor;
      cursor = (cursor + 1) % n;
      if (!simulator.box_online(victim)) continue;
      churn(victim, false);
      down.emplace_back(round + kOutage, victim);
    }
    const std::vector<sim::Demand> demands = spanned(
        "bench/demands", [&] { return instance.audience.demands(simulator); });
    episode.offered += demands.size();
    const obs::WallTimer step_timer;
    spanned("bench/step", [&] { simulator.step(demands); });
    if (layers != nullptr) layers->step_ms.push_back(step_timer.seconds() * 1e3);
    trace_cut();
  }
  episode.run_s = run_timer.seconds();
  if (layers != nullptr) layers->demands += static_cast<double>(episode.offered);
  return episode;
}

Served served_of(const sim::RunReport& report) {
  return {report.chunks_served, report.chunks_stalled};
}

}  // namespace

void million_churn(const RunConfig& config, Outcome& out) {
  const std::uint64_t seed = util::child_seed(config.seed, 0xE16);

  // Untimed: the small instance validates the sparse assignment against a
  // dense reference solve every round (verify_incremental throws on a
  // mismatch, which fails the run).
  {
    Instance check(kCheckBoxes, seed, /*verify=*/true);
    const Episode episode = run_episode(check, kCheckBoxes, nullptr);
    const sim::RunReport& report = check.simulator.report();
    check_report(out, report, episode.offered, "check instance");
    out.notes.push_back("outputs check instance served=" +
                        std::to_string(report.chunks_served) +
                        " stalled=" + std::to_string(report.chunks_stalled));
    if (config.seed == kRecordedSeed)
      out.check(served_of(report) == kRecordedCheck,
                "check instance: served/stalled differ from the record");
  }

  std::optional<Served> first;
  std::unique_ptr<Instance> instance;
  const auto rep = [&](Layers* layers) {
    instance.reset();  // one instance alive at a time: peak RSS is one rung
    const obs::WallTimer setup_timer;
    instance = std::make_unique<Instance>(kBoxes, seed, false);
    const double setup = setup_timer.seconds();
    const Episode episode = run_episode(*instance, kBoxes, layers);
    const sim::RunReport& report = instance->simulator.report();
    check_report(out, report, episode.offered, "10^6 boxes");
    if (!first) first = served_of(report);
    out.check(served_of(report) == *first,
              "10^6 boxes: served/stalled differ between repetitions");
    out.attempted += kRounds;
    if (layers != nullptr) layers->add_report(report);
    return std::pair{setup, episode.run_s};
  };

  const Traced traced = measure_reps(config, out, rep);
  out.notes.push_back("outputs 10^6 boxes served=" +
                      std::to_string(first->served) +
                      " stalled=" + std::to_string(first->stalled));
  if (config.seed == kRecordedSeed)
    out.check(first == kRecordedMain,
              "10^6 boxes: served/stalled differ from the record");
  if (config.trace)
    out.notes.push_back(
        "share alloc.allocate_s/setup_s=" +
        std::to_string(traced.layers.allocate_s / traced.setup_s) +
        " sim.churn_s/run_s=" +
        std::to_string(traced.layers.churn_s / traced.run_s));
}

}  // namespace perfbench
