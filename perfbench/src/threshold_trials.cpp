// threshold_trials: the paper's own question. Calibrator::success_rate for
// the full adversarial suite (avoider, flash crowd, distinct videos; strict)
// at n = 200, µ = 1.3, T = 12, 36 rounds, over a grid of upload capacities
// straddling the threshold u = 1. Many small cache-resident trials run in
// parallel on the global pool on the default dense incremental path.
//
// The traced run adds three phases to the untraced grid passes:
//   A. one grid pass through success_rate under a trace session: tracing
//      overhead, span coverage and the pool's scheduling counters;
//   B. the same trials through a replica of Calibrator::run_trial built from
//      the public calls it makes (allocate, demands, step), each under its
//      own span, on the same pool: the per-layer split. Its kStable counter
//      deltas and per-u success counts must equal phase A's;
//   C. the first kTimedTrials trials of each point through run_trial one at
//      a time, untraced: the trial latency distribution, and the mean trial
//      time behind the pool's busy fraction.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "analysis/calibrate.hpp"
#include "bench.hpp"
#include "model/capacity.hpp"
#include "model/catalog.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/adversarial.hpp"
#include "workload/distinct.hpp"
#include "workload/flash_crowd.hpp"
#include "workload/limiter.hpp"

namespace perfbench {

namespace {

namespace alloc = p2pvod::alloc;
namespace analysis = p2pvod::analysis;
namespace model = p2pvod::model;
namespace util = p2pvod::util;
namespace workload = p2pvod::workload;

constexpr std::array<double, 5> kUploads = {0.9, 1.0, 1.1, 1.25, 1.5};
constexpr std::uint32_t kTrials = 128;  ///< per grid point
/// Trials per point phase C times one at a time (the first ones).
constexpr std::uint32_t kTimedTrials = 32;
constexpr std::size_t kPoints = kUploads.size();

using Counts = std::array<std::uint32_t, kPoints>;

/// Successful trials per grid point on record for kRecordedSeed.
constexpr Counts kRecorded = {0, 25, 24, 128, 128};

analysis::TrialSpec spec_at(std::size_t point) {
  analysis::TrialSpec spec;
  spec.n = 200;
  spec.u = kUploads[point];
  spec.mu = 1.3;
  spec.duration = 12;
  spec.rounds = 36;
  spec.suite = analysis::WorkloadSuite::kFull;
  return spec;
}

/// success_rate's per-trial seeds derive from this per-point base seed.
std::uint64_t point_seed(std::uint64_t seed, std::size_t point) {
  return util::child_seed(seed, point);
}

std::uint32_t success_rate(std::uint64_t seed, std::size_t point) {
  const util::Proportion rate = spanned("bench/success_rate", [&] {
    return analysis::Calibrator::success_rate(spec_at(point), kTrials,
                                              point_seed(seed, point));
  });
  return static_cast<std::uint32_t>(std::lround(rate.estimate * kTrials));
}

Counts grid_pass(std::uint64_t seed) {
  Counts counts{};
  for (std::size_t point = 0; point < kPoints; ++point)
    counts[point] = success_rate(seed, point);
  return counts;
}

/// What one replica trial did, kept per trial so that the parallel phase
/// reduces in trial order.
struct TrialRecord {
  bool success = true;
  std::vector<sim::RunReport> reports;
  std::vector<std::uint64_t> offered;
  std::vector<double> step_ms;
};

/// One strict simulation of the suite member `which`, as
/// Calibrator::run_trial runs it, with spans around demands and step.
bool replica_workload(const analysis::TrialSpec& spec,
                      const model::Catalog& catalog,
                      const model::CapacityProfile& profile,
                      const alloc::Allocation& allocation,
                      analysis::WorkloadSuite which, std::uint64_t seed,
                      TrialRecord& record) {
  const auto strategy = sim::make_strategy(spec.strategy);
  sim::SimulatorOptions options;
  options.strict = true;
  sim::Simulator simulator(catalog, profile, allocation, *strategy, options);
  std::uint64_t offered = 0;
  const auto drive = [&](workload::DemandGenerator& generator) {
    for (model::Round t = 0; t < spec.rounds && !simulator.stalled(); ++t) {
      const std::vector<sim::Demand> demands = spanned(
          "bench/demands", [&] { return generator.demands(simulator); });
      offered += demands.size();
      const obs::WallTimer timer;
      spanned("bench/step", [&] { simulator.step(demands); });
      record.step_ms.push_back(timer.seconds() * 1e3);
    }
  };

  util::Rng rng(seed);
  switch (which) {
    case analysis::WorkloadSuite::kAvoider: {
      workload::AvoiderAdversary inner(rng.child(1).seed());
      workload::GrowthLimiter limited(inner, spec.mu);
      drive(limited);
      break;
    }
    case analysis::WorkloadSuite::kFlashCrowd: {
      const auto video =
          static_cast<model::VideoId>(rng.next_below(catalog.video_count()));
      workload::FlashCrowd inner(video, spec.mu);
      drive(inner);
      break;
    }
    default: {
      workload::DistinctVideosSweep inner(rng.child(2).seed(),
                                          /*repeat=*/true);
      workload::GrowthLimiter limited(inner, spec.mu);
      drive(limited);
      break;
    }
  }
  record.reports.push_back(simulator.report());
  record.offered.push_back(offered);
  return simulator.report().success;
}

TrialRecord replica_trial(const analysis::TrialSpec& spec,
                          std::uint64_t seed) {
  const obs::SpanGuard span("bench/trial");
  const model::Catalog catalog(spec.catalog(), spec.c, spec.duration);
  const auto profile =
      model::CapacityProfile::homogeneous(spec.n, spec.u, spec.d);
  util::Rng rng(seed);
  const alloc::Allocation allocation = spanned("bench/allocate", [&] {
    return alloc::make_allocator(spec.scheme)
        ->allocate(catalog, profile, spec.k, rng);
  });
  TrialRecord record;
  for (const analysis::WorkloadSuite which :
       {analysis::WorkloadSuite::kAvoider, analysis::WorkloadSuite::kFlashCrowd,
        analysis::WorkloadSuite::kDistinct}) {
    const std::uint64_t child =
        rng.child(10 + static_cast<std::uint64_t>(which)).seed();
    if (!replica_workload(spec, catalog, profile, allocation, which, child,
                          record)) {
      record.success = false;
      break;
    }
  }
  return record;
}

/// The counters phases A and B must agree on exactly (kStable work totals).
const std::vector<std::string> kReplicaCounters = {
    "sim/rounds",         "sim/demands_admitted", "sim/demands_rejected",
    "sim/chunks_matched", "sim/chunks_unmatched", "sim/matcher_edges"};

}  // namespace

void threshold_trials(const RunConfig& config, Outcome& out) {
  const std::uint64_t seed = util::child_seed(config.seed, 0xE2);
  if (config.trace) trace_begin();

  // Setup: global-pool start-up plus one warm-up grid point, so the slow
  // first parallel regions of a fresh process land here, not in run_s. The
  // warm-up is the largest u, whose trials all run every round.
  const obs::WallTimer setup_timer;
  util::ThreadPool& pool =
      spanned("bench/pool_start",
              []() -> util::ThreadPool& { return util::ThreadPool::global(); });
  const std::uint32_t warm = success_rate(seed, kPoints - 1);
  const double setup_s = setup_timer.seconds();
  double covered = 0.0;
  if (config.trace) covered += bench_top_level_seconds(trace_end());

  std::vector<double> run_s;
  Counts first{};
  double measured = 0.0;
  while (run_s.size() < 3 || measured < config.seconds) {
    const obs::WallTimer timer;
    const Counts counts = grid_pass(seed);
    run_s.push_back(timer.seconds());
    measured += run_s.back();
    if (run_s.size() == 1) first = counts;
    out.check(counts == first,
              "threshold_trials: success counts differ between passes");
    out.attempted += kPoints * kTrials;
  }
  std::string successes = "outputs successes per u:";
  for (const std::uint32_t count : first) {
    successes += ' ';
    successes += std::to_string(count) + "/" + std::to_string(kTrials);
  }
  out.notes.push_back(successes);
  out.check(warm == first[kPoints - 1],
            "threshold_trials: warm-up point differs from the grid pass");
  if (config.seed == kRecordedSeed)
    out.check(first == kRecorded,
              "threshold_trials: success counts differ from the record");

  if (!config.trace) {
    add_end_to_end(out, {setup_s}, run_s);
    return;
  }

  // Phase A: success_rate traced; the pool counters cover this pass only.
  Layers layers;
  const util::PoolStats pool_before = pool.stats();
  const obs::MetricsSnapshot before_a = obs::MetricsRegistry::global().snapshot();
  trace_begin();
  const obs::WallTimer a_timer;
  const Counts counts_a = grid_pass(seed);
  const double a_s = a_timer.seconds();
  covered += bench_top_level_seconds(trace_end());
  const obs::MetricsSnapshot delta_a =
      obs::MetricsRegistry::global().snapshot().delta_since(before_a);
  const util::PoolStats pool_after = pool.stats();
  out.check(counts_a == first,
            "threshold_trials: traced pass differs from untraced passes");
  layers.span_coverage = covered / (setup_s + a_s);
  layers.trace_overhead_pct = (a_s - median(run_s)) / median(run_s) * 100.0;
  layers.pool_executed_stolen = static_cast<double>(
      pool_after.executed_stolen - pool_before.executed_stolen);
  layers.pool_helping_runs =
      static_cast<double>(pool_after.helping_runs - pool_before.helping_runs);
  double executed_max = 0.0;
  double executed_sum = 0.0;
  for (std::size_t w = 0; w < pool_after.per_worker_executed.size(); ++w) {
    const auto executed = static_cast<double>(
        pool_after.per_worker_executed[w] - pool_before.per_worker_executed[w]);
    executed_max = std::max(executed_max, executed);
    executed_sum += executed;
  }
  if (executed_sum > 0.0)
    layers.pool_worker_imbalance =
        executed_max / (executed_sum / static_cast<double>(pool.size()));

  // Phase B: the replica on the same pool and the same trial seeds.
  std::vector<TrialRecord> records(kPoints * kTrials);
  const obs::MetricsSnapshot before_b = obs::MetricsRegistry::global().snapshot();
  trace_begin();
  for (std::size_t point = 0; point < kPoints; ++point) {
    util::parallel_for(0, kTrials, [&](std::size_t trial) {
      records[point * kTrials + trial] = replica_trial(
          spec_at(point), util::child_seed(point_seed(seed, point), trial));
    });
  }
  const obs::ProfileNode tree_b = trace_end();
  const obs::MetricsSnapshot delta_b =
      obs::MetricsRegistry::global().snapshot().delta_since(before_b);
  layers.add_trace(tree_b, delta_b);
  Counts counts_b{};
  for (std::size_t i = 0; i < records.size(); ++i) {
    const TrialRecord& record = records[i];
    counts_b[i / kTrials] += record.success ? 1 : 0;
    for (std::size_t r = 0; r < record.reports.size(); ++r) {
      check_report(out, record.reports[r], record.offered[r], "replica trial");
      layers.add_report(record.reports[r]);
      layers.demands += static_cast<double>(record.offered[r]);
    }
    layers.step_ms.insert(layers.step_ms.end(), record.step_ms.begin(),
                          record.step_ms.end());
  }
  out.check(counts_b == first,
            "threshold_trials: replica success counts differ from success_rate");
  for (const std::string& name : kReplicaCounters)
    out.check(counter_delta(delta_a, name) == counter_delta(delta_b, name),
              "threshold_trials: replica counter " + name +
                  " differs from success_rate");

  // Phase C: run_trial one at a time, untraced, on a sample of the trials.
  double trial_s_sum = 0.0;
  std::uint32_t disagreements = 0;
  for (std::size_t point = 0; point < kPoints; ++point) {
    for (std::uint32_t trial = 0; trial < kTimedTrials; ++trial) {
      const obs::WallTimer timer;
      const bool ok = spanned("bench/run_trial", [&] {
        return analysis::Calibrator::run_trial(
            spec_at(point), util::child_seed(point_seed(seed, point), trial));
      });
      const double seconds = timer.seconds();
      trial_s_sum += seconds;
      layers.trial_ms.push_back(seconds * 1e3);
      if (ok != records[point * kTrials + trial].success) ++disagreements;
    }
  }
  out.check(disagreements == 0,
            "threshold_trials: run_trial and the replica disagree on " +
                std::to_string(disagreements) + " trials");
  // Σ trial time over a pass, estimated from the sample's mean.
  const double pass_trial_s = trial_s_sum / (kPoints * kTimedTrials) *
                              static_cast<double>(kPoints * kTrials);
  layers.pool_busy_fraction =
      pass_trial_s / (static_cast<double>(pool.size()) * median(run_s));
  out.metrics = layer_metrics(layers);

  const double trial_thread_s = span_seconds(tree_b, "bench/trial");
  out.notes.push_back(
      "share (sim.build_candidates_s+flow.match_s)/summed trial time=" +
      std::to_string((layers.build_candidates_s + layers.match_s) /
                     trial_thread_s));
}

}  // namespace perfbench
