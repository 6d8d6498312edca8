// E12b — simulator round-throughput benchmarks (google-benchmark).
//
// Measures full simulated rounds per second under a steady Zipf audience on
// the dense (carry repair) and sparse (persistent CSR repair) round paths,
// scaling n, the cost of one box failure and recovery (BM_BoxOffline), the
// permutation allocation's build (BM_PermutationAllocate) and one Zipf draw
// (BM_ZipfSample).
// BM_IncrementalRepair in bench_perf_flow measures the repair against a
// from-scratch solve.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "alloc/permutation.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/limiter.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace p2pvod;

struct BenchWorld {
  BenchWorld(std::uint32_t n, bool sparse)
      : catalog(std::max<std::uint32_t>(2, 4 * n / 6), 4, 16),
        profile(model::CapacityProfile::homogeneous(n, 2.0, 4.0)),
        rng(0xBEEF),
        allocation(alloc::PermutationAllocator().allocate(catalog, profile, 6,
                                                          rng)) {
    options.sparse = sparse;
    options.strict = false;
  }

  model::Catalog catalog;
  model::CapacityProfile profile;
  util::Rng rng;
  alloc::Allocation allocation;
  sim::SimulatorOptions options;
};

void run_rounds(benchmark::State& state, bool sparse) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  BenchWorld world(n, sparse);
  for (auto _ : state) {
    state.PauseTiming();
    sim::PreloadingStrategy strategy;
    sim::Simulator simulator(world.catalog, world.profile, world.allocation,
                             strategy, world.options);
    workload::ZipfDemand zipf(world.catalog.video_count(), 0.8, 0.1, 0x51);
    workload::GrowthLimiter limited(zipf, 1.3);
    state.ResumeTiming();
    benchmark::DoNotOptimize(simulator.run(limited, 32).chunks_served);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
  state.counters["rounds/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 32.0,
      benchmark::Counter::kIsRate);
}

void BM_SimulatorIncremental(benchmark::State& state) {
  run_rounds(state, false);
}
BENCHMARK(BM_SimulatorIncremental)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// Sparse CSR round path (E16) at the same workshop sizes — apples-to-apples
// with the dense variant above.
void BM_SimulatorSparse(benchmark::State& state) { run_rounds(state, true); }
BENCHMARK(BM_SimulatorSparse)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// Candidate construction at production n: the dense loop re-collects every
// live row every round; the sparse loop only dirtied rows. The rows_built
// counters exported per variant are the apples-to-apples work measure (the
// E16 acceptance bar: sparse wins construction by >= 5x at n >= 1e5).
void run_rounds_at_scale(benchmark::State& state, bool sparse) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  BenchWorld world(n, sparse);
  std::uint64_t rows_built = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::PreloadingStrategy strategy;
    sim::Simulator simulator(world.catalog, world.profile, world.allocation,
                             strategy, world.options);
    workload::ZipfDemand zipf(world.catalog.video_count(), 0.6, 0.01, 0x51);
    state.ResumeTiming();
    benchmark::DoNotOptimize(simulator.run(zipf, 16).chunks_served);
    rows_built += simulator.report().rows_built;
    rounds += 16;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
  state.counters["rounds/s"] = benchmark::Counter(
      static_cast<double>(rounds), benchmark::Counter::kIsRate);
  state.counters["rows_built/round"] =
      static_cast<double>(rows_built) / static_cast<double>(rounds);
}

void BM_RoundLoopDenseAtScale(benchmark::State& state) {
  run_rounds_at_scale(state, false);
}
BENCHMARK(BM_RoundLoopDenseAtScale)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_RoundLoopSparseAtScale(benchmark::State& state) {
  run_rounds_at_scale(state, true);
}
BENCHMARK(BM_RoundLoopSparseAtScale)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Churn at production n: one box failing and coming back per iteration, on a
// warmed-up sparse simulator. The failure strips only the box's own cache
// grants, so per-event time does not follow the stripe count (4n/6 videos of
// 4 stripes here); what still grows with n is the scan of the live requests
// for relayed sessions and the order-preserving removal of an aborted
// session's requests. Every 64 events a round is simulated (untimed) so
// failed viewers are replaced and the cache stays populated.
void BM_BoxOffline(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  BenchWorld world(n, /*sparse=*/true);
  sim::PreloadingStrategy strategy;
  sim::Simulator simulator(world.catalog, world.profile, world.allocation,
                           strategy, world.options);
  workload::ZipfDemand zipf(world.catalog.video_count(), 0.6, 0.02, 0x51);
  for (int round = 0; round < 16; ++round)
    simulator.step(zipf.demands(simulator));

  model::BoxId box = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    simulator.set_box_online(box, false);
    simulator.set_box_online(box, true);
    benchmark::DoNotOptimize(simulator.report().sessions_aborted);
    box = (box + 7919) % n;  // prime stride: failures spread over the boxes
    if (++events % 64 == 0) {
      state.PauseTiming();
      simulator.step(zipf.demands(simulator));
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["aborted/event"] =
      static_cast<double>(simulator.report().sessions_aborted) /
      static_cast<double>(std::max<std::uint64_t>(1, events));
}
BENCHMARK(BM_BoxOffline)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// Allocation cost (setup path, not the round loop).
void BM_PermutationAllocate(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const model::Catalog catalog(std::max<std::uint32_t>(2, 4 * n / 6), 4, 16);
  const auto profile = model::CapacityProfile::homogeneous(n, 2.0, 4.0);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    benchmark::DoNotOptimize(
        alloc::PermutationAllocator()
            .allocate(catalog, profile, 6, rng)
            .max_slot_usage());
  }
}
BENCHMARK(BM_PermutationAllocate)->Arg(256)->Arg(1024)->Arg(1 << 16)
    ->Unit(benchmark::kMicrosecond);

/// One Zipf draw over the 666k-video catalog of the 10^6-box rung.
void BM_ZipfSample(benchmark::State& state) {
  const workload::ZipfSampler sampler(
      static_cast<std::uint32_t>(state.range(0)), 0.6);
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(sampler.sample(rng));
}
BENCHMARK(BM_ZipfSample)->Arg(666666);

}  // namespace

BENCHMARK_MAIN();
