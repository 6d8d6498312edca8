// Shared vocabulary of the perfbench workloads: run configuration, metrics,
// output checks, and the per-layer accounting built from the benchmark's own
// spans (see README.md in this directory for what each metric means and
// which end-to-end metric it should move).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sim/report.hpp"

namespace perfbench {

namespace obs = p2pvod::obs;
namespace sim = p2pvod::sim;

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time the timed phase must reach
  bool trace = false;     ///< per-layer run instead of the end-to-end one
};

/// The seed whose exact outputs each workload has on record.
inline constexpr std::uint64_t kRecordedSeed = 1;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;        ///< rounds or trials in the timed phase
  std::vector<std::string> failures;  ///< output checks that did not hold
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< informational lines printed with results

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Runs `op` once per call with its result, so span nesting follows the
/// call: the span covers exactly the public call, return-value construction
/// included (guaranteed copy elision, so non-movable results work too).
template <typename F>
decltype(auto) spanned(const char* name, F&& op) {
  const obs::SpanGuard span(name);
  return op();
}

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile; 0 for an empty sample.
[[nodiscard]] double quantile_or_zero(const std::vector<double>& values,
                                      double q);

/// setup_s and run_s as medians of their per-repetition samples.
void add_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                    const std::vector<double>& run_s);

/// RunReport invariants every workload checks: served + stalled equals the
/// summed per-round live requests, and admitted + rejected equals the
/// demands the benchmark offered.
void check_report(Outcome& out, const sim::RunReport& report,
                  std::uint64_t offered, const std::string& label);

/// Starts tracing a phase.
void trace_begin();
/// Between two slices of a traced phase (outside every span): folds the
/// events so far into the phase's call tree and keeps recording, so a long
/// phase never overflows the per-thread rings. A no-op when not tracing.
void trace_cut();
/// Stops tracing and returns the phase's call tree, all threads merged.
/// Throws std::runtime_error when a ring dropped events, since the sums
/// below would then be short.
[[nodiscard]] obs::ProfileNode trace_end();
/// Seconds the last traced phase spent folding slices at trace_cut(): the
/// benchmark's own bookkeeping, taken out of the traced wall times.
[[nodiscard]] double trace_fold_seconds();

/// Σ inclusive seconds of every node named `name` (not counting a same-name
/// node nested inside another).
[[nodiscard]] double span_seconds(const obs::ProfileNode& node,
                                  std::string_view name);
/// Σ inclusive seconds of the top-level spans the benchmark itself opened.
[[nodiscard]] double bench_top_level_seconds(const obs::ProfileNode& root);

[[nodiscard]] std::uint64_t counter_delta(const obs::MetricsSnapshot& delta,
                                          const std::string& name);

/// Per-layer figures for one traced episode (one full simulation, or one
/// grid pass for threshold_trials).
struct Layers {
  double allocate_s = 0.0;
  double demands_s = 0.0;
  double demands = 0.0;
  double churn_s = 0.0;
  double churn_calls = 0.0;
  std::vector<double> churn_offline_ms;
  double step_s = 0.0;
  std::vector<double> step_ms;
  double solve_round_s = 0.0;
  double build_candidates_s = 0.0;
  double match_s = 0.0;
  double min_cost_s = 0.0;
  double csr_augment_s = 0.0;

  double rows_built = 0.0;
  double row_patches = 0.0;
  double sparse_full_rebuilds = 0.0;
  double live_requests = 0.0;  ///< Σ per-round live requests
  double kept_connections = 0.0;
  double new_connections = 0.0;

  double sparse_expiry_events = 0.0;
  double demands_admitted = 0.0;
  double demands_rejected = 0.0;
  double chunks_matched = 0.0;
  double chunks_unmatched = 0.0;
  double matcher_edges = 0.0;
  double min_cost_solves = 0.0;
  double min_cost_augmentations = 0.0;
  double csr_augments = 0.0;

  std::vector<double> trial_ms;
  double pool_busy_fraction = 0.0;
  double pool_worker_imbalance = 0.0;
  double pool_executed_stolen = 0.0;
  double pool_helping_runs = 0.0;

  double trace_overhead_pct = 0.0;
  double span_coverage = 0.0;

  /// Span totals from `tree` and kStable counter deltas from `delta`.
  void add_trace(const obs::ProfileNode& tree,
                 const obs::MetricsSnapshot& delta);
  /// Work totals a RunReport carries and no counter does (dense rows built,
  /// connection reuse, live requests).
  void add_report(const sim::RunReport& report);
};

/// Every per-layer metric, in BENCHMARK.json order.
[[nodiscard]] std::vector<Metric> layer_metrics(const Layers& layers);

/// The traced repetition of measure_reps: its per-layer figures and times.
struct Traced {
  Layers layers;
  double setup_s = 0.0;
  double run_s = 0.0;
};

/// The measurement the simulation workloads share. `rep(Layers*)` builds a
/// fresh instance, simulates one episode and returns {setup_s, run_s}.
/// Repetitions run until their run phases add up to `config.seconds`, and
/// at least three times so that setup_s is a median too. Untraced, the
/// medians become the end-to-end metrics. Traced, one more repetition runs
/// under a trace session and its per-layer figures replace them.
template <typename Rep>
Traced measure_reps(const RunConfig& config, Outcome& out, Rep&& rep) {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  double measured = 0.0;
  while (run_s.size() < 3 || measured < config.seconds) {
    const auto [setup, run] = rep(nullptr);
    setup_s.push_back(setup);
    run_s.push_back(run);
    measured += run;
  }
  if (!config.trace) {
    add_end_to_end(out, setup_s, run_s);
    return {};
  }
  Traced traced;
  Layers& layers = traced.layers;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  trace_begin();
  std::tie(traced.setup_s, traced.run_s) = rep(&layers);
  const obs::ProfileNode tree = trace_end();
  traced.run_s -= trace_fold_seconds();
  layers.add_trace(
      tree, obs::MetricsRegistry::global().snapshot().delta_since(before));
  layers.span_coverage =
      bench_top_level_seconds(tree) / (traced.setup_s + traced.run_s);
  const double untraced = median(run_s);
  layers.trace_overhead_pct = (traced.run_s - untraced) / untraced * 100.0;
  out.metrics = layer_metrics(layers);
  return traced;
}

void million_churn(const RunConfig& config, Outcome& out);
void zone_mincost(const RunConfig& config, Outcome& out);
void threshold_trials(const RunConfig& config, Outcome& out);

}  // namespace perfbench
