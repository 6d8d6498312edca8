#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/clock.hpp"
#include "util/stats.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  return quantile_or_zero(values, 0.5);
}

double quantile_or_zero(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : p2pvod::util::quantile(values, q);
}

void add_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                    const std::vector<double>& run_s) {
  out.metrics.push_back({"setup_s", median(setup_s), "s"});
  out.metrics.push_back({"run_s", median(run_s), "s"});
  const auto list = [](const std::vector<double>& samples) {
    std::string text;
    for (const double sample : samples) {
      text += text.empty() ? "" : ",";
      text += std::to_string(sample);
    }
    return text;
  };
  out.notes.push_back("samples setup_s=" + list(setup_s) +
                      " run_s=" + list(run_s));
}

void check_report(Outcome& out, const sim::RunReport& report,
                  std::uint64_t offered, const std::string& label) {
  const auto live = static_cast<std::uint64_t>(
      std::llround(report.active_requests.sum()));
  out.check(report.chunks_served + report.chunks_stalled == live,
            label + ": served + stalled != summed live requests");
  out.check(report.demands_admitted + report.demands_rejected == offered,
            label + ": admitted + rejected != demands offered");
}

namespace {

/// The call tree of the current traced phase, folded slice by slice.
obs::ProfileNode g_tree;
double g_fold_s = 0.0;

void add_tree(obs::ProfileNode& into, const obs::ProfileNode& from) {
  into.count += from.count;
  into.total_ns += from.total_ns;
  into.self_ns += from.self_ns;
  for (const auto& [name, child] : from.children) {
    obs::ProfileNode& target = into.children[name];
    target.name = name;
    add_tree(target, child);
  }
}

void start_session() {
  obs::TraceSession::Options options;
  options.ring_capacity = std::size_t{1} << 18;
  obs::TraceSession::start(options);
}

void fold_session() {
  const obs::WallTimer timer;
  const std::vector<obs::TraceEvent> events = obs::TraceSession::stop();
  if (obs::TraceSession::dropped_events() != 0)
    throw std::runtime_error("trace ring dropped events; per-layer sums short");
  add_tree(g_tree, obs::Profile::from_events(events).merged());
  g_fold_s += timer.seconds();
}

}  // namespace

void trace_begin() {
  g_tree = obs::ProfileNode{};
  g_fold_s = 0.0;
  start_session();
}

void trace_cut() {
  if (!obs::TraceSession::active()) return;
  fold_session();
  start_session();
}

obs::ProfileNode trace_end() {
  fold_session();
  return g_tree;
}

double trace_fold_seconds() { return g_fold_s; }

double span_seconds(const obs::ProfileNode& node, std::string_view name) {
  double total = 0.0;
  for (const auto& [child_name, child] : node.children) {
    if (child_name == name) {
      total += static_cast<double>(child.total_ns) * 1e-9;
    } else {
      total += span_seconds(child, name);
    }
  }
  return total;
}

double bench_top_level_seconds(const obs::ProfileNode& root) {
  double total = 0.0;
  for (const auto& [name, child] : root.children) {
    if (name.rfind("bench/", 0) == 0)
      total += static_cast<double>(child.total_ns) * 1e-9;
  }
  return total;
}

std::uint64_t counter_delta(const obs::MetricsSnapshot& delta,
                            const std::string& name) {
  const auto it = delta.values.find(name);
  return it == delta.values.end() ? 0 : it->second.count;
}

void Layers::add_trace(const obs::ProfileNode& tree,
                       const obs::MetricsSnapshot& delta) {
  allocate_s += span_seconds(tree, "bench/allocate");
  demands_s += span_seconds(tree, "bench/demands");
  churn_s += span_seconds(tree, "bench/churn");
  step_s += span_seconds(tree, "bench/step");
  solve_round_s += span_seconds(tree, "sim/solve_round");
  build_candidates_s += span_seconds(tree, "sim/build_candidates");
  match_s += span_seconds(tree, "sim/match");
  min_cost_s += span_seconds(tree, "flow/min_cost");
  csr_augment_s += span_seconds(tree, "flow/csr_augment");

  const auto count = [&](const char* name) {
    return static_cast<double>(counter_delta(delta, name));
  };
  sparse_expiry_events += count("sim/sparse_expiry_events");
  demands_admitted += count("sim/demands_admitted");
  demands_rejected += count("sim/demands_rejected");
  chunks_matched += count("sim/chunks_matched");
  chunks_unmatched += count("sim/chunks_unmatched");
  matcher_edges += count("sim/matcher_edges");
  min_cost_solves += count("flow/min_cost_solves");
  min_cost_augmentations += count("flow/min_cost_augmentations");
  csr_augments += count("flow/csr_augments");
}

void Layers::add_report(const sim::RunReport& report) {
  rows_built += static_cast<double>(report.rows_built);
  row_patches += static_cast<double>(report.row_patches);
  sparse_full_rebuilds += static_cast<double>(report.sparse_full_rebuilds);
  live_requests += static_cast<double>(report.chunks_served +
                                       report.chunks_stalled);
  kept_connections += static_cast<double>(report.kept_connections);
  new_connections += static_cast<double>(report.new_connections);
}

std::vector<Metric> layer_metrics(const Layers& l) {
  const auto ratio = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  return {
      {"alloc.allocate_s", l.allocate_s, "s"},
      {"workload.demands_s", l.demands_s, "s"},
      {"workload.demands", l.demands, "count"},
      {"sim.churn_s", l.churn_s, "s"},
      {"sim.churn_calls", l.churn_calls, "count"},
      {"sim.churn_offline_ms_p50", quantile_or_zero(l.churn_offline_ms, 0.5),
       "ms"},
      {"sim.churn_offline_ms_p95", quantile_or_zero(l.churn_offline_ms, 0.95),
       "ms"},
      {"sim.step_s", l.step_s, "s"},
      {"sim.step_ms_p50", quantile_or_zero(l.step_ms, 0.5), "ms"},
      {"sim.solve_round_s", l.solve_round_s, "s"},
      {"sim.step_other_s", l.step_s - l.solve_round_s, "s"},
      {"sim.build_candidates_s", l.build_candidates_s, "s"},
      {"sim.rows_built", l.rows_built, "count"},
      {"sim.row_patches", l.row_patches, "count"},
      {"sim.sparse_full_rebuilds", l.sparse_full_rebuilds, "count"},
      {"sim.sparse_expiry_events", l.sparse_expiry_events, "count"},
      {"sim.rows_built_per_active", ratio(l.rows_built, l.live_requests),
       "ratio"},
      {"sim.demands_admitted", l.demands_admitted, "count"},
      {"sim.demands_rejected", l.demands_rejected, "count"},
      {"sim.admit_ratio",
       ratio(l.demands_admitted, l.demands_admitted + l.demands_rejected),
       "ratio"},
      {"sim.chunks_matched", l.chunks_matched, "count"},
      {"sim.chunks_unmatched", l.chunks_unmatched, "count"},
      {"flow.match_s", l.match_s, "s"},
      {"flow.matcher_edges", l.matcher_edges, "count"},
      {"flow.kept_fraction",
       ratio(l.kept_connections, l.kept_connections + l.new_connections),
       "ratio"},
      {"flow.min_cost_s", l.min_cost_s, "s"},
      {"flow.min_cost_solves", l.min_cost_solves, "count"},
      {"flow.min_cost_augmentations", l.min_cost_augmentations, "count"},
      {"flow.min_cost_augmentations_per_chunk",
       ratio(l.min_cost_augmentations, l.chunks_matched), "ratio"},
      {"flow.csr_augment_s", l.csr_augment_s, "s"},
      {"flow.csr_augments", l.csr_augments, "count"},
      {"analysis.trial_ms_p50", quantile_or_zero(l.trial_ms, 0.5), "ms"},
      {"analysis.trial_ms_p95", quantile_or_zero(l.trial_ms, 0.95), "ms"},
      {"util.pool_busy_fraction", l.pool_busy_fraction, "ratio"},
      {"util.pool_worker_imbalance", l.pool_worker_imbalance, "ratio"},
      {"util.pool_executed_stolen", l.pool_executed_stolen, "count"},
      {"util.pool_helping_runs", l.pool_helping_runs, "count"},
      {"obs.trace_overhead_pct", l.trace_overhead_pct, "%"},
      {"obs.span_coverage", l.span_coverage, "ratio"},
  };
}

}  // namespace perfbench
