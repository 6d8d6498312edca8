// perfbench — the repo benchmark's workload runner.
//
//   perfbench --workload <million_churn|zone_mincost|threshold_trials>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints the build and machine it ran on, one "metric" line per metric, and
// last a JSON object {correct, attempted, failed, metrics}. With --trace 0
// the metrics are the end-to-end ones (setup_s, run_s; peak_rss_mb is added
// by run.py, which watches the process from outside); with --trace 1 they
// are the per-layer ones. Exit code 0 means a result was printed, whether or
// not its output checks held (that is what "correct" reports); 2 is a usage
// error or a refused environment.
#include <malloc.h>
#include <sched.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "bench.hpp"
#include "util/thread_pool.hpp"

namespace {

using perfbench::Outcome;
using perfbench::RunConfig;

/// Knobs that change code paths, sizes, thread counts or what the library
/// records. A benchmark run must not be steered by any of them.
constexpr std::string_view kRefusedKnobs[] = {
    "P2PVOD_SPARSE",  "P2PVOD_SPARSE_REBUILD_PCT", "P2PVOD_GRAIN",
    "P2PVOD_PROBE_WIDTH", "P2PVOD_SCALE",          "P2PVOD_ZONES",
    "P2PVOD_THREADS", "P2PVOD_TRACE",              "P2PVOD_PROFILE",
    "P2PVOD_METRICS", "P2PVOD_SERIES"};

int usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<million_churn|zone_mincost|threshold_trials> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               problem);
  return 2;
}

/// CPUs this process may run on (what `nproc` prints).
int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return !text.empty() && text[0] != '-' && end != nullptr && *end == '\0';
}

void print_json(const Outcome& out) {
  const bool correct = out.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(correct ? 0 : out.attempted));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& metric = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, config.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, seconds) || seconds == 0 || seconds > 600)
        return usage("--seconds must be 1..600");
    } else if (flag == "--trace") {
      if (!parse_u64(value, trace) || trace > 1)
        return usage("--trace must be 0 or 1");
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || !have_seed || seconds == 0 || trace > 1)
    return usage("--workload, --seed, --seconds and --trace are required");
  config.seconds = static_cast<double>(seconds);
  config.trace = trace == 1;

  void (*run)(const RunConfig&, Outcome&) = nullptr;
  if (workload == "million_churn") run = perfbench::million_churn;
  if (workload == "zone_mincost") run = perfbench::zone_mincost;
  if (workload == "threshold_trials") run = perfbench::threshold_trials;
  if (run == nullptr) return usage(("unknown workload " + workload).c_str());

  for (const std::string_view knob : kRefusedKnobs) {
    if (std::getenv(std::string(knob).c_str()) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                   std::string(knob).c_str());
      return 2;
    }
  }
  // glibc raises its mmap threshold (and with it the trim threshold) to the
  // size of the largest mmapped block freed so far, after which the malloc
  // arenas keep freed memory they would otherwise return. Whether that
  // happened depended on which rare trial freed a multi-MB block first:
  // threshold_trials' peak RSS jumped between ~20 and ~30 MB from seed to
  // seed, million_churn's between ~550 and ~600 MB. Freezing the threshold
  // at glibc's initial 128 KiB makes peak memory a function of the workload.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  // The global pool sizes itself from this knob on first use: one worker
  // per CPU the process may use, whatever the machine has in total.
  const int cpus = allowed_cpus();
  setenv("P2PVOD_THREADS", std::to_string(cpus).c_str(), 1);

  Outcome out;
  try {
    run(config, out);
  } catch (const std::exception& error) {
    // A library check that throws (verify_incremental's reference solve,
    // validate_assignment) is a failed output check like any other.
    out.failures.push_back(workload + " threw: " + error.what());
    if (out.attempted == 0) out.attempted = 1;
  }

  std::printf("env compiler=\"%s\" build_type=%s nproc=%d pool_threads=%zu\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, cpus,
              p2pvod::util::ThreadPool::global().size());
  for (const std::string& note : out.notes)
    std::printf("note %s\n", note.c_str());
  for (const std::string& failure : out.failures)
    std::printf("check FAILED: %s\n", failure.c_str());
  for (const perfbench::Metric& metric : out.metrics)
    std::printf("metric %s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  print_json(out);
  return 0;
}
