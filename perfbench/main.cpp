// edr_perfbench — the EDR benchmark (see perfbench/README.md).
//
//   edr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   edr_perfbench --selftest
//
// Prints a context line and then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}.  Exit status: 0
// when every correctness gate passed, 1 when an output was wrong, 2 on a
// usage error or an exception (no result line then).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/args.hpp"
#include "common/fmt.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;

/// Effective parallelism of the host: k threads each spin the same fixed
/// work, k = 1..nproc; the figure is max over k of k·t₁/t_k.  A host that
/// reports 4 CPUs but time-slices one core gives ≈1.
double effective_parallelism(unsigned nproc) {
  auto spin = [](std::uint64_t iterations) {
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 88172645463325252ULL;
    for (std::uint64_t i = 0; i < iterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
  };
  auto wall = [&](unsigned threads, std::uint64_t iterations) {
    const double start = perfbench::now_s();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
      pool.emplace_back([&] { spin(iterations); });
    for (auto& thread : pool) thread.join();
    return perfbench::now_s() - start;
  };
  // Size the work to ~20 ms on one thread.
  std::uint64_t iterations = 1u << 20;
  while (wall(1, iterations) < 0.02 && iterations < (1ULL << 34))
    iterations *= 2;
  const double t1 = wall(1, iterations);
  double best = 1.0;
  for (unsigned k = 2; k <= nproc; ++k)
    best = std::max(best, k * t1 / wall(k, iterations));
  return best;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    out += edr::strf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", m.name.c_str(), m.value,
                     m.unit.c_str());
  }
  return out + "}";
}

int selftest() {
  auto failures = perfbench::feasibility_gate_selftest();
  for (const auto& failure : failures) std::cerr << failure << "\n";
  if (failures.empty()) std::printf("feasibility gate self-test: ok\n");
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  edr::ArgParser parser("edr_perfbench",
                        "EDR benchmark: end-to-end and per-layer metrics");
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::uint64_t trace = 0;
  bool tiny = false;
  bool run_selftest = false;
  parser.add_option("workload", "paper-8x8 | scale-300k | live-tcp | "
                                "dynamic-worlds", &workload);
  parser.add_option("seed", "workload seed (1 = the paper presets)", &seed);
  parser.add_option("seconds", "how long the untraced run measures",
                    &seconds);
  parser.add_option("trace", "0: end-to-end metrics; 1: per-layer metrics "
                             "from a separate traced run", &trace);
  parser.add_flag("tiny", "tiny sizes (benchmark self-test)", &tiny);
  parser.add_flag("selftest", "check the feasibility gate and exit",
                  &run_selftest);
  if (!parser.parse(argc, argv, std::cerr))
    return parser.help_requested() ? 0 : 2;
  if (run_selftest) return selftest();
  if (trace > 1 || !(seconds > 0.0) || seed == 0) {
    std::cerr << "edr_perfbench: need --trace 0|1, --seconds > 0, --seed > 0\n";
    return 2;
  }

  try {
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const double parallelism = effective_parallelism(nproc);
    const perfbench::Options options{.workload = workload,
                                     .seed = seed,
                                     .seconds = seconds,
                                     .trace = trace == 1,
                                     .tiny = tiny};
    auto outcome = perfbench::run_workload(options);

    std::vector<Metric> host = {
        {"host.nproc", static_cast<double>(nproc), "count"},
        {"host.effective_parallelism", parallelism, "ratio"}};
    if (options.trace)
      outcome.metrics.insert(outcome.metrics.end(), host.begin(), host.end());
    else
      outcome.context.insert(outcome.context.end(), host.begin(), host.end());
    for (const auto& m : outcome.metrics)
      if (!std::isfinite(m.value))
        outcome.errors.push_back("metric " + m.name + " is not finite");

    if (!outcome.table.empty()) std::cerr << outcome.table;
    for (const auto& error : outcome.errors)
      std::cerr << "edr_perfbench: WRONG OUTPUT: " << error << "\n";
    const bool correct = outcome.errors.empty();
    std::printf("{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"metrics\": %s}}\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                json_metrics(outcome.context).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed),
                json_metrics(outcome.metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "edr_perfbench: " << e.what() << "\n";
    return 2;
  }
}
