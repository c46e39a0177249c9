// The benchmark's four workloads and the metrics they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the self-test: same code paths, seconds of work.
  bool tiny = false;
};

struct Outcome {
  std::vector<std::string> errors;  ///< failed correctness gates
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Run context printed next to the result: sample counts, seeds.
  std::vector<Metric> context;
  /// Human-readable layer table (traced runs), printed on stderr.
  std::string table;
};

/// Workload names, in BENCHMARK.json order.
[[nodiscard]] std::vector<std::string> workload_names();

/// Run one workload: untraced end-to-end metrics, or (opt.trace) one
/// untraced and one traced repetition and the per-layer metrics.
[[nodiscard]] Outcome run_workload(const Options& opt);

/// Gate self-check: a solver allocation passes the feasibility gate and a
/// deliberately perturbed copy of it does not.  Returns failures.
[[nodiscard]] std::vector<std::string> feasibility_gate_selftest();

}  // namespace perfbench
