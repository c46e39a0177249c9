// Engine-layer probe: a DistributedAlgorithm decorator registered over the
// existing registry keys.
//
// EdrSystem (through the epoch pipeline) and LiveReplica both build their
// backend with core::make_algorithm, and AlgorithmRegistry::add replaces an
// existing key, so wrapping the registered factories is enough to see every
// engine call a workload makes, without touching src/.  Each backend
// instance owns its own ProbeStats block: live replicas call their backends
// from their own threads, and per-instance blocks need no locking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "optim/problem.hpp"

namespace perfbench {

/// Seconds on the steady clock.
[[nodiscard]] double now_s();
/// CPU seconds of the calling thread (user + system).  The simulator runs
/// on one thread, so this is its host time without the time slices a
/// shared host gives to other processes.
[[nodiscard]] double thread_cpu_s();

/// What a probed backend records.
struct ProbeMode {
  /// Stamp and time with thread_cpu_s() instead of now_s(): for backends
  /// driven by the single-threaded simulator.
  bool thread_cpu_clock = false;
  /// Time every engine call, check each epoch's allocation, time the optim
  /// projection on it, and snapshot the run's simulator counters.  Off =
  /// only stamp each epoch's start (the end-to-end epoch clock).
  bool trace = false;
  /// The first backend instance built keeps a copy of each epoch's
  /// Problem, so allocations produced elsewhere (the live coordinator's
  /// assembled columns) can be checked after the run.  Small problems only.
  bool keep_problems = false;
};

/// Per-instance accumulators of one probed backend.
struct ProbeStats {
  std::string backend;
  std::size_t max_rounds = 0;  ///< 0 for one-shot backends

  /// Clock reading (see ProbeMode) at every begin_epoch: solve starts,
  /// restarts after an abort included.
  std::vector<double> epoch_starts;
  std::vector<edr::optim::Problem> problems;  ///< keep_problems only

  // ---- trace mode only
  double engine_s = 0.0;   ///< Σ of every engine call's span
  double extract_s = 0.0;  ///< Σ of extract_allocation / solve_oneshot spans
  double check_s = 0.0;    ///< benchmark-owned work inside the run
  std::vector<double> epoch_engine_s;  ///< engine time per epoch
  std::vector<double> epoch_check_s;   ///< check time per epoch
  std::vector<std::uint32_t> epoch_rounds;
  std::vector<double> step_round_us;
  std::vector<double> projection_us;
  std::size_t epochs_extracted = 0;
  std::size_t capped_epochs = 0;     ///< stopped at exactly max_rounds
  std::size_t infeasible_epochs = 0;
  double max_residual = 0.0;         ///< worst residual ÷ its tolerance
  double objective = 0.0;            ///< Σ Eq. 1 model cost per epoch
  edr::Matrix last_allocation;       ///< input of the wire bench
  // Simulator counters read from the run's telemetry at each epoch end.
  std::uint64_t sim_events = 0;
  std::uint64_t ring_messages = 0;
};

/// Feasibility gate used for every allocation the benchmark checks: the
/// demand, capacity, sign and latency-mask residuals of
/// optim::check_feasibility must each stay within
/// kFeasibilityTolerance × max(1, largest demand), and every entry must be
/// finite.  Returns the worst residual as a share of that tolerance
/// (≤ 1 passes).
inline constexpr double kFeasibilityTolerance = 1e-6;
[[nodiscard]] double feasibility_ratio(const edr::optim::Problem& problem,
                                       const edr::Matrix& allocation);

/// RAII: while alive, every registered backend is built wrapped in the
/// probe.  The destructor restores the original factories.
class ProbeInstall {
 public:
  explicit ProbeInstall(ProbeMode mode);
  ~ProbeInstall();
  ProbeInstall(const ProbeInstall&) = delete;
  ProbeInstall& operator=(const ProbeInstall&) = delete;

  /// Stats of every backend instance built since the install, in creation
  /// order.  Read only after the run that built them has finished.
  [[nodiscard]] std::vector<std::shared_ptr<const ProbeStats>> instances()
      const;
};

}  // namespace perfbench
