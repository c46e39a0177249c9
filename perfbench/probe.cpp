#include "probe.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <ctime>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "core/algorithm.hpp"
#include "core/algorithm_registry.hpp"
#include "core/system.hpp"
#include "optim/projection.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

using edr::Matrix;
using edr::core::DistributedAlgorithm;
using edr::core::EpochContext;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double feasibility_ratio(const edr::optim::Problem& problem,
                         const Matrix& allocation) {
  if (allocation.rows() != problem.num_clients() ||
      allocation.cols() != problem.num_replicas())
    return INFINITY;
  const auto report = edr::optim::check_feasibility(problem, allocation);
  if (report.has_non_finite) return INFINITY;
  double largest_demand = 1.0;
  for (const double demand : problem.demands())
    largest_demand = std::max(largest_demand, demand);
  const double worst =
      std::max({report.max_capacity_violation, report.max_demand_violation,
                report.max_negative, report.max_mask_violation});
  return worst / (kFeasibilityTolerance * largest_demand);
}

namespace {

class ProbedAlgorithm final : public DistributedAlgorithm {
 public:
  ProbedAlgorithm(std::unique_ptr<DistributedAlgorithm> inner, ProbeMode mode,
                  std::shared_ptr<ProbeStats> stats)
      : inner_(std::move(inner)), mode_(mode), stats_(std::move(stats)) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] const char* display_name() const override {
    return inner_->display_name();
  }
  [[nodiscard]] std::span<const edr::core::MessageTypeInfo> message_types()
      const override {
    return inner_->message_types();
  }
  [[nodiscard]] int announce_type() const override {
    return inner_->announce_type();
  }
  void announce_targets(std::uint32_t client, std::size_t num_solvers,
                        std::vector<std::size_t>& out) const override {
    inner_->announce_targets(client, num_solvers, out);
  }
  [[nodiscard]] int assignment_type() const override {
    return inner_->assignment_type();
  }
  void plan_assignments(
      const EpochContext& ctx,
      std::vector<edr::core::PlannedMessage>& out) const override {
    timed([&] { inner_->plan_assignments(ctx, out); });
  }
  [[nodiscard]] bool iterative() const override { return inner_->iterative(); }
  [[nodiscard]] double compute_factor(const EpochContext& ctx) const override {
    return inner_->compute_factor(ctx);
  }
  [[nodiscard]] double coordination_bytes(double clients,
                                          double replicas) const override {
    return inner_->coordination_bytes(clients, replicas);
  }

  void begin_epoch(const EpochContext& ctx) override {
    stats_->epoch_starts.push_back(clock());
    if (mode_.keep_problems) stats_->problems.push_back(*ctx.problem);
    if (mode_.trace) {
      stats_->epoch_engine_s.push_back(0.0);
      stats_->epoch_check_s.push_back(0.0);
      stats_->epoch_rounds.push_back(0);
    }
    timed([&] { inner_->begin_epoch(ctx); });
  }
  void plan_prologue(const EpochContext& ctx,
                     std::vector<edr::core::PlannedMessage>& out)
      const override {
    timed([&] { inner_->plan_prologue(ctx, out); });
  }
  void plan_round(const EpochContext& ctx,
                  std::vector<edr::core::PlannedMessage>& out) const override {
    timed([&] { inner_->plan_round(ctx, out); });
  }
  bool step_round(const EpochContext& ctx) override {
    if (!mode_.trace) return inner_->step_round(ctx);
    bool done = false;
    const double span = timed([&] { done = inner_->step_round(ctx); });
    stats_->step_round_us.push_back(span * 1e6);
    if (!stats_->epoch_rounds.empty()) ++stats_->epoch_rounds.back();
    return done;
  }
  void observe(const EpochContext& ctx,
               std::vector<edr::telemetry::RoundSample>& out) override {
    timed([&] { inner_->observe(ctx, out); });
  }
  Matrix extract_allocation(const EpochContext& ctx) override {
    Matrix allocation;
    const double span =
        timed([&] { allocation = inner_->extract_allocation(ctx); });
    if (mode_.trace) {
      stats_->extract_s += span;
      check(ctx, allocation);
    }
    return allocation;
  }
  std::optional<Matrix> solve_oneshot(const EpochContext& ctx) override {
    std::optional<Matrix> allocation;
    const double span = timed([&] { allocation = inner_->solve_oneshot(ctx); });
    if (mode_.trace) {
      stats_->extract_s += span;
      if (allocation) check(ctx, *allocation);
    }
    return allocation;
  }
  void abort_epoch() override {
    timed([&] { inner_->abort_epoch(); });
  }

 private:
  [[nodiscard]] double clock() const {
    return mode_.thread_cpu_clock ? thread_cpu_s() : now_s();
  }

  /// Runs `call`, charging its span to the engine when tracing; returns
  /// the span in seconds (0 when not tracing).
  template <class Call>
  double timed(Call&& call) const {
    if (!mode_.trace) {
      call();
      return 0.0;
    }
    const double start = clock();
    call();
    const double span = clock() - start;
    stats_->engine_s += span;
    if (!stats_->epoch_engine_s.empty()) stats_->epoch_engine_s.back() += span;
    return span;
  }

  /// Benchmark-owned work on a finished epoch, timed as check time so the
  /// traced run's layer times still add up to its wall time.
  void check(const EpochContext& ctx, const Matrix& allocation) {
    const double start = clock();
    ProbeStats& s = *stats_;
    const auto& problem = *ctx.problem;
    const std::uint32_t rounds =
        s.epoch_rounds.empty() ? 0 : s.epoch_rounds.back();
    if (s.max_rounds > 0 && rounds >= s.max_rounds) ++s.capped_epochs;

    const double ratio = feasibility_ratio(problem, allocation);
    if (!(ratio <= 1.0)) ++s.infeasible_epochs;
    s.max_residual = std::max(s.max_residual, ratio);
    s.objective += problem.total_cost(allocation);

    Matrix copy = allocation;
    const double t0 = clock();
    edr::optim::project_demand_set(problem, copy);
    s.projection_us.push_back((clock() - t0) * 1e6);
    s.last_allocation = allocation;
    ++s.epochs_extracted;

    if (ctx.telemetry != nullptr) {
      std::uint64_t ring = 0;
      for (const auto& counter : ctx.telemetry->metrics().counters()) {
        if (counter.name == "sim.events_executed") s.sim_events = counter.value;
        if (counter.name.starts_with("net.sent.ring") &&
            counter.name.ends_with(".messages"))
          ring += counter.value;
      }
      s.ring_messages = ring;
    }

    const double span = clock() - start;
    s.check_s += span;
    if (!s.epoch_check_s.empty()) s.epoch_check_s.back() += span;
  }

  std::unique_ptr<DistributedAlgorithm> inner_;
  ProbeMode mode_;
  std::shared_ptr<ProbeStats> stats_;
};

/// The registry as it was before the first install: the factories the
/// probe wraps and restores.
const edr::core::AlgorithmRegistry& original_registry() {
  static const edr::core::AlgorithmRegistry originals =
      edr::core::AlgorithmRegistry::instance();
  return originals;
}

std::size_t max_rounds_for(const std::string& key,
                           const edr::core::SystemConfig& cfg) {
  if (key == "lddm") return cfg.lddm.max_rounds;
  if (key == "cdpsm") return cfg.cdpsm.max_rounds;
  if (key == "admm") return cfg.admm.max_rounds;
  return 0;
}

// Replica threads of the live cluster build their backends concurrently.
std::mutex instances_mutex;
std::vector<std::shared_ptr<const ProbeStats>> instances_list;

}  // namespace

ProbeInstall::ProbeInstall(ProbeMode mode) {
  const auto& originals = original_registry();
  {
    const std::scoped_lock lock{instances_mutex};
    instances_list.clear();
  }
  auto& registry = edr::core::AlgorithmRegistry::instance();
  for (const auto& key : originals.keys()) {
    registry.add(
        key, originals.description(key),
        [key, mode, &originals](const edr::core::SystemConfig& cfg)
            -> std::unique_ptr<DistributedAlgorithm> {
          auto inner = originals.make(key, cfg);
          auto stats = std::make_shared<ProbeStats>();
          stats->backend = key;
          stats->max_rounds = inner->iterative() ? max_rounds_for(key, cfg) : 0;
          ProbeMode instance_mode = mode;
          {
            const std::scoped_lock lock{instances_mutex};
            // Replicas solve identical problems; one copy is enough.
            instance_mode.keep_problems =
                mode.keep_problems && instances_list.empty();
            instances_list.push_back(stats);
          }
          return std::make_unique<ProbedAlgorithm>(
              std::move(inner), instance_mode, std::move(stats));
        });
  }
}

ProbeInstall::~ProbeInstall() {
  const auto& originals = original_registry();
  auto& registry = edr::core::AlgorithmRegistry::instance();
  for (const auto& key : originals.keys())
    registry.add(key, originals.description(key),
                 [key, &originals](const edr::core::SystemConfig& cfg) {
                   return originals.make(key, cfg);
                 });
}

std::vector<std::shared_ptr<const ProbeStats>> ProbeInstall::instances()
    const {
  const std::scoped_lock lock{instances_mutex};
  return instances_list;
}

}  // namespace perfbench
