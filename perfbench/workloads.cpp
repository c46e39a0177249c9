#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include <malloc.h>
#include <sys/resource.h>

#include "analysis/experiments.hpp"
#include "common/fmt.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/system.hpp"
#include "optim/instance.hpp"
#include "optim/solver.hpp"
#include "probe.hpp"
#include "runtime/live_protocol.hpp"
#include "runtime/local_cluster.hpp"
#include "scenario/runner.hpp"
#include "workload/apps.hpp"

namespace perfbench {
namespace {

using edr::Matrix;

// ---------- sizes ----------
//
// paper-8x8 and dynamic-worlds run the paper's 8 clients x 8 replicas;
// scale-300k is the 3x10^5-client host; live-tcp boots one replica per
// core of a 4-core host.  One repetition of each takes one to four
// seconds, so a run of --seconds holds several (see measure_end_to_end
// for how they combine).

constexpr const char* kPaperBackends[] = {"lddm", "cdpsm", "admm"};

struct Sizes {
  double paper_horizon = 60.0;
  std::size_t scale_clients = 300000;
  // 50 s: the shortest horizon with ten response samples beyond p99.
  double scale_horizon = 50.0;
  std::size_t live_replicas = 4;
  std::size_t live_clients = 64;
  std::uint32_t live_epochs = 300;
};

Sizes sizes_for(const Options& opt) {
  if (!opt.tiny) return {};
  return {.paper_horizon = 8.0,
          .scale_clients = 3000,
          .scale_horizon = 6.0,
          .live_replicas = 3,
          .live_clients = 16,
          .live_epochs = 12};
}

// Workload seeds: --seed 1 reproduces the paper presets (config seed 7,
// trace seed 42; the live default seed 7; the scenario documents' own
// config seeds).
std::uint64_t config_seed(const Options& opt) { return opt.seed + 6; }
std::uint64_t trace_seed(const Options& opt) { return opt.seed + 41; }

// live-tcp's epoch tail is set by a few seeds' overloaded epochs (shed
// requests pile up in the retry backlog near the end of some traces), so
// one cluster's p99 swings 3x from seed to seed.  Its untraced run cycles
// through kLiveClusters clusters instead, cluster j built from seed
// --seed + j * kLiveClusterSeedStride, and reports the median cluster's
// percentiles; cluster 0 is --seed's own.
constexpr std::size_t kLiveClusters = 5;
constexpr std::uint64_t kLiveClusterSeedStride = 1000;

// ---------- one repetition ----------

struct Probing {
  bool on = false;
  ProbeMode mode;
};

struct Rep {
  double trace_gen_s = 0.0;  ///< inputs from the seed
  double build_s = 0.0;      ///< system construction up to the first epoch
  double run_s = 0.0;        ///< epochs_per_s denominator (no setup)
  double wall_s = 0.0;       ///< the whole repetition
  /// dynamic-worlds: scenario::run builds its own system, so build_s lies
  /// inside run_s instead of before it.
  bool build_inside_run = false;
  double scenario_load_s = 0.0;  ///< dynamic-worlds: part of trace_gen_s
  std::size_t epochs = 0;
  std::vector<double> epoch_wall_ms;
  std::vector<double> response_ms;
  /// live-tcp: requests batched by each epoch of epoch_wall_ms; a
  /// request's decision latency is its epoch's wall time.
  std::vector<std::size_t> response_weight;
  double energy_cost = 0.0;
  /// Deterministic outputs, compared bit for bit across repetitions and
  /// between the traced and untraced runs.
  std::vector<double> exact;
  /// Operations and failures as the workload defines them.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Simulator requests, and those dropped or losing megabytes.
  std::uint64_t requests = 0;
  std::uint64_t requests_failed = 0;

  std::uint64_t rounds = 0;
  double control_messages = 0.0;  ///< sim: RunReport coordination traffic
  double control_bytes = 0.0;
  double frames = 0.0;  ///< live: frames the replicas put on the wire
  double frame_bytes = 0.0;
  std::vector<Matrix> wire_allocations;  ///< inputs of the wire bench
  std::vector<std::shared_ptr<const ProbeStats>> stats;
  /// live-tcp: engine and check time on the critical path (Σ over epochs
  /// of the slowest replica), and Σ epoch wall.
  double critical_engine_s = 0.0;
  double critical_check_s = 0.0;
  double epoch_wall_total_s = 0.0;
};

void push_exact(Rep& rep, std::initializer_list<double> values) {
  rep.exact.insert(rep.exact.end(), values);
}

double total_mb(const edr::workload::Trace& trace) {
  double mb = 0.0;
  for (const auto& request : trace.requests()) mb += request.size_mb;
  return mb;
}

/// Checks and accounting shared by every simulator run.
void account_sim_run(const std::string& label,
                     const edr::core::RunReport& report,
                     const edr::workload::Trace& trace, Rep& rep) {
  const std::size_t requests = trace.requests().size();
  if (report.requests_served + report.requests_dropped != requests)
    rep.errors.push_back(edr::strf(
        "%s: served %zu + dropped %zu != %zu requests", label.c_str(),
        report.requests_served, report.requests_dropped, requests));
  // Megabyte ledger: what was served (retried remainders included) plus
  // what admission control abandoned equals what was demanded.  Requests
  // dropped for want of a live feasible replica leave the ledger, so with
  // drops the identity relaxes to an inequality.
  const double demanded = total_mb(trace);
  const double accounted = report.megabytes_served + report.megabytes_abandoned;
  const double tolerance = 1e-9 * std::max(1.0, demanded);
  const bool balanced = report.requests_dropped == 0
                            ? std::abs(accounted - demanded) <= tolerance
                            : accounted <= demanded + tolerance;
  if (!balanced)
    rep.errors.push_back(edr::strf(
        "%s: MB served %.17g + abandoned %.17g vs demanded %.17g",
        label.c_str(), report.megabytes_served, report.megabytes_abandoned,
        demanded));

  // A request fails when it is dropped or loses megabytes to admission
  // control.  The report keeps abandoned megabytes, not the requests they
  // came from, so abandonment counts in request-sized units (rounded up).
  const double mean_mb =
      requests > 0 ? demanded / static_cast<double>(requests) : 1.0;
  const auto abandoned = static_cast<std::uint64_t>(
      std::ceil(report.megabytes_abandoned / mean_mb - 1e-9));
  rep.requests += requests;
  rep.requests_failed += report.requests_dropped + abandoned;

  rep.epochs += report.epochs;
  rep.rounds += report.total_rounds;
  rep.control_messages += static_cast<double>(report.control_messages);
  rep.control_bytes += static_cast<double>(report.control_bytes);
  rep.energy_cost += report.total_cost;
  rep.response_ms.insert(rep.response_ms.end(),
                         report.response_times_ms.begin(),
                         report.response_times_ms.end());
  push_exact(rep, {report.total_cost, report.total_energy,
                   static_cast<double>(report.total_rounds),
                   static_cast<double>(report.epochs),
                   static_cast<double>(report.control_messages),
                   static_cast<double>(report.control_bytes),
                   static_cast<double>(report.requests_served),
                   static_cast<double>(report.requests_dropped),
                   report.megabytes_served, report.megabytes_abandoned});
  rep.exact.insert(rep.exact.end(), report.response_times_ms.begin(),
                   report.response_times_ms.end());
}

/// Host time between consecutive solve starts of one backend instance.
void add_epoch_walls(const ProbeStats& stats, Rep& rep) {
  for (std::size_t i = 1; i < stats.epoch_starts.size(); ++i)
    rep.epoch_wall_ms.push_back(
        (stats.epoch_starts[i] - stats.epoch_starts[i - 1]) * 1e3);
}

std::unique_ptr<ProbeInstall> install(const Probing& probing) {
  return probing.on ? std::make_unique<ProbeInstall>(probing.mode) : nullptr;
}

/// Telemetry for a traced simulator run: counters only (the span tracer
/// stays off; its ring would cost more than the layers it times).
std::shared_ptr<edr::telemetry::Telemetry> counter_telemetry() {
  auto telemetry = std::make_shared<edr::telemetry::Telemetry>();
  telemetry->tracer().set_enabled(false);
  return telemetry;
}

// ---------- paper-8x8 and scale-300k ----------

struct SimSpec {
  std::vector<std::string> backends;
  std::size_t clients = 8;
  double horizon = 60.0;
  edr::core::SolverRepresentation representation =
      edr::core::SolverRepresentation::kDense;
};

Rep sim_rep(const Options& opt, const SimSpec& spec, const Probing& probing) {
  Rep rep;
  auto probe = install(probing);
  const double t0 = thread_cpu_s();
  edr::Rng rng{trace_seed(opt)};
  edr::workload::TraceOptions trace_options;
  trace_options.num_clients = spec.clients;
  trace_options.horizon = spec.horizon;
  const auto trace = edr::workload::Trace::generate(
      rng, edr::workload::distributed_file_service(), trace_options);
  const double t1 = thread_cpu_s();

  std::vector<std::unique_ptr<edr::core::EdrSystem>> systems;
  for (const auto& backend : spec.backends) {
    auto cfg = edr::analysis::paper_config(backend, config_seed(opt));
    cfg.num_clients = spec.clients;
    cfg.representation = spec.representation;
    cfg.record_traces = false;
    if (probing.mode.trace) cfg.telemetry = counter_telemetry();
    systems.push_back(std::make_unique<edr::core::EdrSystem>(cfg, trace));
  }
  const double t2 = thread_cpu_s();
  rep.trace_gen_s = t1 - t0;
  rep.build_s = t2 - t1;

  for (std::size_t i = 0; i < systems.size(); ++i) {
    // The run's cost includes tearing the system down, which at scale is
    // freeing the per-client host state; one system at a time is alive
    // after its run, so peak RSS is a single system's.
    const double start = thread_cpu_s();
    const auto report = systems[i]->run();
    systems[i].reset();
    rep.run_s += thread_cpu_s() - start;
    account_sim_run(spec.backends[i], report, trace, rep);
  }
  rep.wall_s = thread_cpu_s() - t0;
  rep.attempted = rep.requests;
  rep.failed = rep.requests_failed;
  if (probe) {
    rep.stats = probe->instances();
    for (const auto& stats : rep.stats) add_epoch_walls(*stats, rep);
  }
  return rep;
}

// ---------- live-tcp ----------

Rep live_rep(const Options& opt, const Probing& probing) {
  const Sizes sizes = sizes_for(opt);
  Rep rep;
  auto probe = install(probing);
  const double t0 = now_s();
  const auto cfg = edr::runtime::make_default_live_config(
      sizes.live_replicas, sizes.live_clients, sizes.live_epochs,
      config_seed(opt));
  const double t1 = now_s();

  struct FrameCount {
    std::atomic<std::uint64_t> frames{0};
    std::atomic<std::uint64_t> bytes{0};
  };
  auto frame_count = std::make_shared<FrameCount>();
  edr::runtime::LiveConfig config = cfg;
  edr::runtime::LocalClusterOptions options;
  options.transport = edr::runtime::LiveTransport::kTcp;
  edr::runtime::LocalCluster* cluster_ptr = nullptr;
  double first_epoch = 0.0;
  options.coordinator.on_epoch_start = [&](std::uint32_t epoch) {
    if (epoch != 0) return;
    first_epoch = now_s();
    if (!probing.mode.trace) return;
    // Every frame a replica sends passes its transport's send hook; a hook
    // that injects no fault is a per-frame counter.  16 bytes of wire
    // header ride on each frame (net/wire.hpp).
    for (std::size_t r = 0; r < sizes.live_replicas; ++r)
      cluster_ptr->set_fault_hook(
          static_cast<edr::net::NodeId>(r),
          [frame_count](const edr::net::Message& msg) {
            const auto* payload =
                std::any_cast<std::vector<std::uint8_t>>(&msg.payload);
            frame_count->frames.fetch_add(1, std::memory_order_relaxed);
            frame_count->bytes.fetch_add(
                16 + (payload != nullptr ? payload->size() : 0),
                std::memory_order_relaxed);
            return edr::net::FaultAction{};
          });
  };
  edr::runtime::LiveRunResult result;
  {
    edr::runtime::LocalCluster cluster(std::move(config), options);
    cluster_ptr = &cluster;
    result = cluster.run();
  }
  // Boot ends at the first epoch's kStart; the run ends once every node
  // has shut down and been joined.
  rep.trace_gen_s = t1 - t0;
  rep.build_s = first_epoch - t1;
  rep.run_s = now_s() - first_epoch;
  rep.frames = static_cast<double>(frame_count->frames.load());
  rep.frame_bytes = static_cast<double>(frame_count->bytes.load());

  const std::size_t expected = sizes.live_epochs;
  rep.epochs = result.epochs.size();
  rep.rounds = result.total_rounds;
  rep.attempted = expected;
  std::size_t bad_epochs = expected > rep.epochs ? expected - rep.epochs : 0;
  if (!result.completed) rep.errors.push_back("live: run did not complete");
  if (rep.epochs != expected)
    rep.errors.push_back(edr::strf("live: %zu of %zu epochs", rep.epochs,
                                   expected));
  if (result.generations != 1) {
    rep.errors.push_back(edr::strf("live: %llu generations (regenerated)",
                                   static_cast<unsigned long long>(
                                       result.generations)));
    bad_epochs += result.generations - 1;
  }

  // Decision latency of a request = wall time of the epoch that batches
  // it (replicas bucket by floor(arrival / epoch_length)).
  std::vector<std::size_t> requests_per_epoch(expected, 0);
  for (const auto& request : cfg.requests) {
    const auto epoch =
        static_cast<std::size_t>(request.arrival / cfg.epoch_length);
    if (epoch < expected) ++requests_per_epoch[epoch];
  }

  if (probe) rep.stats = probe->instances();
  const ProbeStats* kept =
      probing.mode.keep_problems && !rep.stats.empty() ? rep.stats[0].get()
                                                       : nullptr;
  for (std::size_t k = 0; k < result.epochs.size(); ++k) {
    const auto& epoch = result.epochs[k];
    if (!epoch.digests_agree) {
      rep.errors.push_back(edr::strf("live: epoch %u digests disagree",
                                     epoch.epoch));
      ++bad_epochs;
    }
    if (kept != nullptr) {
      if (kept->problems.size() != result.epochs.size()) {
        if (k == 0)
          rep.errors.push_back(edr::strf(
              "live: %zu problems recorded for %zu epochs",
              kept->problems.size(), result.epochs.size()));
      } else {
        const double ratio =
            feasibility_ratio(kept->problems[k], epoch.allocation);
        if (!(ratio <= 1.0))
          rep.errors.push_back(edr::strf(
              "live: epoch %u allocation infeasible (residual %.3g x tol)",
              epoch.epoch, ratio));
      }
    }
    rep.epoch_wall_ms.push_back(epoch.wall_ms);
    rep.epoch_wall_total_s += epoch.wall_ms * 1e-3;
    rep.response_weight.push_back(
        epoch.epoch < expected ? requests_per_epoch[epoch.epoch] : 0);
    rep.energy_cost += epoch.objective;
    push_exact(rep, {static_cast<double>(epoch.digest), epoch.objective,
                     static_cast<double>(epoch.rounds)});
    rep.wire_allocations.push_back(epoch.allocation);
  }
  rep.failed = std::min<std::uint64_t>(bad_epochs, expected);

  // Critical path: the coordinator waits for the slowest replica.
  if (probing.mode.trace && !rep.stats.empty()) {
    std::size_t epochs = rep.stats[0]->epoch_engine_s.size();
    for (const auto& stats : rep.stats)
      epochs = std::min(epochs, stats->epoch_engine_s.size());
    for (std::size_t k = 0; k < epochs; ++k) {
      double engine = 0.0;
      double check = 0.0;
      for (const auto& stats : rep.stats) {
        engine = std::max(engine, stats->epoch_engine_s[k]);
        check = std::max(check, stats->epoch_check_s[k]);
      }
      rep.critical_engine_s += engine;
      rep.critical_check_s += check;
    }
  }
  rep.wall_s = now_s() - t0;
  return rep;
}

// ---------- dynamic-worlds ----------

Rep worlds_rep(const Options& opt, const Probing& probing) {
  Rep rep;
  rep.build_inside_run = true;
  auto probe = install(probing);
  const double t0 = thread_cpu_s();
  std::vector<edr::scenario::Scenario> scenarios;
  for (const auto& name : edr::scenario::builtin_names()) {
    scenarios.push_back(edr::scenario::load(name));
    // The seed moves each world's cluster (latencies); the demand trace
    // stays the document's own, which its verdict thresholds are set for.
    scenarios.back().config_seed += opt.seed - 1;
  }
  const double t1 = thread_cpu_s();
  std::vector<edr::workload::Trace> traces;
  for (const auto& scenario : scenarios)
    traces.push_back(scenario.build_trace());
  const double t2 = thread_cpu_s();
  rep.scenario_load_s = t1 - t0;
  rep.trace_gen_s = t2 - t0;

  std::size_t seen = 0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& scenario = scenarios[i];
    const double entry = thread_cpu_s();
    const auto result = edr::scenario::run(scenario);
    rep.run_s += thread_cpu_s() - entry;
    if (probe) {
      const auto instances = probe->instances();
      if (instances.size() > seen && !instances[seen]->epoch_starts.empty())
        rep.build_s += instances[seen]->epoch_starts.front() - entry;
      seen = instances.size();
    }
    account_sim_run(scenario.name, result.report, traces[i], rep);
    if (!result.passed())
      rep.errors.push_back("scenario " + scenario.name + " failed:\n" +
                           result.verdict_text());
    // The operations of this workload are the scored events; shed
    // requests are part of what the worlds provoke (flash-crowd sheds by
    // design) and are reported as requests_failed_share.
    for (const auto& verdict : result.events) {
      ++rep.attempted;
      if (!verdict.ok()) ++rep.failed;
    }
    push_exact(rep, {result.passed() ? 1.0 : 0.0,
                     static_cast<double>(result.alerts_total)});
  }
  rep.wall_s = thread_cpu_s() - t0;
  if (probe) {
    rep.stats = probe->instances();
    for (const auto& stats : rep.stats) add_epoch_walls(*stats, rep);
  }
  return rep;
}

// ---------- dispatch ----------

struct Workload {
  std::string name;
  std::function<Rep(const Options&, const Probing&)> rep;
  bool live = false;
};

std::vector<Workload> workloads() {
  return {
      {"paper-8x8",
       [](const Options& opt, const Probing& probing) {
         SimSpec spec;
         spec.backends.assign(std::begin(kPaperBackends),
                              std::end(kPaperBackends));
         spec.horizon = sizes_for(opt).paper_horizon;
         return sim_rep(opt, spec, probing);
       }},
      {"scale-300k",
       [](const Options& opt, const Probing& probing) {
         const Sizes sizes = sizes_for(opt);
         SimSpec spec;
         spec.backends = {"lddm"};
         spec.clients = sizes.scale_clients;
         spec.horizon = sizes.scale_horizon;
         spec.representation = edr::core::SolverRepresentation::kAggregated;
         return sim_rep(opt, spec, probing);
       }},
      {"live-tcp", live_rep, true},
      {"dynamic-worlds", worlds_rep},
  };
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  return values.empty() ? 0.0 : edr::percentile(std::move(values), 50.0);
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ---------- net.wire: kEpochDone encode/decode of the run's columns ----------

struct WireRates {
  double encode_mbps = 0.0;
  double decode_mbps = 0.0;
  double seconds = 0.0;
};

WireRates wire_bench(const std::vector<Matrix>& allocations,
                     std::vector<std::string>& errors) {
  using edr::runtime::LiveEpochDone;
  std::vector<LiveEpochDone> frames;
  for (const auto& allocation : allocations) {
    for (std::size_t col = 0; col < allocation.cols(); ++col) {
      LiveEpochDone dense;
      dense.kind = LiveEpochDone::kDenseColumn;
      LiveEpochDone sparse;
      sparse.kind = LiveEpochDone::kSparseColumn;
      sparse.num_rows = static_cast<std::uint32_t>(allocation.rows());
      for (std::size_t row = 0; row < allocation.rows(); ++row) {
        const double value = allocation(row, col);
        dense.column.push_back(value);
        if (value != 0.0) {
          sparse.indices.push_back(static_cast<std::uint32_t>(row));
          sparse.column.push_back(value);
        }
      }
      frames.push_back(std::move(dense));
      frames.push_back(std::move(sparse));
    }
  }
  WireRates rates;
  if (frames.empty()) return rates;
  const double start = thread_cpu_s();
  double encode_s = 0.0;
  double decode_s = 0.0;
  double bytes = 0.0;
  constexpr std::size_t kMaxFrame = 1u << 30;
  // Repeat the whole set until each direction has ~0.1 s of work.
  while (encode_s < 0.1 || decode_s < 0.1) {
    for (const auto& frame : frames) {
      const double t0 = thread_cpu_s();
      const auto msg = edr::runtime::encode_epoch_done(0, 1, frame);
      const double t1 = thread_cpu_s();
      const auto decoded = edr::runtime::decode_epoch_done(msg, kMaxFrame);
      const double t2 = thread_cpu_s();
      encode_s += t1 - t0;
      decode_s += t2 - t1;
      const auto* payload =
          std::any_cast<std::vector<std::uint8_t>>(&msg.payload);
      bytes += static_cast<double>(payload != nullptr ? payload->size() : 0);
      if (!bit_equal(decoded.column, frame.column) ||
          decoded.indices != frame.indices) {
        errors.push_back("net.wire: kEpochDone round trip changed a column");
        return rates;
      }
    }
  }
  rates.encode_mbps = bytes / encode_s / 1e6;
  rates.decode_mbps = bytes / decode_s / 1e6;
  rates.seconds = thread_cpu_s() - start;
  return rates;
}

/// The simulator workloads are single-threaded and repeat identical work,
/// so after the first repetition the process keeps its freed memory
/// mapped: later repetitions reuse it instead of page-faulting fresh
/// memory, whose cost on a shared virtual machine swings with the host's
/// memory pressure.  (32 MiB is glibc's largest mmap threshold; the
/// simulator's largest block, the 3x10^5 x 8 latency matrix, is 19 MB.)
/// live-tcp instead returns freed memory between cluster runs, because its
/// per-thread allocator arenas would otherwise ratchet peak RSS upward.
void keep_freed_memory() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

// ---------- untraced: end-to-end metrics ----------

Outcome measure_end_to_end(const Options& opt, const Workload& workload) {
  Outcome out;
  // The sim workloads stamp epoch starts through the probe (the epoch
  // clock); live-tcp reads epoch walls from the coordinator and keeps
  // each epoch's Problem to check the assembled allocations.
  const Probing probing{.on = true,
                        .mode = {.thread_cpu_clock = !workload.live,
                                 .trace = false,
                                 .keep_problems = workload.live}};
  if (!workload.live) keep_freed_memory();
  const std::size_t clusters = workload.live ? kLiveClusters : 1;
  std::vector<Rep> reps;
  const double deadline = now_s() + opt.seconds;
  do {
    Options input = opt;
    input.seed += kLiveClusterSeedStride * (reps.size() % clusters);
    reps.push_back(workload.rep(input, probing));
    Rep& rep = reps.back();
    // Only the metrics' inputs outlive the repetition: peak RSS is one
    // repetition's, not the sum of every repetition's leftovers.
    rep.stats.clear();
    rep.wire_allocations.clear();
    if (workload.live) malloc_trim(0);
    out.errors.insert(out.errors.end(), rep.errors.begin(), rep.errors.end());
    const std::size_t same_input = (reps.size() - 1) % clusters;
    if (!bit_equal(rep.exact, reps[same_input].exact))
      out.errors.push_back(edr::strf(
          "repetition %zu: exact outputs differ from repetition %zu",
          reps.size() - 1, same_input));
  } while (now_s() < deadline && out.errors.empty());

  std::vector<double> setup;
  std::vector<double> rates;
  std::uint64_t requests = 0;
  std::uint64_t requests_failed = 0;
  for (const auto& rep : reps) {
    requests += rep.requests;
    requests_failed += rep.requests_failed;
    setup.push_back(rep.trace_gen_s +
                    (rep.build_inside_run ? 0.0 : rep.build_s));
    rates.push_back(static_cast<double>(rep.epochs) / rep.run_s);
    out.attempted += rep.attempted;
    out.failed += rep.failed;
  }
  const double rss_mb = peak_rss_mb();

  // Every repetition of one input does the same work epoch by epoch (the
  // exact outputs are checked equal), so each epoch has one host time per
  // repetition.  What varies between repetitions is interference from the
  // host (other tenants, and on live-tcp the wake-ups of its threads on a
  // shared core), which only ever adds time, so an epoch's time is its
  // fastest repetition.  Throughput is the fastest repetition's on the
  // single-threaded simulator and the median repetition's on live-tcp.
  // Percentiles are taken per input, then the median over live-tcp's
  // clusters.
  const std::size_t inputs = std::min(clusters, reps.size());
  std::vector<double> response_p50, response_p99, wall_p50, wall_p99;
  std::size_t response_samples = 0;
  std::size_t wall_samples = 0;
  for (std::size_t c = 0; c < inputs; ++c) {
    const Rep& first = reps[c];
    std::size_t epochs = first.epoch_wall_ms.size();
    for (std::size_t i = c; i < reps.size(); i += clusters)
      epochs = std::min(epochs, reps[i].epoch_wall_ms.size());
    std::vector<double> walls(epochs, 0.0);
    for (std::size_t k = 0; k < epochs; ++k) {
      walls[k] = first.epoch_wall_ms[k];
      for (std::size_t i = c; i < reps.size(); i += clusters)
        walls[k] = std::min(walls[k], reps[i].epoch_wall_ms[k]);
      wall_samples += (reps.size() - c + clusters - 1) / clusters;
    }
    // Simulated response times repeat exactly; on live-tcp a request's
    // decision latency is its epoch's time.
    std::vector<double> responses;
    if (workload.live) {
      for (std::size_t k = 0; k < walls.size(); ++k)
        responses.insert(responses.end(), first.response_weight[k], walls[k]);
    } else {
      responses = first.response_ms;
    }
    response_samples += responses.size();
    response_p50.push_back(edr::percentile(responses, 50.0));
    response_p99.push_back(edr::percentile(responses, 99.0));
    wall_p50.push_back(edr::percentile(walls, 50.0));
    wall_p99.push_back(edr::percentile(walls, 99.0));
  }
  const double epochs_per_s =
      workload.live ? median(rates)
                    : *std::max_element(rates.begin(), rates.end());

  out.metrics = {
      {"setup_s", median(setup), "s"},
      {"epochs_per_s", epochs_per_s, "1/s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"energy_cost_cents", reps.front().energy_cost, "cents"},
      {"response_p50_ms", median(response_p50), "ms"},
      {"response_p99_ms", median(response_p99), "ms"},
      {"epoch_wall_p50_ms", median(wall_p50), "ms"},
      {"epoch_wall_p99_ms", median(wall_p99), "ms"},
  };
  out.context = {
      {"repetitions", static_cast<double>(reps.size()), "count"},
      {"inputs", static_cast<double>(inputs), "count"},
      {"response_samples", static_cast<double>(response_samples), "count"},
      {"epoch_wall_samples", static_cast<double>(wall_samples), "count"},
      {"failed_share",
       out.attempted > 0 ? static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted)
                         : 0.0,
       "ratio"},
      {"requests_failed_share",
       requests > 0 ? static_cast<double>(requests_failed) /
                          static_cast<double>(requests)
                    : 0.0,
       "ratio"},
  };
  return out;
}

// ---------- traced: per-layer metrics ----------

Outcome measure_layers(const Options& opt, const Workload& workload) {
  Outcome out;
  if (!workload.live) keep_freed_memory();
  const Rep plain = workload.rep(opt, Probing{});
  const Probing probing{.on = true,
                        .mode = {.thread_cpu_clock = !workload.live,
                                 .trace = true,
                                 .keep_problems = workload.live}};
  const Rep traced = workload.rep(opt, probing);
  // A second untraced repetition after the traced one, so the overhead
  // ratio does not charge first-run warm-up to either side.
  const Rep plain_after = workload.rep(opt, Probing{});
  for (const Rep* rep : {&plain, &traced, &plain_after})
    out.errors.insert(out.errors.end(), rep->errors.begin(),
                      rep->errors.end());
  if (!bit_equal(plain.exact, traced.exact) ||
      !bit_equal(plain.exact, plain_after.exact))
    out.errors.push_back(
        "tracing perturbed the run: exact outputs of the traced run differ "
        "from the untraced runs");
  const double plain_run_s = 0.5 * (plain.run_s + plain_after.run_s);
  out.attempted = traced.attempted;
  out.failed = traced.failed;

  double engine_s = 0.0;
  double check_s = 0.0;
  double extract_s = 0.0;
  std::size_t epochs_extracted = 0;
  std::size_t capped = 0;
  double objective = 0.0;
  double sim_events = 0.0;
  double ring_messages = 0.0;
  std::vector<double> step_us;
  std::vector<double> projection_us;
  std::vector<Matrix> wire_inputs = traced.wire_allocations;
  std::map<std::string, std::vector<double>> step_us_by_backend;
  for (const auto& stats : traced.stats) {
    engine_s += stats->engine_s;
    check_s += stats->check_s;
    extract_s += stats->extract_s;
    epochs_extracted += stats->epochs_extracted;
    capped += stats->capped_epochs;
    objective += stats->objective;
    // Simulator counters as the probe read them from each run's telemetry
    // at its last epoch end.
    sim_events += static_cast<double>(stats->sim_events);
    ring_messages += static_cast<double>(stats->ring_messages);
    step_us.insert(step_us.end(), stats->step_round_us.begin(),
                   stats->step_round_us.end());
    projection_us.insert(projection_us.end(), stats->projection_us.begin(),
                         stats->projection_us.end());
    auto& by_backend = step_us_by_backend[stats->backend];
    by_backend.insert(by_backend.end(), stats->step_round_us.begin(),
                      stats->step_round_us.end());
    if (stats->infeasible_epochs > 0)
      out.errors.push_back(edr::strf(
          "%s: %zu epoch allocation(s) failed the feasibility gate "
          "(worst residual %.3g x tolerance)",
          stats->backend.c_str(), stats->infeasible_epochs,
          stats->max_residual));
    if (!workload.live && stats->last_allocation.rows() > 0)
      wire_inputs.push_back(stats->last_allocation);
  }
  if (workload.live) {
    // Replicas run in parallel: the epoch waits for the slowest one.
    objective /= static_cast<double>(std::max<std::size_t>(
        1, traced.stats.size()));
    engine_s = traced.critical_engine_s;
    check_s = traced.critical_check_s;
  }
  std::vector<std::string> wire_errors;
  const WireRates wire = wire_bench(wire_inputs, wire_errors);
  out.errors.insert(out.errors.end(), wire_errors.begin(), wire_errors.end());

  // Self times along the run's critical path; by construction they add up
  // to the traced repetition's wall time.
  const double inputs_s = traced.trace_gen_s;
  const double build_s = traced.build_s;
  const double pipeline_s = traced.run_s - engine_s - check_s -
                            (traced.build_inside_run ? build_s : 0.0);
  // Benchmark-owned time: the checks inside the run plus the bookkeeping
  // around it (conservation checks, counter reads).
  const double bench_s = traced.wall_s - inputs_s - traced.run_s -
                         (traced.build_inside_run ? 0.0 : build_s) + check_s;
  const double epochs =
      static_cast<double>(std::max<std::size_t>(1, traced.epochs));
  const double host_events = workload.live ? traced.frames : sim_events;
  const double solve_base =
      workload.live ? traced.epoch_wall_total_s : traced.run_s;

  out.metrics = {
      {"workload.trace_gen_s", inputs_s, "s"},
      {"core.system.build_s", build_s, "s"},
      {"core.engine.self_s", engine_s, "s"},
      {"core.engine.step_round_p50_us", edr::percentile(step_us, 50.0), "us"},
      {"core.engine.rounds_per_epoch",
       static_cast<double>(traced.rounds) / epochs, "rounds"},
      {"core.engine.capped_epoch_share",
       epochs_extracted > 0 ? static_cast<double>(capped) /
                                  static_cast<double>(epochs_extracted)
                            : 0.0,
       "ratio"},
      {"core.engine.extract_allocation_s",
       workload.live ? extract_s / static_cast<double>(std::max<std::size_t>(
                                       1, traced.stats.size()))
                     : extract_s,
       "s"},
      {"core.engine.solve_objective", objective, "model_cost"},
      {"optim.projection_p50_us", edr::percentile(projection_us, 50.0), "us"},
      {"core.pipeline.self_s", pipeline_s, "s"},
      {"core.pipeline.ns_per_sim_event",
       host_events > 0.0 ? pipeline_s / host_events * 1e9 : 0.0, "ns"},
      {"net.control_messages_per_epoch", traced.control_messages / epochs,
       "messages"},
      {"net.control_bytes_per_epoch", traced.control_bytes / epochs, "B"},
      {"runtime.frames_per_epoch", traced.frames / epochs, "frames"},
      {"runtime.bytes_per_epoch", traced.frame_bytes / epochs, "B"},
      {"runtime.solve_share", solve_base > 0.0 ? engine_s / solve_base : 0.0,
       "ratio"},
      {"net.wire.epoch_done_encode_MBps", wire.encode_mbps, "MB/s"},
      {"net.wire.epoch_done_decode_MBps", wire.decode_mbps, "MB/s"},
      {"cluster.ring_messages_per_epoch",
       ring_messages / epochs, "messages"},
      {"telemetry.trace_overhead",
       plain_run_s > 0.0 ? traced.run_s / plain_run_s : 0.0, "ratio"},
      {"failed_share",
       traced.attempted > 0 ? static_cast<double>(traced.failed) /
                                  static_cast<double>(traced.attempted)
                            : 0.0,
       "ratio"},
      {"bench.check_s", bench_s, "s"},
      {"bench.traced_wall_s", traced.wall_s, "s"},
  };

  // The layer table: self time per layer, its share of the traced wall,
  // and the dominant layer.
  struct Row {
    const char* layer;
    double seconds;
  };
  const Row rows[] = {
      {"workload (inputs from seed)", inputs_s},
      {workload.live ? "runtime boot (core.system)" : "core.system", build_s},
      {"core.engine", engine_s},
      {workload.live ? "runtime + net.tcp_transport" : "core.pipeline + net",
       pipeline_s},
      {"benchmark checks and bookkeeping", bench_s},
  };
  const Row* dominant = &rows[0];
  std::ostringstream table;
  double sum = 0.0;
  table << edr::strf("%-40s %12s %8s\n", "layer (self time)", "seconds",
                     "share");
  for (const auto& row : rows) {
    sum += row.seconds;
    if (row.seconds > dominant->seconds) dominant = &row;
    table << edr::strf("%-40s %12.6f %7.1f%%\n", row.layer, row.seconds,
                       100.0 * row.seconds / traced.wall_s);
  }
  table << edr::strf("%-40s %12.6f (traced wall %.6f s)\n", "sum", sum,
                     traced.wall_s);
  table << edr::strf("dominant layer: %s\n", dominant->layer);
  for (const auto& [backend, samples] : step_us_by_backend)
    table << edr::strf("step_round p50 %-6s %10.3f us over %zu rounds\n",
                       backend.c_str(), edr::percentile(samples, 50.0),
                       samples.size());
  if (traced.scenario_load_s > 0.0)
    table << edr::strf("scenario.load_s %.6f s (five builtin documents)\n",
                       traced.scenario_load_s);
  table << edr::strf("net.wire bench %.3f s over %zu allocations\n",
                     wire.seconds, wire_inputs.size());
  out.table = table.str();
  return out;
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& workload : workloads()) names.push_back(workload.name);
  return names;
}

Outcome run_workload(const Options& opt) {
  for (const auto& workload : workloads()) {
    if (workload.name != opt.workload) continue;
    return opt.trace ? measure_layers(opt, workload)
                     : measure_end_to_end(opt, workload);
  }
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

std::vector<std::string> feasibility_gate_selftest() {
  std::vector<std::string> failures;
  edr::Rng rng{11};
  edr::optim::InstanceOptions instance;
  instance.num_clients = 12;
  instance.num_replicas = 5;
  const auto problem = edr::optim::make_random_instance(rng, instance);
  const auto solved = edr::optim::solve_centralized(problem);
  if (!solved) return {"selftest: reference instance has no solution"};
  const Matrix& good = solved->allocation;
  if (!(feasibility_ratio(problem, good) <= 1.0))
    failures.push_back("selftest: the gate rejected a solver allocation");

  double largest = 0.0;
  for (const double demand : problem.demands())
    largest = std::max(largest, demand);
  std::size_t masked_row = problem.num_clients();
  std::size_t masked_col = 0;
  for (std::size_t c = 0; c < problem.num_clients(); ++c)
    for (std::size_t n = 0; n < problem.num_replicas(); ++n)
      if (masked_row == problem.num_clients() && !problem.feasible_pair(c, n)) {
        masked_row = c;
        masked_col = n;
      }
  struct Perturbation {
    const char* what;
    std::function<void(Matrix&)> apply;
  };
  const Perturbation perturbations[] = {
      {"demand residual of 10x the tolerance",
       [&](Matrix& m) { m(0, 0) += 10.0 * kFeasibilityTolerance * largest; }},
      {"negative entry",
       [&](Matrix& m) { m(1, 0) = -10.0 * kFeasibilityTolerance * largest; }},
      {"non-finite entry", [](Matrix& m) { m(2, 1) = NAN; }},
      {"mass on a latency-masked pair",
       [&](Matrix& m) {
         if (masked_row < problem.num_clients())
           m(masked_row, masked_col) += 1.0;
         else
           m(0, 0) = INFINITY;  // every pair feasible: force a failure
       }},
      {"wrong shape", [](Matrix& m) { m = Matrix(m.rows() + 1, m.cols()); }},
  };
  for (const auto& perturbation : perturbations) {
    Matrix bad = good;
    perturbation.apply(bad);
    if (feasibility_ratio(problem, bad) <= 1.0)
      failures.push_back(std::string("selftest: the gate accepted a ") +
                         perturbation.what);
  }
  return failures;
}

}  // namespace perfbench
