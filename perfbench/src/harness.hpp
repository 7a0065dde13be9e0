// Shared scaffolding of the repository benchmark: run context, timing and
// statistics helpers, the metric catalogue and the per-run outcome.
//
// Every workload fills one Outcome: the end-to-end metrics it measured
// with tracing off, the per-layer metrics of a traced run, the number of
// units it attempted and failed, and the verdict of its output checks.
// main.cpp turns the Outcome into the one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "vl/traffic_config.hpp"

namespace afdx::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Keeps a computed value observable so timed calls are not optimized away.
inline void keep(double v) { asm volatile("" : : "r,m"(v) : "memory"); }

/// Everything a workload needs to know about this run.
struct Context {
  std::string workload;
  /// Run seed: the VL declaration order of the network, or the what-if
  /// request stream. It varies the inputs but not the work they carry.
  std::uint64_t seed = 0;
  /// Generator seed of the workload's network (the workload's default
  /// unless overridden, e.g. with the held-out seed).
  std::uint64_t net_seed = 0;
  /// Length of the measured window, in seconds.
  double seconds = 10.0;
  /// Per-layer (traced) run instead of the end-to-end run.
  bool trace = false;
  /// Reduced network sizes (self-test only).
  bool small = false;
  /// N: worker threads and client connections of the N-way phases.
  int threads = 1;
  /// Name of one output check whose comparison is deliberately perturbed
  /// (self-test only; empty in every measured run).
  std::string perturb;
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Name and unit of a catalogued metric.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports with tracing off.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_specs();
/// The per-layer metrics every traced run reports. A layer the workload
/// does not run reports 0 (it did no work and was busy for 0 ms).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_specs();

class Outcome {
 public:
  /// Records a metric; the unit must match the catalogue.
  void metric(const std::string& name, double value);
  /// Records one output check. A failed check fails the run.
  void check(bool ok, const std::string& what);
  /// Counts units of work attempted and failed (paths, requests,
  /// scenarios), the base of failed_frac.
  void count(std::uint64_t attempted, std::uint64_t failed);

  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Writes one labelled line of per-repetition samples to stderr, so a
/// noisy run can be told apart from a slow one.
void log_samples(const std::string& label, const std::vector<double>& samples);

/// Records the four throughput figures of the N-thread and one-thread
/// repetitions (medians; units of work per CPU second and per second).
void record_throughput(Outcome& out, const std::vector<double>& per_cpu_s,
                       const std::vector<double>& per_cpu_s_1t,
                       const std::vector<double>& per_s,
                       const std::vector<double>& per_s_1t);

/// Median of the samples (0 when empty).
[[nodiscard]] double median(std::vector<double> samples);
/// Nearest-rank quantile q in [0, 1] of the samples; +infinity samples
/// (failed requests) sort last (0 when empty).
[[nodiscard]] double quantile(std::vector<double> samples, double q);
/// Mean of the samples (0 when empty).
[[nodiscard]] double mean(const std::vector<double>& samples);

/// CPU time of the whole process (all threads), in seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Runs `parallel` then `serial`, round after round, until `budget_s`
/// seconds have passed and at least `min_rounds` rounds ran. Alternating
/// the N-thread and one-thread repetitions exposes both to the same drift
/// of the host's speed.
void alternate_for(double budget_s, int min_rounds,
                   const std::function<void()>& parallel,
                   const std::function<void()>& serial);

/// Runs `setup` `reps` times and returns the median CPU time of the
/// process over one repetition, in seconds. Only the last repetition's
/// product is kept by the caller (each call rebuilds it).
[[nodiscard]] double median_setup_s(int reps, const std::function<void()>& setup);

/// The same network and traffic with the VLs declared in a seeded random
/// order (names, parameters and routes unchanged): one problem, presented
/// differently per run seed.
[[nodiscard]] TrafficConfig permuted_vls(const TrafficConfig& cfg, std::uint64_t seed);

/// Per-layer metrics every traced run shares: tracing overhead of the
/// workload's core operation (median of `reps` untraced vs traced calls).
void measure_trace_overhead(Outcome& out, int reps,
                            const std::function<void()>& core_op);

/// The four workloads.
void run_full_analysis(const Context& ctx, Outcome& out);
void run_whatif_local(const Context& ctx, Outcome& out);
void run_fault_sweep(const Context& ctx, Outcome& out);
void run_ladder_budget(const Context& ctx, Outcome& out);

}  // namespace afdx::perfbench
