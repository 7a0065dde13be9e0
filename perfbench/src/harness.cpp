#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"
#include "obs/trace.hpp"

namespace afdx::perfbench {

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"throughput_per_cpu_s", "1/s"},
      {"throughput_1t_per_cpu_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"failed_frac", "fraction"},
      {"analysis.mean_bound_us", "us"},
      {"wall.throughput_per_s", "1/s"},
      {"wall.throughput_1t_per_s", "1/s"},
      {"wall.latency_p50_ms", "ms"},
      {"wall.latency_p99_ms", "ms"},
      {"gen.config_ms", "ms"},
      {"netcalc.analyze_ms", "ms"},
      {"netcalc.ports_computed", "count"},
      {"minplus.hdev_us_per_port", "us"},
      {"trajectory.analyze_ms", "ms"},
      {"trajectory.prefixes", "count"},
      {"trajectory.us_per_prefix", "us"},
      {"trajectory.segments_per_prefix_mean", "count"},
      {"trajectory.candidates_per_prefix_mean", "count"},
      {"trajectory.busy_rounds_mean", "count"},
      {"trajectory.prefix_cache_hit_rate", "fraction"},
      {"engine.parallel_eff", "fraction"},
      {"engine.shard_imbalance", "ratio"},
      {"engine.shard_memo_hit_rate", "fraction"},
      {"engine.port_cache_hit_rate", "fraction"},
      {"engine.pool.steals", "count"},
      {"engine.materialize_ms", "ms"},
      {"engine.plan_ms", "ms"},
      {"engine.run_incremental_ms", "ms"},
      {"engine.dirty_port_frac", "fraction"},
      {"engine.transplanted_path_frac", "fraction"},
      {"serve.parse_us", "us"},
      {"serve.handle_ms", "ms"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.overloaded", "count"},
      {"loadgen.late_ms_p99", "ms"},
      {"faults.apply_scenario_ms", "ms"},
      {"faults.rerouted_paths", "count"},
      {"faults.unreachable_paths", "count"},
      {"ladder.rung_wall_ms.sfa", "ms"},
      {"ladder.rung_wall_ms.wcnc", "ms"},
      {"ladder.rung_wall_ms.wcnc_grouping", "ms"},
      {"ladder.rung_wall_ms.trajectory", "ms"},
      {"ladder.rung_wall_ms.trajectory_pruned", "ms"},
      {"ladder.failed_rung_wall_ms", "ms"},
      {"ladder.path_evals", "count"},
      {"ladder.paths_escalated", "count"},
      {"sfa.analyze_ms", "ms"},
      {"obs.trace_overhead_pct", "%"},
  };
  return specs;
}

namespace {

const MetricSpec* find_spec(const std::string& name) {
  for (const auto* specs : {&end_to_end_specs(), &per_layer_specs()}) {
    for (const MetricSpec& s : *specs) {
      if (name == s.name) return &s;
    }
  }
  return nullptr;
}

}  // namespace

void Outcome::metric(const std::string& name, double value) {
  const MetricSpec* spec = find_spec(name);
  if (spec == nullptr) throw std::logic_error("uncatalogued metric " + name);
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, spec->unit});
}

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Outcome::count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void log_samples(const std::string& label, const std::vector<double>& samples) {
  std::cerr << label << ":";
  for (const double s : samples) std::cerr << ' ' << s;
  std::cerr << '\n';
}

void record_throughput(Outcome& out, const std::vector<double>& per_cpu_s,
                       const std::vector<double>& per_cpu_s_1t,
                       const std::vector<double>& per_s,
                       const std::vector<double>& per_s_1t) {
  log_samples("throughput_per_cpu_s", per_cpu_s);
  log_samples("throughput_1t_per_cpu_s", per_cpu_s_1t);
  log_samples("wall.throughput_per_s", per_s);
  log_samples("wall.throughput_1t_per_s", per_s_1t);
  out.metric("throughput_per_cpu_s", median(per_cpu_s));
  out.metric("throughput_1t_per_cpu_s", median(per_cpu_s_1t));
  out.metric("wall.throughput_per_s", median(per_s));
  out.metric("wall.throughput_1t_per_s", median(per_s_1t));
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q of all samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

void alternate_for(double budget_s, int min_rounds,
                   const std::function<void()>& parallel,
                   const std::function<void()>& serial) {
  const auto t0 = Clock::now();
  // After the minimum, a round starts only if, at the mean round time so
  // far, it ends within the budget.
  for (int round = 0;
       round < min_rounds ||
       ms_since(t0) * (round + 1) / round <= budget_s * 1000.0;
       ++round) {
    parallel();
    serial();
  }
}

double median_setup_s(int reps, const std::function<void()>& setup) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const double cpu0 = process_cpu_s();
    setup();
    samples.push_back(process_cpu_s() - cpu0);
  }
  return median(std::move(samples));
}

TrafficConfig permuted_vls(const TrafficConfig& cfg, std::uint64_t seed) {
  std::vector<VlId> order(cfg.vl_count());
  for (VlId v = 0; v < cfg.vl_count(); ++v) order[v] = v;
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  std::vector<VirtualLink> vls;
  std::vector<std::vector<std::vector<LinkId>>> routes;
  for (const VlId v : order) {
    vls.push_back(cfg.vl(v));
    routes.push_back(cfg.route(v).paths());
  }
  return TrafficConfig(cfg.network(), std::move(vls), std::move(routes));
}

void measure_trace_overhead(Outcome& out, int reps,
                            const std::function<void()>& core_op) {
  obs::Tracer& tracer = obs::Tracer::instance();
  std::vector<double> plain;
  std::vector<double> traced;
  // Interleaved so drift in machine load hits both sides alike.
  for (int i = 0; i < reps; ++i) {
    auto t0 = Clock::now();
    core_op();
    plain.push_back(ms_since(t0));
    tracer.enable();
    t0 = Clock::now();
    core_op();
    traced.push_back(ms_since(t0));
    tracer.disable();
    tracer.clear();
  }
  const double base = median(plain);
  out.metric("obs.trace_overhead_pct",
             base > 0.0 ? 100.0 * (median(traced) - base) / base : 0.0);
}

}  // namespace afdx::perfbench
