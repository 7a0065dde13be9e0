// fault_sweep: degraded-mode certification. All single-link scenarios of
// the paper-scale 500-VL / 8-switch network through
// faults::analyze_scenarios (incremental on), at N threads and on one
// thread. Parallelism is across scenarios, not inside an engine run.
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "engine/incremental.hpp"
#include "faults/degrade.hpp"
#include "faults/report.hpp"
#include "faults/scenario.hpp"
#include "gen/industrial.hpp"
#include "harness.hpp"

namespace afdx::perfbench {

namespace {

gen::IndustrialOptions network(const Context& ctx) {
  gen::IndustrialOptions o;
  o.seed = ctx.net_seed;
  if (ctx.small) {
    o.switch_count = 4;
    o.end_system_count = 24;
    o.vl_count = 150;
  }
  return o;
}

/// Figures of one sweep. The report itself is kept only when asked for
/// (the runs the checks compare).
struct Sweep {
  faults::DegradationReport report;
  std::size_t unanalyzed = 0;
  double wall_ms = 0.0;
  double cpu_s = 0.0;
};

Sweep sweep(const TrafficConfig& cfg,
            const std::vector<faults::FaultScenario>& scenarios, int threads,
            bool incremental, bool keep_report = true) {
  faults::ScenarioOptions options;
  options.threads = threads;
  options.incremental = incremental;
  Sweep s;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  s.report = faults::analyze_scenarios(cfg, scenarios, options);
  s.wall_ms = ms_since(t0);
  s.cpu_s = process_cpu_s() - cpu0;
  for (const faults::ScenarioReport& r : s.report.scenarios) {
    if (!r.analyzed) ++s.unanalyzed;
  }
  if (!keep_report) s.report = {};
  return s;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Number of records (scenario headers and path records) that differ.
std::size_t record_mismatches(const faults::DegradationReport& a,
                              const faults::DegradationReport& b) {
  if (a.scenarios.size() != b.scenarios.size()) return 1;
  std::size_t bad = 0;
  for (std::size_t s = 0; s < a.scenarios.size(); ++s) {
    const faults::ScenarioReport& sa = a.scenarios[s];
    const faults::ScenarioReport& sb = b.scenarios[s];
    if (sa.analyzed != sb.analyzed || sa.paths.size() != sb.paths.size() ||
        sa.rerouted != sb.rerouted || sa.unreachable != sb.unreachable ||
        sa.failed != sb.failed || sa.skipped != sb.skipped) {
      ++bad;
      continue;
    }
    for (std::size_t p = 0; p < sa.paths.size(); ++p) {
      const faults::PathDegradation& pa = sa.paths[p];
      const faults::PathDegradation& pb = sb.paths[p];
      if (pa.fate != pb.fate || pa.state != pb.state ||
          pa.redundancy_lost != pb.redundancy_lost ||
          !same_bits(pa.healthy_us, pb.healthy_us) ||
          !same_bits(pa.degraded_raw_us, pb.degraded_raw_us) ||
          !same_bits(pa.degraded_us, pb.degraded_us) ||
          !same_bits(pa.first_arrival_us, pb.first_arrival_us) ||
          !same_bits(pa.skew_healthy_us, pb.skew_healthy_us) ||
          !same_bits(pa.skew_us, pb.skew_us)) {
        ++bad;
      }
    }
  }
  return bad;
}

void record_layers(const TrafficConfig& cfg,
                   const std::vector<faults::FaultScenario>& scenarios,
                   const Context& ctx, Outcome& out) {
  engine::AnalysisEngine healthy_engine(cfg, engine::Options{1});
  const engine::RunResult healthy = healthy_engine.run_resilient();

  std::vector<double> apply_ms;
  std::vector<double> plan_ms;
  std::vector<double> incremental_ms;
  std::size_t rerouted = 0;
  std::size_t unreachable = 0;
  std::size_t dirty = 0;
  std::size_t used = 0;
  std::size_t transplanted = 0;
  std::size_t paths = 0;
  for (const faults::FaultScenario& scenario : scenarios) {
    auto t = Clock::now();
    const faults::DegradedView view = faults::apply_scenario(cfg, scenario);
    apply_ms.push_back(ms_since(t));
    rerouted += view.rerouted;
    unreachable += view.unreachable;
    if (!view.config.has_value()) continue;
    const std::vector<LinkId> changed =
        faults::scenario_changed_links(cfg.network(), scenario);
    t = Clock::now();
    const engine::IncrementalPlan plan =
        engine::plan_incremental(cfg, *view.config, changed);
    plan_ms.push_back(ms_since(t));
    keep(static_cast<double>(plan.dirty_ports.size()));
    t = Clock::now();
    engine::AnalysisEngine eng(*view.config, engine::Options{1});
    const engine::RunResult r = eng.run_incremental(cfg, healthy, changed);
    incremental_ms.push_back(ms_since(t));
    const engine::IncrementalStats& s = r.metrics.incremental;
    dirty += s.dirty_ports;
    used += s.dirty_ports + s.seeded_ports;
    transplanted += s.transplanted_paths;
    paths += view.config->all_paths().size();
  }
  out.metric("faults.apply_scenario_ms", mean(apply_ms));
  out.metric("faults.rerouted_paths", static_cast<double>(rerouted));
  out.metric("faults.unreachable_paths", static_cast<double>(unreachable));
  out.metric("engine.plan_ms", mean(plan_ms));
  out.metric("engine.run_incremental_ms", mean(incremental_ms));
  out.metric("engine.dirty_port_frac",
             used == 0 ? 0.0 : static_cast<double>(dirty) / static_cast<double>(used));
  out.metric("engine.transplanted_path_frac",
             paths == 0 ? 0.0 : static_cast<double>(transplanted) / static_cast<double>(paths));

  measure_trace_overhead(out, 3, [&] { (void)sweep(cfg, scenarios, ctx.threads, true, false); });
}

}  // namespace

void run_fault_sweep(const Context& ctx, Outcome& out) {
  // Set-up: generate the network and enumerate its single-link scenarios.
  std::unique_ptr<const TrafficConfig> cfg;
  std::vector<faults::FaultScenario> scenarios;
  std::vector<double> gen_ms;
  out.metric("setup_s", median_setup_s(9, [&] {
               cfg.reset();
               const auto t0 = Clock::now();
               const TrafficConfig generated = gen::industrial_config(network(ctx));
               gen_ms.push_back(ms_since(t0));
               cfg = std::make_unique<const TrafficConfig>(permuted_vls(generated, ctx.seed));
               scenarios = faults::single_link_scenarios(*cfg);
             }));

  std::vector<Sweep> parallel;
  std::vector<Sweep> serial;
  alternate_for(
      ctx.seconds, 2,
      [&] { parallel.push_back(sweep(*cfg, scenarios, ctx.threads, true, parallel.empty())); },
      [&] { serial.push_back(sweep(*cfg, scenarios, 1, true, serial.empty())); });

  const auto n = static_cast<double>(scenarios.size());
  std::vector<double> rate;
  std::vector<double> rate_1t;
  std::vector<double> wall_rate;
  std::vector<double> wall_rate_1t;
  std::vector<double> wall;
  for (const auto* runs : {&parallel, &serial}) {
    for (const Sweep& s : *runs) {
      out.count(scenarios.size(), s.unanalyzed);
      if (runs == &parallel) {
        rate.push_back(n / s.cpu_s);
        wall_rate.push_back(n / (s.wall_ms / 1000.0));
        wall.push_back(s.wall_ms);
      } else {
        rate_1t.push_back(n / s.cpu_s);
        wall_rate_1t.push_back(n / (s.wall_ms / 1000.0));
      }
    }
  }

  // Output checks (outside the measured window): the incremental sweep is
  // record-identical to a full per-scenario recomputation, at any thread
  // count.
  faults::DegradationReport incremental = parallel.front().report;
  if (ctx.perturb == "sweep") {
    bool done = false;
    for (faults::ScenarioReport& r : incremental.scenarios) {
      for (faults::PathDegradation& p : r.paths) {
        if (!done && std::isfinite(p.degraded_us)) {
          p.degraded_us = std::nextafter(p.degraded_us, std::numeric_limits<double>::infinity());
          done = true;
        }
      }
    }
  }
  const Sweep full = sweep(*cfg, scenarios, ctx.threads, false);
  const std::size_t bad = record_mismatches(full.report, incremental);
  out.check(bad == 0, "sweep: " + std::to_string(bad) +
                          " records of the incremental sweep differ from the "
                          "full recomputation");
  out.check(record_mismatches(parallel.front().report, serial.front().report) == 0,
            "sweep: the N-thread and 1-thread sweeps differ");

  std::vector<double> degraded;
  for (const faults::ScenarioReport& r : parallel.front().report.scenarios) {
    for (const faults::PathDegradation& p : r.paths) {
      if (std::isfinite(p.degraded_us)) degraded.push_back(p.degraded_us);
    }
  }
  // Every scenario's records arrive together when the sweep returns, so
  // the answer latency of a sweep is its wall time.
  record_throughput(out, rate, rate_1t, wall_rate, wall_rate_1t);
  out.metric("wall.latency_p50_ms", median(wall));
  out.metric("wall.latency_p99_ms", median(wall));
  out.metric("analysis.mean_bound_us", mean(degraded));

  if (ctx.trace) {
    out.metric("gen.config_ms", median(gen_ms));
    record_layers(*cfg, scenarios, ctx, out);
  }
  out.metric("peak_rss_mb", peak_rss_mb());
}

}  // namespace afdx::perfbench
