// ladder_budget: the budgeted accuracy/cost ladder. analysis::run_ladder on
// the 2-domain 2,500-VL network with the token budget max_path_evals =
// 3.5 x paths, at N threads and on one thread. The only workload that runs
// the escalation scheduler of src/analysis and the SFA rung.
#include <cmath>
#include <cstring>
#include <memory>

#include "analysis/ladder.hpp"
#include "gen/industrial.hpp"
#include "harness.hpp"
#include "sfa/sfa_analyzer.hpp"

namespace afdx::perfbench {

namespace {

constexpr double kBudgetPerPath = 3.5;

gen::IndustrialOptions network(const Context& ctx) {
  gen::IndustrialOptions o;
  o.seed = ctx.net_seed;
  o.domains = ctx.small ? 1 : 2;
  o.vl_count = ctx.small ? 400 : 2500;
  return o;
}

/// Figures of one ladder run: the result without its per-rung bounds,
/// provenance and statuses (only the final bounds are compared).
struct LadderRun {
  analysis::LadderResult result;
  std::size_t failed = 0;
  double wall_ms = 0.0;
  double cpu_s = 0.0;
};

LadderRun ladder(const TrafficConfig& cfg, int threads) {
  analysis::LadderOptions options;
  options.max_path_evals = static_cast<std::uint64_t>(
      kBudgetPerPath * static_cast<double>(cfg.all_paths().size()));
  LadderRun run;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  run.result = analysis::run_ladder(cfg, options, engine::Options{threads});
  run.wall_ms = ms_since(t0);
  run.cpu_s = process_cpu_s() - cpu0;
  for (const engine::PathStatus& s : run.result.status) {
    if (s.state == engine::PathState::kFailed) ++run.failed;
  }
  run.result.rung_bounds = {};
  run.result.provenance = {};
  run.result.status = {};
  return run;
}

void record_layers(const TrafficConfig& cfg, const Context& ctx,
                   const std::vector<LadderRun>& parallel, Outcome& out) {
  for (std::size_t rung = 0; rung < analysis::kRungCount; ++rung) {
    std::vector<double> wall;
    for (const LadderRun& r : parallel) wall.push_back(r.result.rungs[rung].wall_us / 1000.0);
    out.metric(std::string("ladder.rung_wall_ms.") +
                   analysis::to_string(static_cast<analysis::Rung>(rung)),
               median(wall));
  }
  std::vector<double> failed_wall;
  for (const LadderRun& r : parallel) {
    double ms = 0.0;
    for (const analysis::RungStats& s : r.result.rungs) {
      if (s.attempted && s.paths_bounded == 0) ms += s.wall_us / 1000.0;
    }
    failed_wall.push_back(ms);
  }
  out.metric("ladder.failed_rung_wall_ms", median(failed_wall));
  out.metric("ladder.path_evals", static_cast<double>(parallel.front().result.path_evals));
  out.metric("ladder.paths_escalated",
             static_cast<double>(parallel.front().result.paths_escalated));

  std::vector<double> sfa_ms;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    const sfa::Result r = sfa::analyze(cfg);
    sfa_ms.push_back(ms_since(t0));
    keep(r.path_bounds.empty() ? 0.0 : r.path_bounds.front());
  }
  out.metric("sfa.analyze_ms", median(sfa_ms));

  measure_trace_overhead(out, 3, [&] { (void)ladder(cfg, ctx.threads); });
}

}  // namespace

void run_ladder_budget(const Context& ctx, Outcome& out) {
  std::unique_ptr<const TrafficConfig> cfg;
  std::vector<double> gen_ms;
  out.metric("setup_s", median_setup_s(5, [&] {
               cfg.reset();
               const auto t0 = Clock::now();
               const TrafficConfig generated = gen::industrial_config(network(ctx));
               gen_ms.push_back(ms_since(t0));
               cfg = std::make_unique<const TrafficConfig>(permuted_vls(generated, ctx.seed));
             }));
  const std::size_t n = cfg->all_paths().size();

  std::vector<LadderRun> parallel;
  std::vector<LadderRun> serial;
  alternate_for(
      ctx.seconds, 2, [&] { parallel.push_back(ladder(*cfg, ctx.threads)); },
      [&] { serial.push_back(ladder(*cfg, 1)); });

  std::vector<double> rate;
  std::vector<double> rate_1t;
  std::vector<double> wall_rate;
  std::vector<double> wall_rate_1t;
  std::vector<double> wall;
  for (const auto* runs : {&parallel, &serial}) {
    for (const LadderRun& r : *runs) {
      out.count(n, r.failed);
      if (runs == &parallel) {
        rate.push_back(static_cast<double>(n) / r.cpu_s);
        wall_rate.push_back(static_cast<double>(n) / (r.wall_ms / 1000.0));
        wall.push_back(r.wall_ms);
      } else {
        rate_1t.push_back(static_cast<double>(n) / r.cpu_s);
        wall_rate_1t.push_back(static_cast<double>(n) / (r.wall_ms / 1000.0));
      }
    }
  }

  // Output check (outside the measured window): the budgeted bounds are
  // bit-identical at 1 and N threads, run after run.
  const std::vector<double>& ref = serial.front().result.bounds;
  for (const auto* runs : {&parallel, &serial}) {
    for (const LadderRun& r : *runs) {
      std::vector<double> bounds = r.result.bounds;
      if (ctx.perturb == "ladder" && &r == &parallel.front()) {
        bounds[n / 2] = std::nextafter(bounds[n / 2], 1e300);
      }
      out.check(bounds.size() == ref.size() &&
                    std::memcmp(bounds.data(), ref.data(), n * sizeof(double)) == 0,
                "ladder: budgeted bounds differ between the 1-thread and "
                "N-thread runs");
    }
  }

  std::vector<double> finite;
  for (const double b : ref) {
    if (std::isfinite(b)) finite.push_back(b);
  }
  // All bounds of a ladder run are returned together, so the answer
  // latency of a run is its wall time.
  record_throughput(out, rate, rate_1t, wall_rate, wall_rate_1t);
  out.metric("wall.latency_p50_ms", median(wall));
  out.metric("wall.latency_p99_ms", median(wall));
  out.metric("analysis.mean_bound_us", mean(finite));

  if (ctx.trace) {
    out.metric("gen.config_ms", median(gen_ms));
    record_layers(*cfg, ctx, parallel, out);
  }
  out.metric("peak_rss_mb", peak_rss_mb());
}

}  // namespace afdx::perfbench
