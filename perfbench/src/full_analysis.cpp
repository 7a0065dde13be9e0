// full_analysis: the certification batch. A cold full analysis of the
// 8-domain, 66-switch, 10k-VL generated network through
// AnalysisEngine::run_streaming, with a fresh engine per repetition, at N
// threads and on one thread.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>

#include "engine/engine.hpp"
#include "gen/industrial.hpp"
#include "harness.hpp"
#include "minplus/operations.hpp"
#include "netcalc/netcalc_analyzer.hpp"
#include "obs/counters.hpp"
#include "trajectory/trajectory_analyzer.hpp"

namespace afdx::perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

gen::IndustrialOptions network(const Context& ctx) {
  gen::IndustrialOptions o;
  o.seed = ctx.net_seed;
  o.domains = ctx.small ? 2 : 8;
  o.vl_count = ctx.small ? 1000 : 10000;
  return o;
}

/// FNV-1a over (path index, bound bits) in path-index order.
std::uint64_t digest(const std::vector<double>& bounds) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &bounds[i], sizeof(bits));
    mix(i);
    mix(bits);
  }
  return h;
}

/// Figures of one cold run. The per-path bounds are kept only when asked
/// for (the reference run); every run keeps their digest.
struct ColdRun {
  std::size_t not_ok = 0;
  double wall_ms = 0.0;
  double cpu_s = 0.0;
  /// Time from the start of the run until a path's bound reached the sink:
  /// median and 99th percentile over the paths (a failed or skipped path
  /// counts as infinite).
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t digest = 0;
  engine::StreamSummary summary;
  /// Per-path bounds in path-index order (keep_bounds only).
  std::vector<double> netcalc;
  std::vector<double> trajectory;
  std::vector<double> combined;
};

ColdRun cold_run(const TrafficConfig& cfg, int threads, bool keep_bounds = false) {
  const std::size_t n = cfg.all_paths().size();
  std::vector<double> netcalc(n, kInf);
  std::vector<double> trajectory(n, kInf);
  std::vector<double> combined(n, kInf);
  std::vector<double> answer_ms;
  answer_ms.reserve(n);
  ColdRun run;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  {
    engine::AnalysisEngine eng(cfg, engine::Options{threads});
    run.summary = eng.run_streaming([&](const engine::StreamPathResult& r) {
      const bool ok = r.state == engine::PathState::kOk;
      answer_ms.push_back(ok ? ms_since(t0) : kInf);
      netcalc[r.path_index] = r.netcalc;
      trajectory[r.path_index] = r.trajectory;
      combined[r.path_index] = r.combined;
      if (!ok) ++run.not_ok;
    });
    run.wall_ms = ms_since(t0);
    run.cpu_s = process_cpu_s() - cpu0;
  }
  run.p50_ms = quantile(answer_ms, 0.50);
  run.p99_ms = quantile(answer_ms, 0.99);
  run.digest = digest(combined);
  if (keep_bounds) {
    run.netcalc = std::move(netcalc);
    run.trajectory = std::move(trajectory);
    run.combined = std::move(combined);
  }
  return run;
}

/// Mean time of horizontal_deviation(port_aggregate(...), rate_latency(...))
/// over the used ports, in microseconds.
double hdev_us_per_port(const TrafficConfig& cfg) {
  const netcalc::Options opts;
  const netcalc::Result result = netcalc::analyze(cfg, opts);
  const auto delays = netcalc::delay_table(result);
  std::vector<minplus::Curve> aggregates;
  std::vector<minplus::Curve> services;
  for (LinkId port = 0; port < cfg.network().link_count(); ++port) {
    if (!result.ports[port].used) continue;
    const Link& link = cfg.network().link(port);
    aggregates.push_back(netcalc::port_aggregate(cfg, port, opts, delays));
    services.push_back(minplus::Curve::rate_latency(link.rate, link.latency));
  }
  if (aggregates.empty()) return 0.0;
  double sink = 0.0;
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  while (calls == 0 || ms_since(t0) < 200.0) {
    for (std::size_t i = 0; i < aggregates.size(); ++i) {
      sink += minplus::horizontal_deviation(aggregates[i], services[i]);
    }
    calls += aggregates.size();
  }
  const double us = 1000.0 * ms_since(t0) / static_cast<double>(calls);
  keep(sink);
  return us;
}

void record_layers(const TrafficConfig& cfg, const Context& ctx,
                   const std::vector<ColdRun>& parallel, Outcome& out) {
  obs::Registry& reg = obs::registry();

  // netcalc: one serial WCNC analysis of the whole network.
  std::vector<double> nc_ms;
  std::uint64_t ports = 0;
  for (int i = 0; i < 3; ++i) {
    reg.reset();
    const auto t0 = Clock::now();
    const netcalc::Result r = netcalc::analyze(cfg);
    nc_ms.push_back(ms_since(t0));
    ports = reg.counter("netcalc.ports_computed").value();
  }
  out.metric("netcalc.analyze_ms", median(nc_ms));
  out.metric("netcalc.ports_computed", static_cast<double>(ports));
  out.metric("minplus.hdev_us_per_port", hdev_us_per_port(cfg));

  // trajectory: one serial trajectory analysis; the registry counts its
  // prefix recursions and sweep operations.
  reg.reset();
  const auto t0 = Clock::now();
  const trajectory::Result tj = trajectory::analyze(cfg);
  const double tj_ms = ms_since(t0);
  const auto prefixes = static_cast<double>(reg.counter("trajectory.prefixes").value());
  out.metric("trajectory.analyze_ms", tj_ms);
  out.metric("trajectory.prefixes", prefixes);
  out.metric("trajectory.us_per_prefix", prefixes > 0 ? 1000.0 * tj_ms / prefixes : 0.0);
  out.metric("trajectory.segments_per_prefix_mean",
             reg.histogram("trajectory.segments_per_prefix").mean());
  out.metric("trajectory.candidates_per_prefix_mean",
             reg.histogram("trajectory.candidates_per_prefix").mean());
  out.metric("trajectory.busy_rounds_mean",
             reg.histogram("trajectory.busy_rounds").mean());

  // engine: scheduling and caches of the N-thread cold runs.
  std::vector<double> eff;
  std::vector<double> imbalance;
  std::vector<double> memo;
  std::vector<double> port_hits;
  std::vector<double> prefix_hits;
  for (const ColdRun& run : parallel) {
    eff.push_back(run.cpu_s * 1000.0 / (run.wall_ms * ctx.threads));
    std::size_t max_paths = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    for (const engine::ShardMetrics& s : run.summary.shards) {
      max_paths = std::max(max_paths, s.paths);
      lookups += s.lookups;
      hits += s.local_hits + s.shared_hits;
    }
    const double mean_paths =
        static_cast<double>(run.summary.paths) / ctx.threads;
    imbalance.push_back(mean_paths > 0 ? static_cast<double>(max_paths) / mean_paths : 0.0);
    memo.push_back(lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups));
    port_hits.push_back(run.summary.port_cache.hit_rate());
    prefix_hits.push_back(run.summary.prefix_cache.hit_rate());
  }
  out.metric("engine.parallel_eff", median(eff));
  out.metric("engine.shard_imbalance", median(imbalance));
  out.metric("engine.shard_memo_hit_rate", median(memo));
  out.metric("engine.port_cache_hit_rate", median(port_hits));
  out.metric("trajectory.prefix_cache_hit_rate", median(prefix_hits));
  reg.reset();
  (void)cold_run(cfg, ctx.threads);
  out.metric("engine.pool.steals",
             static_cast<double>(reg.counter("engine.pool.steals").value()));

  measure_trace_overhead(out, 3, [&] { (void)cold_run(cfg, ctx.threads); });
}

}  // namespace

void run_full_analysis(const Context& ctx, Outcome& out) {
  // Set-up: generate the network and construct an engine over it.
  std::unique_ptr<const TrafficConfig> cfg;
  std::vector<double> gen_ms;
  out.metric("setup_s", median_setup_s(5, [&] {
               cfg.reset();
               const auto t0 = Clock::now();
               const TrafficConfig generated = gen::industrial_config(network(ctx));
               gen_ms.push_back(ms_since(t0));
               cfg = std::make_unique<const TrafficConfig>(permuted_vls(generated, ctx.seed));
               const engine::AnalysisEngine eng(*cfg, engine::Options{ctx.threads});
             }));
  const std::size_t n = cfg->all_paths().size();

  // Measured window: N-thread and one-thread cold runs, alternating.
  std::vector<ColdRun> parallel;
  std::vector<ColdRun> serial;
  alternate_for(
      ctx.seconds, 2, [&] { parallel.push_back(cold_run(*cfg, ctx.threads)); },
      [&] { serial.push_back(cold_run(*cfg, 1, serial.empty())); });

  std::vector<double> rate;
  std::vector<double> rate_1t;
  std::vector<double> wall_rate;
  std::vector<double> wall_rate_1t;
  std::vector<double> p50;
  std::vector<double> p99;
  for (const ColdRun& r : parallel) {
    rate.push_back(static_cast<double>(n) / r.cpu_s);
    wall_rate.push_back(static_cast<double>(n) / (r.wall_ms / 1000.0));
    p50.push_back(r.p50_ms);
    p99.push_back(r.p99_ms);
    out.count(n, r.not_ok);
  }
  for (const ColdRun& r : serial) {
    rate_1t.push_back(static_cast<double>(n) / r.cpu_s);
    wall_rate_1t.push_back(static_cast<double>(n) / (r.wall_ms / 1000.0));
    out.count(n, r.not_ok);
  }

  // Output checks (outside the measured window), against the first
  // 1-thread run.
  const ColdRun& ref = serial.front();
  std::vector<double> ref_bounds = ref.combined;
  if (ctx.perturb == "digest") ref_bounds[n / 2] = std::nextafter(ref_bounds[n / 2], kInf);
  const std::uint64_t ref_digest = digest(ref_bounds);
  for (const ColdRun& r : parallel) {
    out.check(r.digest == ref_digest,
              "digest: N-thread per-path combined bounds differ from the "
              "1-thread run");
  }
  for (const ColdRun& r : serial) {
    out.check(r.digest == ref_digest, "digest: repeated 1-thread runs differ");
  }
  std::size_t not_min = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double combined = ref.combined[i];
    if (ctx.perturb == "combined" && i == n / 2) combined = std::nextafter(combined, kInf);
    const double expect = std::min(ref.netcalc[i], ref.trajectory[i]);
    if (std::memcmp(&combined, &expect, sizeof(double)) != 0) ++not_min;
  }
  out.check(not_min == 0, "combined: " + std::to_string(not_min) +
                              " paths whose combined bound is not "
                              "min(netcalc, trajectory)");

  std::vector<double> finite;
  for (const double b : ref.combined) {
    if (std::isfinite(b)) finite.push_back(b);
  }
  record_throughput(out, rate, rate_1t, wall_rate, wall_rate_1t);
  out.metric("wall.latency_p50_ms", median(p50));
  out.metric("wall.latency_p99_ms", median(p99));
  out.metric("analysis.mean_bound_us", mean(finite));

  if (ctx.trace) {
    out.metric("gen.config_ms", median(gen_ms));
    record_layers(*cfg, ctx, parallel, out);
  }
  out.metric("peak_rss_mb", peak_rss_mb());
}

}  // namespace afdx::perfbench
