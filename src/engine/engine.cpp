#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <memory>
#include <limits>
#include <mutex>
#include <optional>
#include <ostream>
#include <unordered_map>

#include <ctime>

#include "common/error.hpp"
#include "engine/incremental.hpp"
#include "netcalc/flow_index.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace afdx::engine {

namespace {

using Clock = std::chrono::steady_clock;

constexpr Microseconds kInf = std::numeric_limits<Microseconds>::infinity();

Microseconds elapsed_us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Process-wide CPU time (all threads) in microseconds; wall vs cpu is how
/// the metrics expose effective parallelism.
Microseconds cpu_now_us() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<Microseconds>(ts.tv_sec) * 1e6 +
           static_cast<Microseconds>(ts.tv_nsec) * 1e-3;
  }
#endif
  return static_cast<Microseconds>(std::clock()) * 1e6 /
         static_cast<Microseconds>(CLOCKS_PER_SEC);
}

/// Per-phase wall-time histograms in the global observability registry;
/// resolved once, then each observation is an atomic add.
void observe_phase_us(const char* phase, Microseconds wall_us) {
  obs::registry()
      .histogram(std::string("engine.phase.") + phase + ".wall_us")
      .observe(wall_us > 0.0 ? static_cast<std::uint64_t>(wall_us) : 0u);
}

/// Throughput guarded against zero-path / zero-duration runs (a trivial
/// configuration or a clock too coarse for the run must yield 0, not NaN).
double safe_paths_per_second(std::size_t paths, Microseconds wall_us) {
  if (paths == 0 || !(wall_us > 0.0)) return 0.0;
  return static_cast<double>(paths) / (wall_us * 1e-6);
}

/// 0.0 instead of NaN/inf for degenerate inputs, keeping printed metrics
/// sane on trivial runs.
double finite_or_zero(double value) {
  return std::isfinite(value) ? value : 0.0;
}

// Tripwire: trajectory_options_key below must fingerprint EVERY field of
// trajectory::Options, same contract as PortCache::options_key.
static_assert(sizeof(trajectory::Options) == 8,
              "trajectory::Options changed: update trajectory_options_key to "
              "mix in every field, then bump this expected size");

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v,
                      unsigned bytes) noexcept {
  for (unsigned i = 0; i < bytes; ++i) {
    h ^= (v >> (8 * i)) & 0xffull;
    h *= 1099511628211ull;  // FNV-1a prime
  }
  return h;
}

/// FNV-1a digest of the trajectory option fields prefix bounds depend on.
std::uint64_t trajectory_options_key(const trajectory::Options& o) noexcept {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  h = fnv_mix(h, o.serialization ? 1u : 0u, 1);
  h = fnv_mix(h, o.loose_boundary_packet ? 1u : 0u, 1);
  h = fnv_mix(h,
              static_cast<std::uint64_t>(
                  static_cast<std::uint32_t>(o.max_busy_iterations)),
              sizeof(o.max_busy_iterations));
  return h;
}

/// Bitwise digest of a serialization-caps vector. Prefix bounds are pure
/// functions of (configuration, options, caps); together with the options
/// digest this keys the engine's shared prefix caches.
std::uint64_t caps_signature(
    const std::optional<std::vector<Microseconds>>& caps) noexcept {
  std::uint64_t h = 14695981039346656037ull;
  if (!caps.has_value()) return fnv_mix(h, 0x9e3779b97f4a7c15ull, 8);
  h = fnv_mix(h, caps->size(), 8);
  for (Microseconds c : *caps) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(c));
    std::memcpy(&bits, &c, sizeof(bits));
    h = fnv_mix(h, bits, 8);
  }
  return h;
}

std::string port_name(const Network& net, LinkId l) {
  return net.node(net.link(l).source).name + ">" +
         net.node(net.link(l).dest).name;
}

/// Per-path WCNC assembly: a path is only as good as every port it
/// crosses; the first non-ok port carries the explanation in `status`.
template <typename PortOutcomes>
Microseconds wcnc_path_bound(const TrafficConfig& cfg, const VlPath& p,
                             const PortOutcomes& ports,
                             const netcalc::DelayTable& delays,
                             PathStatus& status) {
  const std::uint8_t level = cfg.vl(p.vl).priority;
  Microseconds total = 0.0;
  for (LinkId l : p.links) {
    if (ports[l].state != PathState::kOk) {
      status = PathStatus{
          ports[l].state,
          "wcnc: port " + port_name(cfg.network(), l) + " " +
              std::string(to_string(ports[l].state)) +
              (ports[l].message.empty() ? "" : ": " + ports[l].message)};
      return kInf;
    }
    AFDX_ASSERT(delays.has(l, level), "engine: missing level delay");
    total += delays.get(l, level);
  }
  return total;
}

/// A path's outcome from its two methods' outcomes: ok as long as one
/// method produced a bound, with the degraded method still named.
PathStatus combined_status(const PathStatus& nc, const PathStatus& tj,
                           Microseconds combined) {
  std::string message = nc.message;
  if (!tj.ok()) {
    if (!message.empty()) message += "; ";
    message += "trajectory " + std::string(to_string(tj.state)) + ": " +
               tj.message;
  }
  if (std::isfinite(combined)) {
    return PathStatus{PathState::kOk, std::move(message)};
  }
  const bool failed =
      nc.state == PathState::kFailed || tj.state == PathState::kFailed;
  return PathStatus{failed ? PathState::kFailed : PathState::kSkipped,
                    std::move(message)};
}

}  // namespace

const char* to_string(PathState state) noexcept {
  switch (state) {
    case PathState::kOk:
      return "ok";
    case PathState::kFailed:
      return "failed";
    case PathState::kSkipped:
      return "skipped";
  }
  return "unknown";
}

bool RunResult::complete() const noexcept {
  for (const PathStatus& s : status) {
    if (!s.ok()) return false;
  }
  return true;
}

void RunMetrics::print(std::ostream& out) const {
  const auto flags = out.flags();
  const auto precision = out.precision();
  out << std::fixed << std::setprecision(3);
  out << "engine: " << threads << " thread" << (threads == 1 ? "" : "s")
      << ", " << paths << " paths, " << std::setprecision(0)
      << finite_or_zero(paths_per_second) << " paths/s\n"
      << std::setprecision(3) << "  wall ms: netcalc "
      << netcalc_wall_us / 1000.0 << " | trajectory "
      << trajectory_wall_us / 1000.0 << " | combine "
      << combine_wall_us / 1000.0 << " | total " << total_wall_us / 1000.0
      << "\n"
      << "  cpu ms: " << total_cpu_us / 1000.0 << " ("
      << std::setprecision(2)
      << finite_or_zero(total_wall_us > 0.0 ? total_cpu_us / total_wall_us
                                            : 0.0)
      << "x parallelism)\n"
      << std::setprecision(3) << "  levels: " << levels << " (max width "
      << max_level_width << ")\n"
      << "  port cache: " << cache.hits << " hits / " << cache.misses
      << " misses (" << std::setprecision(1)
      << finite_or_zero(cache.hit_rate()) * 100.0 << " % hit rate)\n"
      << "  prefix cache: " << prefix.hits << " hits / " << prefix.misses
      << " misses (" << finite_or_zero(prefix.hit_rate()) * 100.0
      << " % hit rate, " << prefix.reused << " from a baseline)\n"
      << "  steals: " << steals << "\n";
  if (!shards.empty()) {
    out << "  shards:";
    for (const ShardMetrics& s : shards) {
      out << " [" << s.vls << " vls, " << s.paths << " paths, "
          << finite_or_zero(s.hit_rate()) * 100.0 << " % memo hits]";
    }
    out << "\n"
        << "  prefix work: " << prefix_work.prefixes << " prefixes, "
        << prefix_work.segments << " segments, " << prefix_work.candidates
        << " candidates, " << prefix_work.busy_rounds << " busy rounds\n";
  }
  if (incremental.attempted) {
    if (incremental.full_fallback) {
      out << "  incremental: full fallback ("
          << incremental.fallback_reason << ")\n";
    } else {
      out << "  incremental: " << incremental.changed_links
          << " changed links -> " << incremental.dirty_ports
          << " dirty ports, " << incremental.seeded_ports
          << " ports + " << incremental.seeded_prefixes
          << " prefixes reused, " << incremental.transplanted_paths
          << " paths transplanted\n";
    }
  }
  out << "  tasks/thread:";
  for (std::size_t n : tasks_per_thread) out << " " << n;
  out << "\n";
  out.flags(flags);
  out.precision(precision);
}

AnalysisEngine::AnalysisEngine(const TrafficConfig& config, Options options)
    : cfg_(config), pool_(ThreadPool::resolve_thread_count(options.threads)) {}

netcalc::Result AnalysisEngine::run_netcalc(const netcalc::Options& options) {
  AFDX_TRACE_SPAN("engine.netcalc", "engine");
  const std::size_t n_links = cfg_.network().link_count();
  const std::uint64_t okey = PortCache::options_key(options);
  metrics_.levels = 0;
  metrics_.max_level_width = 0;

  netcalc::Result result;
  result.ports.assign(n_links, netcalc::PortReport{});
  netcalc::DelayTable delays(cfg_);

  const auto levels = netcalc::propagation_levels(cfg_);
  if (!levels.has_value()) {
    // Cyclic configuration: the fixed point is inherently sequential.
    // Serve fully-cached reruns from the per-port cache; otherwise run the
    // serial analyzer once and memoize its converged bounds.
    std::vector<LinkId> used_ports;
    for (LinkId l = 0; l < n_links; ++l) {
      if (!cfg_.vls_on_link(l).empty()) used_ports.push_back(l);
    }
    const auto rounds = iterations_.find(okey);
    if (rounds != iterations_.end() && cache_.covers(okey, used_ports)) {
      for (LinkId port : used_ports) {
        const auto bounds = cache_.lookup(okey, port);
        delays.assign(port, bounds->level_delays);
        result.ports[port] =
            netcalc::make_report(*bounds, cfg_.utilization(port));
      }
      result.iterations = rounds->second;
      result.path_bounds = netcalc::path_bounds_from(cfg_, delays);
      return result;
    }
    result = netcalc::analyze(cfg_, options);
    for (LinkId port : used_ports) {
      const netcalc::PortReport& r = result.ports[port];
      cache_.store(okey, port,
                   netcalc::PortBounds{r.level_delays, r.backlog,
                                       r.queue_backlog});
    }
    iterations_[okey] = result.iterations;
    return result;
  }

  // Feed-forward: propagate level by level; ports of one level have no
  // mutual dependency, so each level is chunked dynamically across the
  // pool (work stealing). Results land in per-port slots, making the pass
  // order-independent and bit-identical to the serial analyzer.
  metrics_.levels = levels->size();
  static obs::Histogram& level_width =
      obs::registry().histogram("engine.level.width");
  const netcalc::PortFlowIndex& index = flow_index();
  std::vector<netcalc::PortBounds> bounds(n_links);
  for (const std::vector<LinkId>& level : *levels) {
    AFDX_TRACE_SPAN("engine.netcalc.level", "engine");
    level_width.observe(level.size());
    metrics_.max_level_width = std::max(metrics_.max_level_width,
                                        level.size());
    pool_.parallel_for_dynamic(level.size(), [&](std::size_t i, int) {
      const LinkId port = level[i];
      if (auto hit = cache_.lookup(okey, port); hit.has_value()) {
        bounds[port] = std::move(*hit);
      } else {
        bounds[port] =
            netcalc::compute_port_bounds(cfg_, port, options, delays, index);
        cache_.store(okey, port, bounds[port]);
      }
    });
    for (LinkId port : level) {
      delays.assign(port, bounds[port].level_delays);
      result.ports[port] =
          netcalc::make_report(bounds[port], cfg_.utilization(port));
    }
  }
  result.iterations = 1;
  result.path_bounds = netcalc::path_bounds_from(cfg_, delays);
  return result;
}

AnalysisEngine::TrajectoryContext AnalysisEngine::resolve_trajectory_context(
    const trajectory::Options& options, const netcalc::Result* nc_result,
    const std::vector<PortOutcome>* nc_ports) {
  TrajectoryContext ctx;
  ctx.options = options;
  const std::size_t n_links = cfg_.network().link_count();
  if (options.serialization) {
    ctx.caps.emplace(n_links, kInf);
    if (nc_result == nullptr) {
      // Serialization caps from the shared default-options WCNC run -- the
      // same envelopes Analyzer::backlog_caps() would derive per instance.
      try {
        const netcalc::Result nc = run_netcalc(netcalc::Options{});
        for (LinkId l = 0; l < n_links; ++l) {
          if (nc.ports[l].used) {
            (*ctx.caps)[l] =
                nc.ports[l].queue_backlog / cfg_.network().link(l).rate;
          }
        }
      } catch (const Error&) {
        // The envelope analysis fails only on unstable ports, where the
        // busy period diverges anyway; fall back to uncapped, exactly like
        // the legacy analyzer.
      }
    } else {
      // Caps from the contained WCNC pass: ports that failed or were
      // skipped stay uncapped (an infinite cap is simply no refinement).
      for (LinkId l = 0; l < n_links; ++l) {
        if ((*nc_ports)[l].state == PathState::kOk &&
            nc_result->ports[l].used) {
          (*ctx.caps)[l] =
              nc_result->ports[l].queue_backlog / cfg_.network().link(l).rate;
        }
      }
    }
  }
  ctx.tj_key = trajectory_options_key(options);
  ctx.caps_sig = caps_signature(ctx.caps);
  ctx.pcache = prefix_cache_for(ctx.tj_key, ctx.caps_sig);
  return ctx;
}

std::vector<AnalysisEngine::VlWork> AnalysisEngine::locality_work(
    const std::vector<std::size_t>& paths) const {
  // all_paths() is ordered by VL, so the paths of one VL are contiguous in
  // any ascending subset.
  const std::vector<VlPath>& all = cfg_.all_paths();
  std::vector<VlWork> work;
  for (std::size_t k = 0; k < paths.size();) {
    VlWork w{all[paths[k]].vl, k, k};
    while (k < paths.size() && all[paths[k]].vl == w.vl) ++k;
    w.end = k;
    work.push_back(w);
  }
  // Lexicographic by the VL's first route: VLs sharing their source port
  // (and deeper prefixes) become contiguous, so the chunk a worker claims
  // (or steals -- the scheduler moves contiguous blocks) covers one
  // neighbourhood of the topology and its prefix recursions overlap. Ties
  // (identical first routes, e.g. same-route multicast siblings) fall back
  // to the id for a total, deterministic order.
  std::sort(work.begin(), work.end(), [&](const VlWork& a, const VlWork& b) {
    const std::vector<LinkId>& la = all[cfg_.first_path(a.vl)].links;
    const std::vector<LinkId>& lb = all[cfg_.first_path(b.vl)].links;
    if (la == lb) return a.vl < b.vl;
    return std::lexicographical_compare(la.begin(), la.end(), lb.begin(),
                                        lb.end());
  });
  return work;
}

std::vector<Microseconds> AnalysisEngine::run_trajectory(
    const TrajectoryContext& ctx) {
  AFDX_TRACE_SPAN("engine.trajectory", "engine");
  const std::vector<VlPath>& paths = cfg_.all_paths();
  std::vector<Microseconds> out(paths.size(), 0.0);
  const std::shared_ptr<trajectory::PrefixCache>& pcache = ctx.pcache;

  // Work items are whole VLs in locality order: paths of one VL share
  // their prefix recursion, so keeping a VL in one chunk preserves the
  // analyzer's local memoization, and route-sorted neighbours make the
  // chunk cover one topology neighbourhood. Every bound is a pure
  // function of (configuration, options, caps), so dynamic (stolen)
  // assignment of VLs to workers stays bit-identical.
  std::vector<std::size_t> all(paths.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const std::vector<VlWork> work = locality_work(all);

  struct Shard {
    std::unique_ptr<trajectory::Analyzer> analyzer;
    std::size_t vls = 0;
    std::size_t paths_done = 0;
  };
  std::vector<Shard> local(static_cast<std::size_t>(pool_.thread_count()));
  pool_.parallel_for_dynamic(work.size(), [&](std::size_t k, int w) {
    Shard& shard = local[static_cast<std::size_t>(w)];
    if (!shard.analyzer) {
      AFDX_TRACE_SPAN("engine.trajectory.shard", "engine");
      shard.analyzer = std::make_unique<trajectory::Analyzer>(cfg_, ctx.options);
      if (ctx.caps.has_value()) shard.analyzer->set_backlog_caps(*ctx.caps);
      shard.analyzer->set_prefix_cache(pcache.get());
    }
    ++shard.vls;
    for (std::size_t j = work[k].begin; j < work[k].end; ++j) {
      const std::size_t i = all[j];
      out[i] = shard.analyzer->bound_to_link(paths[i].vl, paths[i].links.back());
      ++shard.paths_done;
    }
  });

  metrics_.shards.clear();
  metrics_.prefix_work = {};
  for (const Shard& shard : local) {
    if (!shard.analyzer) continue;
    record_shard(shard.vls, shard.paths_done, *shard.analyzer);
  }
  return out;
}

void AnalysisEngine::record_shard(std::size_t vls, std::size_t paths,
                                  const trajectory::Analyzer& analyzer) {
  const trajectory::Analyzer::CacheCounters& c = analyzer.counters();
  metrics_.shards.push_back(ShardMetrics{vls, paths, c.lookups, c.local_hits,
                                         c.shared_hits, analyzer.work()});
  metrics_.prefix_work += analyzer.work();
}

RunResult AnalysisEngine::run(const netcalc::Options& nc_options,
                              const trajectory::Options& tj_options) {
  AFDX_TRACE_SPAN("engine.run", "engine");
  RunResult result;
  const CacheStats cache0 = cache_.stats();
  const trajectory::PrefixCacheStats prefix0 = prefix_stats_total();
  const auto t0 = Clock::now();
  const Microseconds cpu0 = cpu_now_us();
  result.netcalc_result = run_netcalc(nc_options);
  result.netcalc = result.netcalc_result.path_bounds;
  const auto t1 = Clock::now();
  const TrajectoryContext tj_ctx =
      resolve_trajectory_context(tj_options, nullptr, nullptr);
  result.trajectory = run_trajectory(tj_ctx);
  const auto t2 = Clock::now();
  AFDX_ASSERT(result.netcalc.size() == result.trajectory.size(),
              "engine: method results misaligned");
  {
    AFDX_TRACE_SPAN("engine.combine", "engine");
    result.combined.reserve(result.netcalc.size());
    for (std::size_t i = 0; i < result.netcalc.size(); ++i) {
      result.combined.push_back(
          std::min(result.netcalc[i], result.trajectory[i]));
    }
  }
  const auto t3 = Clock::now();

  metrics_.netcalc_wall_us += elapsed_us(t0, t1);
  metrics_.trajectory_wall_us += elapsed_us(t1, t2);
  metrics_.combine_wall_us += elapsed_us(t2, t3);
  metrics_.total_wall_us += elapsed_us(t0, t3);
  metrics_.total_cpu_us += cpu_now_us() - cpu0;
  metrics_.paths = result.combined.size();
  metrics_.paths_per_second =
      safe_paths_per_second(metrics_.paths, elapsed_us(t0, t3));
  observe_phase_us("netcalc", elapsed_us(t0, t1));
  observe_phase_us("trajectory", elapsed_us(t1, t2));
  observe_phase_us("combine", elapsed_us(t2, t3));
  obs::registry().counter("engine.runs").add();
  obs::registry().counter("engine.paths").add(result.combined.size());
  metrics_.cache_run = cache_.stats() - cache0;
  metrics_.prefix_run = prefix_stats_total() - prefix0;
  result.status.assign(result.combined.size(), PathStatus{});
  result.nc_options_key = PortCache::options_key(nc_options);
  result.tj_options_key = tj_ctx.tj_key;
  result.prefixes = tj_ctx.pcache->snapshot();
  result.metrics = metrics();
  return result;
}

netcalc::Result AnalysisEngine::run_netcalc_contained(
    const netcalc::Options& options, const RunControl& control,
    std::vector<PortOutcome>& ports, netcalc::DelayTable& delays,
    const Reuse* reuse) {
  AFDX_TRACE_SPAN("engine.netcalc.contained", "engine");
  const Network& net = cfg_.network();
  const std::size_t n_links = net.link_count();

  netcalc::Result result;
  result.ports.assign(n_links, netcalc::PortReport{});
  result.iterations = 1;
  ports.assign(n_links, PortOutcome{});
  metrics_.levels = 0;
  metrics_.max_level_width = 0;

  const auto expired = [&] {
    return control.cancel != nullptr && control.cancel->expired();
  };

  // The ports this phase computes: every used port, or only the dirty
  // cone when a baseline supplies the clean ones. Clean ports keep the
  // baseline's bounds verbatim (their inputs are bit-identical by the
  // dirty closure); only the utilization is read from this configuration.
  std::vector<LinkId> compute;
  if (reuse == nullptr) {
    for (LinkId l = 0; l < n_links; ++l) {
      if (!cfg_.vls_on_link(l).empty()) compute.push_back(l);
    }
  } else {
    const netcalc::Result& base = reuse->baseline->netcalc_result;
    for (LinkId l : reuse->plan->clean_ports) {
      result.ports[l] = base.ports[l];
      result.ports[l].utilization = cfg_.utilization(l);
      delays.assign(l, base.ports[l].level_delays);
    }
    compute = reuse->plan->dirty_ports;
  }

  if (!cfg_.feed_forward()) {
    // Cyclic configuration (never incremental): the fixed point is
    // inherently all-or-nothing, so containment degrades to whole-phase
    // granularity.
    const auto mark_all = [&](PathState state, const std::string& msg) {
      for (LinkId l : compute) ports[l] = PortOutcome{state, msg};
    };
    if (expired()) {
      mark_all(PathState::kSkipped, control.cancel->reason());
      result.iterations = 0;
      return result;
    }
    try {
      result = run_netcalc(options);
      for (LinkId l : compute) delays.assign(l, result.ports[l].level_delays);
      return result;
    } catch (const std::exception& e) {
      mark_all(PathState::kFailed, e.what());
      result.iterations = 0;
      return result;
    }
  }

  const auto levels = netcalc::propagation_levels(cfg_, compute);
  AFDX_ASSERT(levels.has_value(),
              "engine: dependency cycle in a feed-forward configuration");
  metrics_.levels = levels->size();
  static obs::Histogram& level_width =
      obs::registry().histogram("engine.level.width");
  const std::uint64_t okey = PortCache::options_key(options);
  // A full run uses (and keeps) the whole flow index; an incremental run
  // builds the rows of its cone only.
  const netcalc::PortFlowIndex cone_index =
      reuse != nullptr ? netcalc::build_port_flow_index(cfg_, compute)
                       : netcalc::PortFlowIndex{};
  const netcalc::PortFlowIndex& index =
      reuse != nullptr ? cone_index : flow_index();
  std::vector<netcalc::PortBounds> bounds(n_links);
  bool abandoned = false;
  for (const std::vector<LinkId>& level : *levels) {
    level_width.observe(level.size());
    metrics_.max_level_width = std::max(metrics_.max_level_width,
                                        level.size());
    if (!abandoned && expired()) abandoned = true;
    if (abandoned) {
      for (LinkId port : level) {
        ports[port] = PortOutcome{PathState::kSkipped,
                                  control.cancel->reason()};
      }
      continue;
    }
    AFDX_TRACE_SPAN("engine.netcalc.level", "engine");

    // Dependency screen (serial; only reads outcomes of earlier levels): a
    // port whose crossing VLs arrive via a failed or skipped port cannot be
    // computed -- its inputs are unknown -- and is skipped, which in turn
    // taints everything downstream of it.
    std::vector<LinkId> todo;
    todo.reserve(level.size());
    for (LinkId port : level) {
      LinkId bad = kInvalidLink;
      for (VlId v : cfg_.vls_on_link(port)) {
        const LinkId pred = cfg_.route(v).predecessor(port);
        if (pred != kInvalidLink && ports[pred].state != PathState::kOk) {
          bad = pred;
          break;
        }
      }
      if (bad != kInvalidLink) {
        ports[port] = PortOutcome{
            PathState::kSkipped, "upstream port " + port_name(net, bad) +
                                     " unavailable (" +
                                     to_string(ports[bad].state) + ")"};
      } else {
        todo.push_back(port);
      }
    }

    const auto failures = pool_.parallel_for_dynamic_contained(
        todo.size(), [&](std::size_t i, int) {
          const LinkId port = todo[i];
          if (auto hit = cache_.lookup(okey, port); hit.has_value()) {
            bounds[port] = std::move(*hit);
          } else {
            bounds[port] = netcalc::compute_port_bounds(cfg_, port, options,
                                                        delays, index);
            cache_.store(okey, port, bounds[port]);
          }
        });
    for (const ThreadPool::TaskFailure& f : failures) {
      ports[todo[f.index]] = PortOutcome{PathState::kFailed, f.message};
    }
    for (LinkId port : level) {
      if (ports[port].state != PathState::kOk) continue;
      delays.assign(port, bounds[port].level_delays);
      result.ports[port] =
          netcalc::make_report(bounds[port], cfg_.utilization(port));
    }
  }
  return result;
}

void AnalysisEngine::run_trajectory_contained(
    const TrajectoryContext& ctx, const RunControl& control,
    const std::vector<std::size_t>& paths, const PathCallback& on_path) {
  AFDX_TRACE_SPAN("engine.trajectory.contained", "engine");
  const std::vector<VlPath>& all = cfg_.all_paths();
  const std::vector<VlWork> work = locality_work(paths);

  // Per-worker analyzer state for the work-stealing loop. A throw
  // mid-recursion leaves the analyzer consistent -- the in-progress
  // markers unwind with the stack (RAII) and the memo only ever holds
  // successfully computed bounds -- so the worker keeps its instance (and
  // its memo) across contained per-path failures.
  struct Shard {
    std::optional<trajectory::Analyzer> analyzer;
    std::string construct_error;
    bool alive = false;
    bool initialized = false;
    std::size_t vls = 0;
    std::size_t paths_done = 0;
  };
  std::vector<Shard> local(static_cast<std::size_t>(pool_.thread_count()));
  const auto fresh = [&](Shard& shard) {
    try {
      shard.analyzer.emplace(cfg_, ctx.options);
      if (ctx.caps.has_value()) shard.analyzer->set_backlog_caps(*ctx.caps);
      shard.analyzer->set_prefix_cache(ctx.pcache.get());
      shard.alive = true;
    } catch (const std::exception& e) {
      shard.construct_error = e.what();
      shard.alive = false;
    }
  };
  // The body never throws (all analysis errors are contained per path), so
  // the plain dynamic loop is enough.
  pool_.parallel_for_dynamic(work.size(), [&](std::size_t k, int w) {
    Shard& shard = local[static_cast<std::size_t>(w)];
    if (!shard.initialized) {
      shard.initialized = true;
      fresh(shard);
    }
    ++shard.vls;
    for (std::size_t j = work[k].begin; j < work[k].end; ++j) {
      const std::size_t i = paths[j];
      Microseconds bound = kInf;
      PathStatus status;
      if (control.cancel != nullptr && control.cancel->expired()) {
        status = PathStatus{PathState::kSkipped, control.cancel->reason()};
      } else if (!shard.alive) {
        status = PathStatus{PathState::kFailed, shard.construct_error};
      } else {
        try {
          bound = shard.analyzer->bound_to_link(all[i].vl, all[i].links.back());
          ++shard.paths_done;
        } catch (const std::exception& e) {
          status = PathStatus{PathState::kFailed, e.what()};
        }
      }
      on_path(i, bound, status);
    }
  });

  metrics_.shards.clear();
  metrics_.prefix_work = {};
  for (const Shard& shard : local) {
    if (!shard.analyzer.has_value()) continue;
    record_shard(shard.vls, shard.paths_done, *shard.analyzer);
  }
}

RunResult AnalysisEngine::run_resilient(const netcalc::Options& nc_options,
                                        const trajectory::Options& tj_options,
                                        const RunControl& control) {
  return run_resilient_with(nc_options, tj_options, control, nullptr);
}

RunResult AnalysisEngine::run_resilient_with(
    const netcalc::Options& nc_options, const trajectory::Options& tj_options,
    const RunControl& control, const Reuse* reuse) {
  const std::vector<VlPath>& paths = cfg_.all_paths();
  const std::size_t n = paths.size();

  AFDX_TRACE_SPAN("engine.run_resilient", "engine");
  RunResult result;
  const CacheStats cache0 = cache_.stats();
  const trajectory::PrefixCacheStats prefix0 = prefix_stats_total();
  const auto t0 = Clock::now();
  const Microseconds cpu0 = cpu_now_us();
  std::vector<PortOutcome> nc_ports;
  netcalc::DelayTable delays(cfg_);
  result.netcalc_result =
      run_netcalc_contained(nc_options, control, nc_ports, delays, reuse);

  result.netcalc.assign(n, kInf);
  std::vector<PathStatus> nc_status(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.netcalc[i] =
        wcnc_path_bound(cfg_, paths[i], nc_ports, delays, nc_status[i]);
  }
  result.netcalc_result.path_bounds = result.netcalc;
  const auto t1 = Clock::now();

  // The trajectory phase over every path, or over the paths an
  // incremental run could not carry over (with the baseline's prefixes
  // layered under the run's cache).
  const TrajectoryContext tj_ctx = resolve_trajectory_context(
      tj_options, &result.netcalc_result, &nc_ports);
  std::vector<std::size_t> every_path;
  if (reuse != nullptr) {
    result.trajectory = reuse->trajectory;
    if (reuse->layer.has_value()) tj_ctx.pcache->set_layer(*reuse->layer);
  } else {
    result.trajectory.assign(n, kInf);
    every_path.resize(n);
    for (std::size_t i = 0; i < n; ++i) every_path[i] = i;
  }
  std::vector<PathStatus> tj_status(n);
  run_trajectory_contained(
      tj_ctx, control, reuse != nullptr ? reuse->paths : every_path,
      [&](std::size_t i, Microseconds bound, const PathStatus& status) {
        result.trajectory[i] = bound;
        tj_status[i] = status;
      });
  const auto t2 = Clock::now();

  // Combine: the per-path minimum over the methods that did produce a
  // bound. A path is ok as long as one method survived; the message still
  // records the degraded method so nothing fails silently.
  result.combined.assign(n, kInf);
  result.status.assign(n, PathStatus{});
  for (std::size_t i = 0; i < n; ++i) {
    result.combined[i] = std::min(result.netcalc[i], result.trajectory[i]);
    result.status[i] =
        combined_status(nc_status[i], tj_status[i], result.combined[i]);
  }
  const auto t3 = Clock::now();

  metrics_.netcalc_wall_us += elapsed_us(t0, t1);
  metrics_.trajectory_wall_us += elapsed_us(t1, t2);
  metrics_.combine_wall_us += elapsed_us(t2, t3);
  metrics_.total_wall_us += elapsed_us(t0, t3);
  metrics_.total_cpu_us += cpu_now_us() - cpu0;
  metrics_.paths = n;
  metrics_.paths_per_second = safe_paths_per_second(n, elapsed_us(t0, t3));
  observe_phase_us("netcalc", elapsed_us(t0, t1));
  observe_phase_us("trajectory", elapsed_us(t1, t2));
  observe_phase_us("combine", elapsed_us(t2, t3));
  obs::registry().counter("engine.runs").add();
  obs::registry().counter("engine.paths").add(n);
  metrics_.cache_run = cache_.stats() - cache0;
  metrics_.prefix_run = prefix_stats_total() - prefix0;
  if (reuse != nullptr) {
    metrics_.incremental.seeded_prefixes = metrics_.prefix_run.reused;
  }
  result.nc_options_key = PortCache::options_key(nc_options);
  result.tj_options_key = tj_ctx.tj_key;
  result.prefixes = tj_ctx.pcache->snapshot();
  result.metrics = metrics();
  return result;
}

StreamSummary AnalysisEngine::run_streaming(
    const StreamSink& sink, const netcalc::Options& nc_options,
    const trajectory::Options& tj_options, const RunControl& control) {
  AFDX_TRACE_SPAN("engine.run_streaming", "engine");
  const std::vector<VlPath>& paths = cfg_.all_paths();

  const auto t0 = Clock::now();
  const Microseconds cpu0 = cpu_now_us();
  const CacheStats cache0 = cache_.stats();
  const trajectory::PrefixCacheStats prefix0 = prefix_stats_total();

  // Contained WCNC pass: per-port state, O(ports) not O(paths).
  std::vector<PortOutcome> nc_ports;
  netcalc::DelayTable delays(cfg_);
  const netcalc::Result nc_result =
      run_netcalc_contained(nc_options, control, nc_ports, delays, nullptr);
  const auto t1 = Clock::now();

  const TrajectoryContext ctx =
      resolve_trajectory_context(tj_options, &nc_result, &nc_ports);
  std::vector<std::size_t> every_path(paths.size());
  for (std::size_t i = 0; i < every_path.size(); ++i) every_path[i] = i;

  StreamSummary summary;
  std::mutex sink_mu;
  run_trajectory_contained(
      ctx, control, every_path,
      [&](std::size_t i, Microseconds tj_bound, const PathStatus& tj_status) {
        const VlPath& p = paths[i];
        StreamPathResult r;
        r.path_index = i;
        r.vl = p.vl;
        r.dest_index = p.dest_index;
        // Per-path WCNC assembly and combine, same contract as
        // run_resilient.
        PathStatus nc_status;
        r.netcalc = wcnc_path_bound(cfg_, p, nc_ports, delays, nc_status);
        r.trajectory = tj_bound;
        r.combined = std::min(r.netcalc, r.trajectory);
        PathStatus status = combined_status(nc_status, tj_status, r.combined);
        r.state = status.state;
        r.message = std::move(status.message);

        std::lock_guard<std::mutex> lock(sink_mu);
        ++summary.paths;
        switch (r.state) {
          case PathState::kOk:
            ++summary.ok;
            summary.sum_combined += r.combined;
            if (summary.ok == 1 || r.combined > summary.max_combined) {
              summary.max_combined = r.combined;
              summary.worst_path = i;
              summary.worst_vl = p.vl;
            }
            break;
          case PathState::kFailed:
            ++summary.failed;
            break;
          case PathState::kSkipped:
            ++summary.skipped;
            break;
        }
        if (sink) sink(r);
      });
  const auto t2 = Clock::now();

  // Per-shard cache effectiveness plus the run's overall cache deltas --
  // the summary carries them so a streaming caller can observe reuse
  // (e.g. a warm second run) without reaching into engine metrics.
  summary.shards = metrics_.shards;
  summary.prefix_work = metrics_.prefix_work;
  summary.port_cache = cache_.stats() - cache0;
  summary.prefix_cache = prefix_stats_total() - prefix0;
  metrics_.cache_run = summary.port_cache;
  metrics_.prefix_run = summary.prefix_cache;

  summary.wall_us = elapsed_us(t0, t2);
  summary.paths_per_second =
      safe_paths_per_second(summary.paths, summary.wall_us);
  metrics_.netcalc_wall_us += elapsed_us(t0, t1);
  metrics_.trajectory_wall_us += elapsed_us(t1, t2);
  metrics_.total_wall_us += summary.wall_us;
  metrics_.total_cpu_us += cpu_now_us() - cpu0;
  metrics_.paths = summary.paths;
  metrics_.paths_per_second = summary.paths_per_second;
  observe_phase_us("netcalc", elapsed_us(t0, t1));
  observe_phase_us("trajectory", elapsed_us(t1, t2));
  obs::registry().counter("engine.runs").add();
  obs::registry().counter("engine.paths").add(summary.paths);
  return summary;
}

RunResult AnalysisEngine::run_incremental(const TrafficConfig& baseline_config,
                                          const RunResult& baseline,
                                          const std::vector<LinkId>& changed_links,
                                          const netcalc::Options& nc_options,
                                          const trajectory::Options& tj_options,
                                          const RunControl& control) {
  AFDX_TRACE_SPAN("engine.run_incremental", "engine");
  IncrementalStats inc;
  inc.attempted = true;
  inc.changed_links = changed_links.size();

  const auto fallback = [&](std::string reason) {
    inc.full_fallback = true;
    inc.fallback_reason = std::move(reason);
    metrics_.incremental = inc;
    return run_resilient(nc_options, tj_options, control);
  };

  if (baseline.nc_options_key != PortCache::options_key(nc_options)) {
    return fallback("baseline was computed under different WCNC options");
  }
  if (baseline.netcalc_result.ports.size() !=
      baseline_config.network().link_count()) {
    return fallback("baseline result does not match the baseline "
                    "configuration");
  }
  // A cyclic WCNC fixed point is global: every port's converged value
  // depends on the round count of the whole iteration.
  if (!cfg_.feed_forward() || !baseline_config.feed_forward()) {
    return fallback("cyclic configuration");
  }
  const IncrementalPlan plan =
      plan_incremental(baseline_config, cfg_, changed_links);
  if (!plan.compatible) return fallback(plan.reason);
  // Clean ports are taken from the baseline verbatim, so its WCNC phase
  // must have bounded every one of them.
  for (LinkId l : plan.clean_ports) {
    if (!baseline.netcalc_result.ports[l].used) {
      return fallback("baseline has no WCNC bound for a clean port");
    }
  }
  inc.dirty_ports = plan.dirty_ports.size();
  inc.seeded_ports = plan.clean_ports.size();

  Reuse reuse;
  reuse.baseline = &baseline;
  reuse.plan = &plan;
  // Trajectory reuse needs a baseline computed under the same trajectory
  // options: its prefixes at clean ports then read bit-identical inputs
  // (the serialization caps of clean ports are the baseline's too).
  const bool same_tj =
      baseline.prefixes != nullptr &&
      baseline.tj_options_key == trajectory_options_key(tj_options);
  if (same_tj) {
    reuse.layer = trajectory::PrefixLayer{baseline.prefixes, plan.base_vl,
                                          plan.dirty};
  }

  // Whole-path transplants: a path is clean exactly when its last port is
  // (the cone is closed downstream), and a clean path reads bit-identical
  // inputs end to end, so its baseline trajectory bound is carried over
  // and the trajectory phase skips it. Only finite bounds (a failed path
  // re-runs so its status is re-derived) of a baseline whose per-path
  // vector lines up with its configuration.
  const std::vector<VlPath>& cpaths = cfg_.all_paths();
  const std::vector<VlPath>& bpaths = baseline_config.all_paths();
  const bool shared = cfg_.shares_layout(baseline_config);
  const bool transplant = same_tj && baseline.trajectory.size() == bpaths.size();
  reuse.trajectory.assign(cpaths.size(), kInf);
  for (std::size_t i = 0; i < cpaths.size(); ++i) {
    const VlPath& p = cpaths[i];
    const VlId bv = plan.base_vl[p.vl];
    std::size_t b = bpaths.size();
    if (transplant && bv != kInvalidVl && !plan.dirty[p.links.back()]) {
      if (shared) {
        b = i;
      } else {
        // The baseline path of the same VL to the same terminal port, if
        // it took the same route.
        for (std::size_t k = baseline_config.first_path(bv);
             k < baseline_config.first_path(bv + 1); ++k) {
          if (bpaths[k].links.back() == p.links.back()) {
            if (bpaths[k].links == p.links) b = k;
            break;
          }
        }
      }
    }
    if (b < bpaths.size() && std::isfinite(baseline.trajectory[b])) {
      reuse.trajectory[i] = baseline.trajectory[b];
      ++inc.transplanted_paths;
    } else {
      reuse.paths.push_back(i);
    }
  }
  metrics_.incremental = inc;
  return run_resilient_with(nc_options, tj_options, control, &reuse);
}

netcalc::Result AnalysisEngine::netcalc_only(
    const netcalc::Options& nc_options) {
  const auto t0 = Clock::now();
  netcalc::Result result = run_netcalc(nc_options);
  const Microseconds dt = elapsed_us(t0, Clock::now());
  metrics_.netcalc_wall_us += dt;
  metrics_.total_wall_us += dt;
  metrics_.paths = result.path_bounds.size();
  metrics_.paths_per_second = safe_paths_per_second(metrics_.paths, dt);
  return result;
}

std::vector<Microseconds> AnalysisEngine::trajectory_only(
    const trajectory::Options& tj_options) {
  const auto t0 = Clock::now();
  const TrajectoryContext ctx =
      resolve_trajectory_context(tj_options, nullptr, nullptr);
  std::vector<Microseconds> result = run_trajectory(ctx);
  const Microseconds dt = elapsed_us(t0, Clock::now());
  metrics_.trajectory_wall_us += dt;
  metrics_.total_wall_us += dt;
  metrics_.paths = result.size();
  metrics_.paths_per_second = safe_paths_per_second(result.size(), dt);
  return result;
}

const netcalc::PortFlowIndex& AnalysisEngine::flow_index() {
  if (!flow_index_.has_value()) {
    flow_index_.emplace(netcalc::build_port_flow_index(cfg_));
  }
  return *flow_index_;
}

std::shared_ptr<trajectory::PrefixCache> AnalysisEngine::prefix_cache_for(
    std::uint64_t tj_key, std::uint64_t caps_sig) {
  // One more FNV round folds the two digests into the map key.
  const std::uint64_t key = fnv_mix(tj_key, caps_sig, 8);
  auto& slot = prefix_caches_[key];
  if (slot == nullptr) slot = std::make_shared<trajectory::PrefixCache>();
  return slot;
}

trajectory::PrefixCacheStats AnalysisEngine::prefix_stats_total() const {
  trajectory::PrefixCacheStats total;
  for (const auto& [key, cache] : prefix_caches_) {
    const trajectory::PrefixCacheStats s = cache->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.reused += s.reused;
  }
  return total;
}

RunMetrics AnalysisEngine::metrics() const {
  RunMetrics m = metrics_;
  m.cache = cache_.stats();
  m.prefix = prefix_stats_total();
  m.steals = pool_.steal_count();
  m.threads = pool_.thread_count();
  m.tasks_per_thread = pool_.tasks_per_thread();
  return m;
}

}  // namespace afdx::engine
